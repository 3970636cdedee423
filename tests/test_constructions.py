import pytest

from spectile import (
    ContradictionError,
    GroupParams,
    GroupSet,
    InvalidInputError,
    NonSpectralSizeError,
    SizeClass,
    classify_size,
    complement_from_spectrum,
    find_complement_bruteforce,
    find_spectrum_bruteforce,
    spectrum_from_tile,
    verify_spectral_pair,
    verify_tiling_pair,
    zero_set,
)
from spectile import constructions
from spectile.charsum import ZeroProfile
from spectile.constructions import _lowest_index, _tile_spectrum_case
from spectile.group import class_members, group_tables

from conftest import make_set

P22 = GroupParams(2, 2)
P23 = GroupParams(2, 3)


class TestSpectrumFromTile:
    def test_size_p_example(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        B, trace = spectrum_from_tile(A)
        assert B == make_set(P22, [(0, 0), (0, 2)])
        assert (trace.theorem, trace.case) == ("T2S-p", "Main")
        assert trace.witnesses["zero"] == (0, 2)
        assert verify_spectral_pair(A, B)

    def test_every_built_spectrum_is_checked(self, monkeypatch):
        # a wrong spectrum from the build is caught by the one check against
        # the zero set of A, and named by the branch that built it
        wrong = make_set(P22, [(0, 0), (1, 0)])
        monkeypatch.setattr(
            constructions, "_tile_spectrum",
            lambda A, T, t_exp, profile: (wrong, constructions.CaseTrace("T2S-p", "Main")),
        )
        with pytest.raises(InvalidInputError) as exc_info:
            spectrum_from_tile(make_set(P22, [(0, 0), (0, 1)]))
        assert str(exc_info.value) == (
            "T2S-p Main: constructed spectrum failed verification; "
            "the input is not the tile it was claimed to be"
        )

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2), (7, 1)])
    def test_lowest_zero_index_is_class_minimum(self, p, n):
        # T2S-p takes its zero from this arithmetic, not from a class bitmap
        q = GroupParams(p, n)
        for rid in range(1 + p * n):
            assert _lowest_index(q, rid) == class_members(rid, q).indices()[0]

    def test_ifull_example(self):
        A = make_set(P22, [(0, 0), (0, 1), (0, 2), (0, 3)])
        B, trace = spectrum_from_tile(A)
        assert B == A
        assert (trace.theorem, trace.case) == ("T2S-pt", "IFull")
        assert trace.witnesses["I"] == (0, 1)

    def test_full_group_short_circuit(self):
        G = GroupSet.full(P22)
        B, trace = spectrum_from_tile(G)
        assert B == G
        assert trace.theorem == "T2S-trivial"

    def test_singleton(self):
        A = GroupSet.from_indices(P22, [5])
        B, trace = spectrum_from_tile(A)
        assert B == GroupSet.from_indices(P22, [0])
        assert trace.theorem == "T2S-trivial"

    def test_case2_instance(self):
        # harvested from the exhaustive (2,3) sweep
        A = GroupSet.from_indices(P23, [0, 1, 2, 9])
        T = find_complement_bruteforce(A)
        B, trace = spectrum_from_tile(A, T)
        assert (trace.theorem, trace.case) == ("T2S-pt", "Case2")
        assert trace.witnesses == {"d": 1, "b_k": 1, "I": (2,), "J": (0, 1)}
        assert verify_spectral_pair(A, B)

    def test_case3_instance(self):
        A = GroupSet.from_indices(P23, [0, 1, 8, 11])
        B, trace = spectrum_from_tile(A)  # complement auto-searched
        assert (trace.theorem, trace.case) == ("T2S-pt", "Case3")
        assert verify_spectral_pair(A, B)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            spectrum_from_tile(GroupSet.empty(P22))

    def test_rejects_non_divisor_size(self):
        A = GroupSet.from_indices(P22, [0, 1, 2])
        with pytest.raises(InvalidInputError):
            spectrum_from_tile(A)

    def test_rejects_non_tile_of_tile_size(self):
        # {(0,0),(0,1),(0,2),(1,0)} has size 4 but does not tile Z_2 x Z_4
        A = GroupSet.from_indices(P22, [0, 1, 2, 4])
        assert find_complement_bruteforce(A) is None
        with pytest.raises(InvalidInputError):
            spectrum_from_tile(A)

    def test_rejects_bad_supplied_complement(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        bad_T = make_set(P22, [(0, 0), (0, 1), (1, 0), (1, 1)])
        with pytest.raises(InvalidInputError):
            spectrum_from_tile(A, bad_T)

    def test_trace_determinism(self):
        A = GroupSet.from_indices(P23, [0, 1, 2, 9])
        T = find_complement_bruteforce(A)
        r1 = spectrum_from_tile(A, T)
        r2 = spectrum_from_tile(A, T)
        assert r1[0] == r2[0]
        assert r1[1].__dict__ == r2[1].__dict__


class TestTileSpectrumCaseSplit:
    # The contradiction branches cannot fire through the public operation,
    # which verifies the tiling pair first; exercise them directly.

    def _profile(self, params, mixed, unit_axis=False):
        # the zeros (c, p^i) given as (c, i) pairs, at rep id 1 + i*p + c
        bits = sum(1 << 1 + i * params.p + c for c, i in mixed)
        return ZeroProfile(params, bits | int(unit_axis))

    def test_case1_contradiction_detected(self):
        # Z_T carries (1, p^2) at the A-level 2 with every lower J level
        # fully mixed: the Case1 pattern, impossible for a genuine pair
        q = P23
        prof_A = self._profile(q, [(0, 2)])
        prof_T = self._profile(q, [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2)])
        assert (prof_A.I, prof_T.I) == ({2}, {0, 1})
        case, payload = _tile_spectrum_case(q, prof_A, prof_T)
        assert case == "Case1"
        assert payload == {"d": 1, "a_k": 2}

    def test_case3_axis_contradiction_detected(self):
        q = P23
        prof_A = self._profile(q, [(0, 2), (1, 2)])
        prof_T = self._profile(q, [(0, 0), (1, 0), (0, 1), (1, 1)], unit_axis=True)
        assert (prof_A.I, prof_T.I) == ({2}, {0, 1})
        case, _ = _tile_spectrum_case(q, prof_A, prof_T)
        assert case == "Case3-axis"

    def test_no_case_on_garbage_profiles(self):
        q = P23
        prof_A = self._profile(q, [(0, 2)])
        prof_T = self._profile(q, [(0, 0)])
        assert (prof_A.I, prof_T.I) == ({2}, {0})
        case, _ = _tile_spectrum_case(q, prof_A, prof_T)
        assert case == "NoCase"

    def test_contradiction_branches_abort_the_operation(self, monkeypatch):
        # the public operation verifies pairs first, so genuine inputs never
        # reach a contradiction; stub the case split to check the error path
        import spectile.constructions as ctor

        A = GroupSet.from_indices(P23, [0, 1, 2, 9])
        T = find_complement_bruteforce(A)
        for branch in ("Case1", "Case3-axis"):
            monkeypatch.setattr(
                ctor, "_tile_spectrum_case", lambda *a, _b=branch: (_b, {})
            )
            with pytest.raises(ContradictionError) as exc_info:
                spectrum_from_tile(A, T)
            assert exc_info.value.branch == branch


class TestComplementFromSpectrum:
    def test_case2_example(self):
        A = make_set(P22, [(0, 0), (0, 2)])
        T, trace = complement_from_spectrum(A)
        assert T == make_set(P22, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert (trace.theorem, trace.case) == ("S2T-p", "Case2")
        assert trace.witnesses == {"level": 0}
        assert verify_tiling_pair(A, T)

    def test_case1_example(self):
        A = make_set(P22, [(0, 0), (1, 0)])
        T, trace = complement_from_spectrum(A)
        assert T == make_set(P22, [(0, y) for y in range(4)])
        assert (trace.theorem, trace.case) == ("S2T-p", "Case1")

    def test_size_p_case3_example(self):
        q = GroupParams(3, 1)
        A = make_set(q, [(0, 0), (0, 1), (1, 0)])
        T, trace = complement_from_spectrum(A)
        assert (trace.theorem, trace.case) == ("S2T-p", "Case3")
        assert trace.witnesses == {"c": 2, "level": 0}
        assert T == make_set(q, [(0, 0), (1, 1), (2, 2)])
        assert verify_tiling_pair(A, T)

    def test_full_group(self):
        G = GroupSet.full(P22)
        T, trace = complement_from_spectrum(G)
        assert T == GroupSet.from_indices(P22, [0])
        assert trace.theorem == "S2T-big"

    def test_singleton(self):
        A = GroupSet.from_indices(P22, [6])
        T, trace = complement_from_spectrum(A)
        assert T == GroupSet.full(P22)
        assert trace.theorem == "S2T-trivial"

    def test_trivial_branches_check_their_complement(self, monkeypatch):
        # a wrong partner from the trivial branch is caught by the tiling
        # check like any other branch's, not returned
        wrong = GroupSet.from_indices(P22, [0])
        monkeypatch.setattr(
            constructions, "_spectral_complement",
            lambda A, B, profile: (wrong, constructions.CaseTrace("S2T-trivial", "Trivial")),
        )
        with pytest.raises(
            InvalidInputError, match="S2T-trivial Trivial: constructed complement failed verification"
        ):
            complement_from_spectrum(GroupSet.from_indices(P22, [6]))

    def test_ps_case1_instance(self):
        A = GroupSet.from_indices(P23, [0, 1, 2, 3])
        T, trace = complement_from_spectrum(A)
        assert (trace.theorem, trace.case) == ("S2T-ps", "Case1")
        assert trace.witnesses["I"] == (1, 2)
        assert verify_tiling_pair(A, T)

    def test_ps_case2_instance(self):
        A = GroupSet.from_indices(P23, [0, 1, 8, 9])
        B = find_spectrum_bruteforce(A)
        T, trace = complement_from_spectrum(A, B)
        assert (trace.theorem, trace.case) == ("S2T-ps", "Case2")
        assert trace.witnesses == {"I": (2,), "J": (0,)}
        assert verify_tiling_pair(A, T)

    def test_ps_case3_instance(self):
        A = GroupSet.from_indices(P23, [0, 1, 2, 9])
        B = find_spectrum_bruteforce(A)
        T, trace = complement_from_spectrum(A, B)
        assert (trace.theorem, trace.case) == ("S2T-ps", "Case3")
        assert trace.witnesses["j0"] == 1
        assert trace.witnesses["c"] == 1
        assert verify_tiling_pair(A, T)

    def test_mixed_size_obstruction(self):
        q = GroupParams(3, 2)
        A = GroupSet.from_indices(q, range(6))
        with pytest.raises(NonSpectralSizeError) as exc_info:
            complement_from_spectrum(A)
        witness = exc_info.value.witness
        assert isinstance(witness, SizeClass) and witness.kind == "mixed"
        assert (witness.m, witness.s) == (2, 1)

    def test_pigeonhole_violation_rejected(self):
        # 5 elements in a group of order 8 cannot be spectral unless A = G
        A = GroupSet.from_indices(P22, range(5))
        with pytest.raises(InvalidInputError):
            complement_from_spectrum(A)

    def test_non_p_divisible_rejected(self):
        q = GroupParams(3, 2)
        A = GroupSet.from_indices(q, range(4))
        with pytest.raises(InvalidInputError):
            complement_from_spectrum(A)

    def test_rejects_bad_supplied_spectrum(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        with pytest.raises(InvalidInputError):
            complement_from_spectrum(A, A)

    def test_non_spectral_power_size_rejected(self):
        # size 4 subset of Z_2 x Z_4 that is not spectral
        A = GroupSet.from_indices(P22, [0, 1, 2, 4])
        assert find_spectrum_bruteforce(A) is None
        with pytest.raises(InvalidInputError):
            complement_from_spectrum(A)


class TestNonspectralSizeWitness:
    # the size obstruction |A| = m * p^s, 2 <= m <= p-1, is classify_size's
    # kind "mixed"
    def test_p3_size6(self):
        sc = classify_size(6, GroupParams(3, 2))
        assert (sc.kind, sc.m, sc.s) == ("mixed", 2, 1)

    def test_p2_never_fires(self):
        for k in range(1, 9):
            assert classify_size(k, P22).kind != "mixed"

    def test_pure_power_none(self):
        assert classify_size(9, GroupParams(3, 2)).kind == "pure_power"

    def test_witness_soundness_against_search(self):
        # every set of mixed size must fail the brute-force spectrum search
        q = GroupParams(3, 2)
        for offset in range(0, 20, 3):
            A = GroupSet.from_indices(q, range(offset, offset + 6))
            assert classify_size(A.cardinality, q).kind == "mixed"
            assert find_spectrum_bruteforce(A) is None


class TestConstructionRoundTrips:
    def test_round_trip_on_found_tiles_z2z8(self):
        # every 2-subset tile of Z_2 x Z_8: spectrum then complement
        q = P23
        from itertools import combinations

        for combo in combinations(range(16), 2):
            A = GroupSet.from_indices(q, combo)
            T = find_complement_bruteforce(A)
            if T is None:
                continue
            B, _ = spectrum_from_tile(A, T)
            assert verify_spectral_pair(A, B)
            T2, _ = complement_from_spectrum(A, B)
            assert verify_tiling_pair(A, T2)
            za = zero_set(A)
            zt = zero_set(T2)
            assert za.key() | zt.key() == (1 << 1 + q.p * q.n) - 1


def _record_branches(monkeypatch) -> tuple[list[tuple[str, str]], list[tuple]]:
    """Wrap both public constructions where the sweep looks them up; the
    returned lists collect the (theorem, case) of every call and, in the
    same order, its (construction name, A, partner, trace).  The wrapper
    takes exactly (A, partner=None), so a caller passing anything else
    fails."""
    fired, calls = [], []

    def recording(fn):
        def wrapper(A, partner=None):
            built, trace = fn(A, partner)
            fired.append((trace.theorem, trace.case))
            calls.append((fn.__name__, A, partner, trace))
            return built, trace

        return wrapper

    for name in ("spectrum_from_tile", "complement_from_spectrum"):
        monkeypatch.setattr(constructions, name, recording(getattr(constructions, name)))
    return fired, calls


class TestBranchCoverage:
    GENUINE_BRANCHES = {
        ("T2S-trivial", "Trivial"),
        ("T2S-p", "Main"),
        ("T2S-pt", "IFull"),
        ("T2S-pt", "Case2"),
        ("T2S-pt", "Case3"),
        ("S2T-trivial", "Trivial"),
        ("S2T-big", "Main"),
        ("S2T-p", "Case1"),
        ("S2T-p", "Case2"),
        ("S2T-p", "Case3"),
        ("S2T-ps", "Case1"),
        ("S2T-ps", "Case2"),
        ("S2T-ps", "Case3"),
    }
    # Z_2 x Z_4 has the p^2-sized branches, Z_3 x Z_3 the size-p Case3
    SWEEPS = (P22, GroupParams(3, 1))

    def test_small_sweeps_fire_every_genuine_branch(self, monkeypatch):
        from spectile import enumerate_and_check

        fired, _ = _record_branches(monkeypatch)
        for q in self.SWEEPS:
            report = enumerate_and_check(q, shards=1)
            assert report.mismatches == []
        assert set(fired) == self.GENUINE_BRANCHES


class TestProfileReuse:
    # a construction computes zero_set(A) itself, at most once per call, and
    # zero_set of the partner only in the branches whose case split reads it
    PARTNER_CASES = {
        ("T2S-pt", "Case2"), ("T2S-pt", "Case3"), ("S2T-ps", "Case2"), ("S2T-ps", "Case3")
    }
    A = GroupSet.from_indices(P23, [0, 1, 2, 9])  # T2S-pt Case2, S2T-ps Case3

    @staticmethod
    def _count_zero_sets(monkeypatch):
        from spectile import oracle

        calls = []

        def counting(A):
            calls.append(A)
            return zero_set(A)

        monkeypatch.setattr(constructions, "zero_set", counting)
        monkeypatch.setattr(oracle, "zero_set", counting)
        return calls

    def test_sweep_profiles_a_once_per_call(self, monkeypatch):
        # the sweep hands a construction only the set and its partner; each
        # call profiles A once (spectrum_from_tile not at sizes 1 and |G|)
        # and its partner where the case split reads it, in call order
        from spectile import enumerate_and_check

        calls = self._count_zero_sets(monkeypatch)
        _, args = _record_branches(monkeypatch)
        assert enumerate_and_check(P22, shards=1).mismatches == []
        expected = []
        for name, A, partner, trace in args:
            if name == "complement_from_spectrum" or trace.theorem != "T2S-trivial":
                expected.append(A)
            if (trace.theorem, trace.case) in self.PARTNER_CASES:
                expected.append(partner)
        assert any((t.theorem, t.case) in self.PARTNER_CASES for *_, t in args)
        assert calls == expected

    def test_spectrum_from_tile_profiles_a_once(self, monkeypatch):
        A = make_set(P22, [(0, 0), (0, 1)])  # T2S-p Main
        T4 = find_complement_bruteforce(self.A)
        calls = self._count_zero_sets(monkeypatch)
        assert spectrum_from_tile(A)[1].case == "Main"
        assert calls == [A]
        calls.clear()
        assert spectrum_from_tile(self.A, T4)[1].case == "Case2"
        assert calls == [self.A, T4]
        calls.clear()
        for trivial in (GroupSet.from_indices(P22, [3]), GroupSet.full(P22)):
            assert spectrum_from_tile(trivial)[1].theorem == "T2S-trivial"
        assert calls == []

    def test_complement_from_spectrum_profiles_a_once(self, monkeypatch):
        A = make_set(P22, [(0, 0), (0, 1)])  # S2T-p, which reads no partner
        B = make_set(P22, [(0, 0), (0, 2)])
        B4 = find_spectrum_bruteforce(self.A)
        single, full = GroupSet.from_indices(P22, [3]), GroupSet.full(P22)
        calls = self._count_zero_sets(monkeypatch)
        for partner in (B, None):
            complement_from_spectrum(A, partner)
            assert calls == [A]
            calls.clear()
        assert complement_from_spectrum(self.A, B4)[1].case == "Case3"
        assert calls == [self.A, B4]
        calls.clear()
        # without a spectrum to check, sizes 1 and |G| never need the profile
        complement_from_spectrum(single)
        complement_from_spectrum(full)
        assert calls == []
        complement_from_spectrum(single, single)
        assert calls == [single]

    def test_no_caller_can_hand_in_a_profile(self):
        # a tile of Z3xZ3 and the zero set of another set of its size: the
        # constructions take no profile, so the spectrum built is A's own
        q = GroupParams(3, 1)
        A = make_set(q, [(0, 0), (0, 1), (0, 2)])
        wrong = zero_set(make_set(q, [(0, 0), (1, 0), (2, 0)]))
        T = find_complement_bruteforce(A)
        for fn in (spectrum_from_tile, complement_from_spectrum):
            with pytest.raises(TypeError):
                fn(A, None, profile=wrong)
            with pytest.raises(TypeError):
                fn(A, None, wrong)
        B, _ = spectrum_from_tile(A, T)
        assert verify_spectral_pair(A, B)


class TestStoredPartners:
    # the sweep keeps, per memo entry and construction, the translate sums
    # and guard key of the T its first passing set was checked against;
    # a construction itself keeps nothing between calls

    A = GroupSet.from_indices(P23, [0, 1, 2, 9])  # T2S-pt Case2, S2T-ps Case3

    def _pairs(self):
        return self.A, find_complement_bruteforce(self.A), find_spectrum_bruteforce(self.A)

    def test_equal_but_distinct_traces(self):
        A, T, B = self._pairs()
        for fn, partner in ((spectrum_from_tile, T), (complement_from_spectrum, B)):
            (b1, t1), (b2, t2) = fn(A, partner), fn(A, partner)
            assert b1 == b2 and t1 == t2
            assert t1 is not t2 and t1.witnesses is not t2.witnesses

    def test_mutating_a_trace_leaves_later_calls(self, monkeypatch):
        from dataclasses import FrozenInstanceError

        from spectile import enumerate_and_check

        def immutable(value):
            return isinstance(value, int) or (
                isinstance(value, tuple) and all(immutable(v) for v in value)
            )

        # a trace's fields are frozen and its witness values immutable;
        # only the witnesses dict is a call's own
        _, calls = _record_branches(monkeypatch)
        for q in TestBranchCoverage.SWEEPS:
            assert enumerate_and_check(q, shards=1).mismatches == []
        assert calls
        for *_, trace in calls:
            for name in ("theorem", "case", "witnesses"):
                with pytest.raises(FrozenInstanceError):
                    setattr(trace, name, None)
            assert all(immutable(v) for v in trace.witnesses.values()), trace
        A, T, B = self._pairs()
        for fn, partner in ((spectrum_from_tile, T), (complement_from_spectrum, B)):
            _, first = fn(A, partner)
            clean = fn(A, partner)[1]
            first.witnesses["extra"] = 1
            assert fn(A, partner)[1] == clean

    def test_a_failing_build_raises_on_every_call(self, monkeypatch):
        A, T, B = self._pairs()
        monkeypatch.setattr(constructions, "_case3_witness", lambda *a: 1 / 0)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                complement_from_spectrum(A, B)

    def test_each_set_still_checks_the_supplied_spectrum(self):
        # A1 and A2 of one size: A2 must refuse the spectrum of A1 by its
        # own spectral-pair check, against its own zero set
        q = GroupParams(3, 1)
        A1 = make_set(q, [(0, 0), (0, 1), (0, 2)])
        A2 = make_set(q, [(0, 0), (1, 0), (2, 0)])
        B = find_spectrum_bruteforce(A1)
        assert not verify_spectral_pair(A2, B)
        complement_from_spectrum(A1, B)
        with pytest.raises(InvalidInputError) as exc_info:
            complement_from_spectrum(A2, B)
        assert str(exc_info.value) == "supplied spectrum fails the spectral-pair check"

    def test_each_set_still_checks_the_supplied_complement(self):
        # the spectrum_from_tile twin: A2 must refuse the complement of A1
        # by its own tiling check
        q = GroupParams(3, 1)
        A1 = make_set(q, [(0, 0), (0, 1), (0, 2)])
        A2 = make_set(q, [(0, 0), (1, 0), (2, 0)])
        T = find_complement_bruteforce(A1)
        assert not verify_tiling_pair(A2, T)
        spectrum_from_tile(A1, T)
        with pytest.raises(InvalidInputError) as exc_info:
            spectrum_from_tile(A2, T)
        assert str(exc_info.value) == "supplied complement fails the tiling-pair check"

    def test_one_direct_tiling_check_per_stored_partner(self, monkeypatch):
        from spectile import enumerate_and_check, oracle

        calls = []
        real = oracle.tiling_pair_violation

        def counting(A, T):
            calls.append(A.mask)
            return real(A, T)

        monkeypatch.setattr(oracle, "tiling_pair_violation", counting)
        report = enumerate_and_check(GroupParams(5, 1), [5], shards=1)
        assert report.mismatches == []
        assert report.stats["construction"]["lookups"] == 34260
        assert 0 < len(calls) <= report.stats["construction"]["misses"]

    def test_one_construction_call_per_entry(self, monkeypatch):
        # a clean sweep calls each construction once per memo entry whose
        # sets it serves; every later set is one table sum in the sweep
        from spectile import enumerate_and_check

        fired, _ = _record_branches(monkeypatch)
        report = enumerate_and_check(GroupParams(5, 1), [5], shards=1)
        assert report.mismatches == []
        assert len(fired) == report.stats["construction"]["misses"] == 54


class TestTranslateSumCheck:
    # the rule the sweep's round trips rest on, |A||T| = |G| and then the
    # sum of the translates T + a equal to the full mask, against
    # verify_tiling_pair: every set of the matching size against each
    # complement _find_cover returns for one set per (zero profile, size),
    # as the sweep's memo holds them

    @pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (2, 3)])
    def test_agrees_with_the_direct_check(self, p, n):
        from spectile.oracle import _find_cover, _k_subsets

        q = GroupParams(p, n)
        t = group_tables(q)
        firsts = {}
        for k in range(1, q.order + 1):
            if q.order % k == 0:
                for m in _k_subsets(q.order, k, 0, 1):
                    firsts.setdefault(t.profile_key(m) | k, m)
        complements = {_find_cover(t, m) for m in firsts.values()} - {None}
        unsized = 0
        for c in complements:
            T, sums = GroupSet(q, c), t.translate_sums(c)
            size = q.order // T.cardinality

            def summed(m):
                return sum(map(list.__getitem__, sums, m.to_bytes(len(sums), "little")))

            for m in _k_subsets(q.order, size, 0, 1):
                assert (summed(m) == t.full_mask) == verify_tiling_pair(GroupSet(q, m), T)
            # one element more: the sum reaches the full mask on some of these
            # pairs, so only the size test refuses them
            for m in _k_subsets(q.order, size + 1, 0, 1) if size < q.order else ():
                if summed(m) == t.full_mask:
                    unsized += 1
                    assert not verify_tiling_pair(GroupSet(q, m), T)
        assert (unsized > 0) == (q.order > 4)


class TestConstructionDigest:
    # sha256 over the partner and CaseTrace of both constructions on every
    # positive of the sweeps below, each called directly with the partner
    # its sweep memo entry holds, sorted so that visiting order does not
    # matter; any change to a partner mask, a branch or a witness fails
    # here.  The second digest leaves out the supplied partner: one
    # complement per (zero profile, size) on Z5xZ5.
    DIGESTS = {
        (2, 3, None): (
            "5119c42eff8ea7411f0b8234b4fb4c64e70bfec5ce1d09a0a3af845a045b5af8",
            "be8f1e3edef48d45b7dd24c56c74177ebcf63f24b1be58c6523dcc1d41e1e8dc",
        ),
        (5, 1, (5,)): (
            "664c7d6c5244bf03b6fec2356588a6a2b4170efacb5cd0a7ddd23e00a6bafbbd",
            "e1d937f177c351f0202861a3c4324b1859ec27f4a544f47b61a14c7de0afa0f3",
        ),
    }

    @pytest.mark.parametrize("p, n, sizes", list(DIGESTS), ids=["Z2xZ8", "Z5xZ5-size5"])
    def test_partners_and_traces_pinned(self, p, n, sizes, monkeypatch):
        import hashlib
        import json

        from spectile import enumerate_and_check
        from spectile.oracle import _find_clique, _find_cover, _k_subsets

        def row(fn, A, partner, built, trace) -> list:
            return [fn.__name__, A.mask, partner.mask, built.mask,
                    trace.theorem, trace.case, trace.witnesses]

        def text(row: list) -> str:
            return json.dumps(row, sort_keys=True)

        q = GroupParams(p, n)
        t = group_tables(q)
        # each entry's partners as the one-shard sweep finds them: from the
        # first set per (zero profile, size) in colex order
        rows, partners = [], {}
        for k in sizes or range(1, q.order + 1):
            for m in _k_subsets(q.order, k, 0, 1):
                key = t.profile_key(m) | k
                if key not in partners:
                    zmask = zero_set(GroupSet(q, m)).zero_mask()
                    partners[key] = (
                        (_find_cover(t, m) or 0) if q.order % k == 0 else 0,
                        _find_clique(t, zmask, k) or 0,
                    )
                A = GroupSet(q, m)
                for fn, pmask in zip((spectrum_from_tile, complement_from_spectrum),
                                     partners[key]):
                    if pmask:
                        partner = GroupSet(q, pmask)
                        rows.append(row(fn, A, partner, *fn(A, partner)))

        swept = []

        def recording(fn):
            def wrapper(A, partner, **kwargs):
                built, trace = fn(A, partner, **kwargs)
                swept.append(text(row(fn, A, partner, built, trace)))
                return built, trace

            return wrapper

        for name in ("spectrum_from_tile", "complement_from_spectrum"):
            monkeypatch.setattr(constructions, name, recording(getattr(constructions, name)))
        report = enumerate_and_check(q, sizes, shards=1)
        assert report.mismatches == []
        assert report.stats["construction"]["lookups"] == len(rows)
        records = [text(r) for r in rows]
        assert swept and set(swept) <= set(records)
        built_only = [text(r[:2] + r[3:]) for r in rows]
        digests = tuple(hashlib.sha256("\n".join(sorted(r)).encode()).hexdigest()
                        for r in (records, built_only))
        assert digests == self.DIGESTS[p, n, sizes]
