import multiprocessing
import random
import signal
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import (
    CapacityError,
    GroupParams,
    GroupSet,
    ParameterError,
    canonicalize,
    difference_set,
    enumerate_and_check,
    find_complement_bruteforce,
    find_spectrum_bruteforce,
    scale_translate,
    spectral_pair_violation,
    tiling_pair_violation,
    verify_spectral_pair,
    verify_tiling_pair,
    zero_set,
)
from spectile import oracle
from spectile.cli import main
from spectile.group import group_tables
from spectile.oracle import ENUM_SHARD_LIMIT, EnumerationReport, Mismatch

from conftest import SMALL_PARAMS, make_set


def _within(seconds, fn, *args):
    """fn(*args), failing the test if it runs longer than `seconds`."""

    def expire(*_):
        raise AssertionError(f"{fn.__name__} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

P22 = GroupParams(2, 2)


def _burnside_orbits(q: GroupParams) -> list[int]:
    """Orbits of the affine maps e -> a*e + g on the k-subsets, per k.

    By Burnside's lemma: a map whose cycles have lengths l_1, l_2, ...
    fixes as many k-subsets as the z^k coefficient of the product of the
    (1 + z^l_i), and the orbit count is that coefficient averaged over
    the |units| * |G| maps.
    """
    order = q.order
    totals = [0] * (order + 1)
    maps = 0
    for a in q.units():
        for gi in range(order):
            g = q.element_from_index(gi)
            perm = [(q.element_from_index(i).scale(a) + g).index for i in range(order)]
            fixed = [1] + [0] * order
            seen = [False] * order
            for s in range(order):
                length, j = 0, s
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length:
                    fixed = [c + (fixed[k - length] if k >= length else 0)
                             for k, c in enumerate(fixed)]
            totals = [t + f for t, f in zip(totals, fixed)]
            maps += 1
    assert all(t % maps == 0 for t in totals)
    return [t // maps for t in totals]


class TestVerifiers:
    def test_spectral_pair_example(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        B = make_set(P22, [(0, 0), (0, 2)])
        assert verify_spectral_pair(A, B)

    def test_singleton_pair_vacuous(self):
        A = GroupSet.from_indices(P22, [3])
        B = GroupSet.from_indices(P22, [6])
        assert verify_spectral_pair(A, B)

    def test_spectral_pair_negative_with_witness(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        violation = spectral_pair_violation(A, A)
        assert violation == P22.element(0, 1)

    def test_tiling_pair_example(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        T = make_set(P22, [(0, 0), (0, 2), (1, 0), (1, 2)])
        assert verify_tiling_pair(A, T)

    def test_full_group_with_origin(self):
        assert verify_tiling_pair(GroupSet.full(P22), GroupSet.from_indices(P22, [0]))

    def test_tiling_pair_negative_with_witness(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        T = make_set(P22, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert tiling_pair_violation(A, T) == P22.element(0, 1)

    def test_size_product_violation_message(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        T = make_set(P22, [(0, 0)])
        assert "!=" in tiling_pair_violation(A, T)

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_pair_check_symmetry(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        A = GroupSet(q, data.draw(st.integers(0, (1 << q.order) - 1)))
        B = GroupSet(q, data.draw(st.integers(0, (1 << q.order) - 1)))
        assert verify_spectral_pair(A, B) == verify_spectral_pair(B, A)
        assert verify_tiling_pair(A, T=B) == verify_tiling_pair(B, T=A)


class TestBruteForceSearches:
    def test_find_spectrum_example(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        assert find_spectrum_bruteforce(A) == make_set(P22, [(0, 0), (0, 2)])

    def test_find_spectrum_none_for_mixed_size(self):
        q = GroupParams(3, 2)
        A = GroupSet.from_indices(q, range(6))
        assert find_spectrum_bruteforce(A) is None

    def test_find_spectrum_singleton(self):
        A = GroupSet.from_indices(P22, [5])
        assert find_spectrum_bruteforce(A) == GroupSet.from_indices(P22, [0])

    def test_find_complement_example(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        T = find_complement_bruteforce(A)
        assert T == make_set(P22, [(0, 0), (0, 2), (1, 0), (1, 2)])

    def test_find_complement_size_obstruction(self):
        A = GroupSet.from_indices(P22, [0, 1, 2])
        assert find_complement_bruteforce(A) is None

    def test_find_complement_full_group(self):
        assert find_complement_bruteforce(GroupSet.full(P22)) == GroupSet.from_indices(P22, [0])

    @pytest.mark.parametrize(
        "q", [q for q in SMALL_PARAMS if q.order <= 16], ids=lambda q: f"p{q.p}n{q.n}"
    )
    def test_complement_shared_by_zero_profile_and_size(self, q):
        # A tiles with T exactly when |A||T| = |G| and Z(A) and Z(T) hold
        # every nonzero character between them, so the sets with one zero
        # profile and size all tile or none does, and one complement serves
        # them all: the sweep's memo hands out one complement per entry
        groups: dict[tuple[int, int], list[GroupSet]] = {}
        for mask in range(1, 1 << q.order):
            k = mask.bit_count()
            if q.order % k == 0:
                A = GroupSet(q, mask)
                groups.setdefault((zero_set(A).key(), k), []).append(A)
        for sets in groups.values():
            complements = [find_complement_bruteforce(A) for A in sets]
            assert len({T is None for T in complements}) == 1
            if complements[0] is not None:
                assert all(verify_tiling_pair(A, complements[0]) for A in sets)

    @pytest.mark.parametrize(
        "q", [GroupParams(2, 1), GroupParams(3, 1), P22], ids=lambda q: f"p{q.p}n{q.n}"
    )
    def test_complement_matches_independent_scan(self, q):
        # independent scan over every T containing 0 of size |G| / |A|
        for mask in range(1 << q.order):
            A = GroupSet(q, mask)
            exists = False
            if A.cardinality and q.order % A.cardinality == 0:
                k = q.order // A.cardinality
                exists = any(
                    verify_tiling_pair(A, GroupSet.from_indices(q, (0,) + rest))
                    for rest in combinations(range(1, q.order), k - 1)
                )
            T = find_complement_bruteforce(A)
            if exists:
                assert T is not None and q.zero() in T and verify_tiling_pair(A, T), mask
            else:
                assert T is None, mask

    # sha256 over "mask complement" lines, -1 for no complement, in
    # ascending mask order: the search's first solution on every mask of
    # a size dividing the order, and on every 5-subset of Z5xZ5.  Any
    # change to the first-fail cell, its tie-break or the candidate
    # order moves some complement and fails here.
    SEARCH_DIGESTS = {
        (2, 2, None): "a3b2b2d4e7fc99086d70b4a421d5309c30be147d730363a624121808a1b527fa",
        (3, 1, None): "a366717b58c5e1807d1d378a92c6b435f12ab5c3f1d27a2b325c475922d50673",
        (2, 3, None): "af6f4e4b94e46c3b0f3d7de7713740da4513a5cf1e94e76f1d0180f252621f02",
        (5, 1, 5): "cab580eed5c8fd35450962566f132208012c36bdd649520536b4fc6857759a83",
    }

    @pytest.mark.parametrize(
        "p, n, size", list(SEARCH_DIGESTS), ids=["Z2xZ4", "Z3xZ3", "Z2xZ8", "Z5xZ5-size5"]
    )
    def test_complement_search_first_solutions_pinned(self, p, n, size):
        import hashlib

        q = GroupParams(p, n)
        if size is None:
            masks = [m for m in range(1, 1 << q.order) if q.order % m.bit_count() == 0]
        else:
            masks = sorted(sum(1 << i for i in c) for c in combinations(range(q.order), size))
        lines = []
        for mask in masks:
            T = find_complement_bruteforce(GroupSet(q, mask))
            lines.append(f"{mask} {-1 if T is None else T.mask}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.SEARCH_DIGESTS[p, n, size]

    def test_complement_search_prunes_dead_cells(self):
        # A non-tile whose differences leave (0, 3) uncoverable: an exact
        # cover fails at once; a clique search on G minus A - A, which lacks
        # that pruning, ran past 5 s on it
        q = GroupParams(2, 6)
        A = GroupSet.from_elements(q, [q.element(0, y) for y in (0, 1, 2, 4)])
        assert _within(5.0, find_complement_bruteforce, A) is None

    def test_complement_search_order_256_tile(self):
        q = GroupParams(2, 7)
        A = GroupSet.from_elements(q, [q.element(x, y) for x, y in ((0, 0), (1, 1), (1, 2), (1, 3))])
        T = _within(5.0, find_complement_bruteforce, A)
        assert T is not None and verify_tiling_pair(A, T)

    def test_searches_deeper_than_the_recursion_limit(self, tmp_path):
        # order 2048: the singleton's complement takes 2047 picks and the
        # axis's spectrum 1023, past the interpreter's default recursion limit
        q = GroupParams(2, 10)
        single = GroupSet.from_indices(q, [0])
        assert _within(10.0, find_complement_bruteforce, single) == GroupSet.full(q)
        axis = make_set(q, [(0, y) for y in range(q.pn)])
        B = _within(10.0, find_spectrum_bruteforce, axis)
        assert B is not None and verify_spectral_pair(axis, B)
        path = tmp_path / "single.txt"
        path.write_text("2 10\n0 0\n", encoding="utf-8")
        assert _within(10.0, main, ["search", str(path), "--mode", "tiling"]) == 0

    def test_spectrum_search_memory_is_its_stack(self):
        # {0,1} x {0,1,2} has no spectrum of size 6, so the clique search
        # visits every vertex of its zero set at order 8192; its stack holds
        # at most 6 bitmaps of 1 KB, where a neighbour bitmap kept per
        # vertex would reach a 4.9 MB peak
        q = GroupParams(2, 12)
        A = make_set(q, [(x, y) for x in (0, 1) for y in (0, 1, 2)])
        tracemalloc.start()
        try:
            assert find_spectrum_bruteforce(A) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_spectrum_search_keeps_chosen_vertices_as_indices(self):
        # the subgroup {(0, 2y)} of order 4096 in Z2 x Z_{2^13} has a clique
        # of 4096 vertices; its stack holds one candidate bitmap and one
        # index per depth, where a 2 KB bitmap kept per chosen vertex as
        # well peaked at 18.3 MB
        q = GroupParams(2, 13)
        A = make_set(q, [(0, 2 * y) for y in range(q.pn // 2)])
        tracemalloc.start()
        try:
            B = find_spectrum_bruteforce(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert B is not None and verify_spectral_pair(A, B)
        assert peak < 12_000_000

    def test_complement_search_keeps_one_cover(self):
        # a singleton's cover picks all 8192 translates at order 8192; one
        # running cover bitmap undone by XOR stays under the bound, where
        # a cover bitmap per stack frame reached 15.7 MB
        q = GroupParams(2, 12)
        A = GroupSet.from_indices(q, [5])
        tracemalloc.start()
        try:
            T = find_complement_bruteforce(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T == GroupSet.full(q)
        assert peak < 10_000_000

    def test_complement_search_keeps_only_its_stack(self):
        # order 16384: the singleton's 16384 picks leave one frame each on
        # the stack and nothing per offset; a whole-group translate cached
        # per offset peaked at 21.3 MB here
        q = GroupParams(2, 13)
        A = GroupSet.from_indices(q, [0])
        tracemalloc.start()
        try:
            T = find_complement_bruteforce(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T == GroupSet.full(q)
        assert peak < 5_000_000

    def test_empty_set_has_no_partners(self):
        E = GroupSet.empty(P22)
        assert find_spectrum_bruteforce(E) is None
        assert find_complement_bruteforce(E) is None

    def test_capacity_cap(self):
        q = GroupParams(2, 16)  # order 2^17 exceeds the per-set oracle cap
        A = GroupSet.from_indices(q, [0])
        with pytest.raises(CapacityError):
            find_spectrum_bruteforce(A)
        with pytest.raises(CapacityError):
            find_complement_bruteforce(A)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_found_partners_verify(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        A = GroupSet(q, data.draw(st.integers(1, (1 << q.order) - 1)))
        B = find_spectrum_bruteforce(A)
        if B is not None:
            assert verify_spectral_pair(A, B)
            assert B.cardinality == A.cardinality
        T = find_complement_bruteforce(A)
        if T is not None:
            assert verify_tiling_pair(A, T)
            assert A.cardinality * T.cardinality == q.order
            if 1 < A.cardinality < q.order:
                assert not zero_set(A).is_empty()
                assert not zero_set(T).is_empty()

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_orbit_invariance_of_verdicts(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS[:4]))
        A = GroupSet(q, data.draw(st.integers(1, (1 << q.order) - 1)))
        a = data.draw(st.sampled_from(q.units()))
        g = q.element_from_index(data.draw(st.integers(0, q.order - 1)))
        A2 = scale_translate(A, a, g)
        assert (find_spectrum_bruteforce(A) is None) == (find_spectrum_bruteforce(A2) is None)
        assert (find_complement_bruteforce(A) is None) == (find_complement_bruteforce(A2) is None)


class TestCanonicalize:
    def test_idempotent(self, small_params):
        q = small_params
        A = GroupSet(q, 0b1101 % (1 << q.order) | 1)
        assert canonicalize(canonicalize(A)) == canonicalize(A)

    def test_example_translation(self):
        A = make_set(P22, [(1, 2), (1, 3)])
        assert canonicalize(A) == make_set(P22, [(0, 0), (0, 1)])

    def test_full_group_fixed(self, small_params):
        q = small_params
        assert canonicalize(GroupSet.full(q)) == GroupSet.full(q)

    @pytest.mark.parametrize("q", [P22, GroupParams(3, 1)], ids=lambda q: f"p{q.p}n{q.n}")
    def test_sweep_filter_matches_canonicalize(self, q):
        # the sweep keeps a mask exactly when it is its own canonical form
        t = group_tables(q)
        for mask in range(1 << q.order):
            kept = oracle._orbit_min(t, t.orbit_tables, mask, True) == mask
            assert kept == (canonicalize(GroupSet(q, mask)).mask == mask), mask

    @pytest.mark.parametrize(
        "q",
        [GroupParams(2, 3), GroupParams(3, 2), GroupParams(5, 1), GroupParams(2, 4)],
        ids=lambda q: f"p{q.p}n{q.n}",
    )
    def test_orbit_min_matches_scale_translate(self, q):
        # the reference: every image a*A + g, one scale_translate each
        t = group_tables(q)
        order, pn = q.order, q.pn
        full = (1 << order) - 1
        on_y0 = sum(1 << x * pn for x in range(q.p))
        on_x0 = (1 << pn) - 1
        rng = random.Random(order)
        masks = [0, full, full ^ on_y0, full ^ on_x0]
        for _ in range(8):
            masks.append(rng.getrandbits(order) & ~on_y0)  # fails the y = 0 test
            masks.append(rng.getrandbits(order) & ~on_x0 | 1 << pn)  # only the x = 0 test
            masks.append(sum(1 << i for i in rng.sample(range(order), rng.randrange(1, order))))
        masks.extend(canonicalize(GroupSet(q, m)).mask for m in masks[4:10])
        for mask in masks:
            A = GroupSet(q, mask)
            orbit = {
                scale_translate(A, a, q.element_from_index(g)).mask
                for a in q.units()
                for g in range(order)
            }
            least = min(orbit)
            assert oracle._orbit_min(t, t.orbit_tables, mask, False) == least, mask
            below = oracle._orbit_min(t, t.orbit_tables, mask, True)
            if mask == least:
                assert below == mask
            else:
                assert below in orbit and below < mask, mask

    def test_canonicalize_refuses_order_above_the_sweep_cap(self, monkeypatch):
        def no_tables(params):
            raise AssertionError("group tables were built")

        monkeypatch.setattr(oracle, "group_tables", no_tables)
        A = GroupSet(GroupParams(2, 5), 0b11)
        with pytest.raises(CapacityError) as info:
            canonicalize(A)
        assert str(info.value) == "canonicalize capped at order 32; got 64"

    def test_constant_on_orbit(self):
        q = GroupParams(3, 1)
        A = make_set(q, [(0, 0), (1, 2), (2, 1)])
        canon = canonicalize(A)
        for a in q.units():
            for gi in range(q.order):
                img = scale_translate(A, a, q.element_from_index(gi))
                assert canonicalize(img) == canon


class TestEnumerate:
    def test_z2z2_counts_match_known_values(self):
        report = enumerate_and_check(GroupParams(2, 1))
        assert report.subsets_examined == 16
        assert report.tiles == 11
        assert report.spectral == 11
        assert report.mismatches == []

    def test_z2z4_clean(self):
        report = enumerate_and_check(P22)
        assert report.subsets_examined == 256
        assert report.tiles == report.spectral == 75
        assert report.mismatches == []

    def test_z3z3_clean(self):
        report = enumerate_and_check(GroupParams(3, 1))
        assert report.subsets_examined == 512
        assert report.tiles == report.spectral == 94
        assert report.mismatches == []

    def test_shard_reports_byte_identical(self):
        reports = [enumerate_and_check(P22, shards=s) for s in (1, 2, 4)]
        assert reports[0].canonical_json() == reports[1].canonical_json()
        assert reports[0].canonical_json() == reports[2].canonical_json()

    @pytest.mark.parametrize("block", [1, 3, oracle._SHARD_BLOCK])
    @pytest.mark.parametrize("q", [P22, GroupParams(3, 1)], ids=lambda q: f"p{q.p}n{q.n}")
    def test_k_subsets_visit_every_subset_once(self, q, block, monkeypatch):
        # the shards' blocks of colex ranks together hold every k-subset
        # exactly once, whatever the shard count and block size
        monkeypatch.setattr(oracle, "_SHARD_BLOCK", block)
        order = q.order
        for k in (0, 1, 2, order // 2, order - 1, order):
            expected = sorted(sum(1 << i for i in c) for c in combinations(range(order), k))
            for shards in (1, 2, 3, len(expected) + 2):
                masks = [
                    m for i in range(shards) for m in oracle._k_subsets(order, k, i, shards)
                ]
                assert len(masks) == len(expected), (k, shards)
                assert sorted(masks) == expected, (k, shards)

    @pytest.mark.parametrize(
        "q, sizes, canonical",
        [
            (GroupParams(3, 1), [0, 9], False),
            (GroupParams(2, 3), [0, 1, 8], False),
            (P22, None, False),
            (P22, None, True),
            (GroupParams(2, 3), None, False),
            (GroupParams(2, 3), None, True),
        ],
        ids=["z3z3", "z2z8", "z2z4-full-plain", "z2z4-full-canonical",
             "z2z8-full-plain", "z2z8-full-canonical"],
    )
    def test_size_filtered_shard_reports_byte_identical(self, q, sizes, canonical):
        # a full sweep (sizes None) is dealt like the sweep over every size:
        # the blocks of the sizes in turn go round-robin to the 3 shards
        reports = [
            enumerate_and_check(q, size_filter=sizes, use_canonical=canonical, shards=s)
            for s in (1, 2, 3)
        ]
        shard_sizes = [0, 0, 0]
        first = 0
        for k in range(q.order + 1) if sizes is None else sizes:
            for i in range(3):
                shard_sizes[(first + i) % 3] += sum(1 for _ in oracle._k_subsets(q.order, k, i, 3))
            first += -(-comb(q.order, k) // oracle._SHARD_BLOCK)
        assert [n for n, _ in reports[2].shard_stats] == shard_sizes
        for r in reports[1:]:
            assert r.canonical_json() == reports[0].canonical_json()
            for memo in ("spectral", "tile"):
                assert r.stats[memo]["lookups"] == reports[0].stats[memo]["lookups"]

    @pytest.mark.parametrize("canonical", [False, True], ids=["plain", "canonical"])
    @pytest.mark.parametrize("q", [P22, GroupParams(2, 3)], ids=["z2z4", "z2z8"])
    def test_full_sweep_is_the_sweep_over_every_size(self, q, canonical):
        full = enumerate_and_check(q, use_canonical=canonical)
        every = enumerate_and_check(q, size_filter=range(q.order + 1), use_canonical=canonical)
        assert full.size_filter is None
        assert every.size_filter == tuple(range(q.order + 1))
        for name in ("subsets_examined", "orbits_examined", "tiles", "spectral", "mismatches",
                     "stats"):
            assert getattr(full, name) == getattr(every, name), name

    def test_size_filter_counts(self):
        q = GroupParams(3, 1)
        report = enumerate_and_check(q, size_filter=[3, 6])
        assert report.size_filter == (3, 6)
        assert report.subsets_examined == 84 + 84
        assert report.tiles == report.spectral == 84
        assert report.mismatches == []

    def test_empty_size_filter_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_and_check(GroupParams(3, 1), size_filter=[])

    def test_canonical_mode(self):
        report = enumerate_and_check(P22, use_canonical=True)
        assert report.orbits_examined == sum(_burnside_orbits(P22)) == 34
        assert report.tiles == report.spectral == 15
        assert report.mismatches == []

    @pytest.mark.parametrize(
        "q, sizes",
        [
            (GroupParams(2, 3), None),
            (GroupParams(5, 1), (5,)),
            (GroupParams(3, 2), (3, 24)),
            (GroupParams(3, 2), (3, 6, 21, 24)),
        ],
        ids=["z2z8-full", "z5z5-5", "z3z9-3-24", "z3z9-3-6-21-24"],
    )
    def test_canonical_orbit_counts_match_burnside(self, q, sizes):
        report = enumerate_and_check(q, size_filter=sizes, use_canonical=True)
        per_size = _burnside_orbits(q)
        expected = sum(per_size if sizes is None else (per_size[k] for k in sizes))
        assert report.orbits_examined == expected
        assert report.mismatches == []

    def test_canonical_shard_determinism(self):
        r1 = enumerate_and_check(P22, use_canonical=True, shards=1)
        r3 = enumerate_and_check(P22, use_canonical=True, shards=3)
        assert r1.canonical_json() == r3.canonical_json()

    def test_full_sweep_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_and_check(GroupParams(2, 4))  # order 32 > 27 without filter

    def test_filtered_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_and_check(GroupParams(2, 5), size_filter=[2])  # order 64 > 32

    def test_memo_stats(self):
        report = enumerate_and_check(GroupParams(5, 1), size_filter=[5], shards=1)
        # one complement search per memo entry whose size divides |G|: all
        # of them here.  A round trip per tile and per spectral set, and one
        # partner built per construction for each of the 27 entries whose
        # sets tile
        assert report.stats == {
            "spectral": {"lookups": 53130, "misses": 28},
            "tile": {"lookups": 53130, "misses": report.stats["spectral"]["misses"]},
            "construction": {"lookups": 2 * 17130, "misses": 2 * 27},
        }
        assert report.tiles == report.spectral == 17130
        assert report.mismatches == []
        payload = report.canonical_dict()
        assert set(payload) == {
            "p", "n", "size_filter", "subsets_examined", "orbits_examined",
            "tiles", "spectral", "mismatches",
        }
        assert "lookups" not in report.canonical_json()

    def test_memo_lookups_sum_over_shards(self):
        # each subset is looked up in exactly one shard; misses may repeat
        r1 = enumerate_and_check(P22, shards=1)
        r3 = enumerate_and_check(P22, shards=3)
        for memo in ("spectral", "tile", "construction"):
            assert r1.stats[memo]["lookups"] == r3.stats[memo]["lookups"]
            assert r1.stats[memo]["misses"] <= r3.stats[memo]["misses"]
        # nonempty subsets, those whose size divides the order, and the
        # round trips: one per tile and one per spectral set
        assert r1.stats["spectral"]["lookups"] == 255
        assert r1.stats["tile"]["lookups"] == 8 + 70 + 28 + 1
        assert r1.stats["construction"]["lookups"] == r1.tiles + r1.spectral

    def test_shard_count_capacity(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with pytest.raises(CapacityError):
            enumerate_and_check(P22, shards=ENUM_SHARD_LIMIT + 1)
        with pytest.raises(CapacityError):
            enumerate_and_check(P22, shards=10**12)

    def test_wall_time_not_in_canonical_report(self):
        report = enumerate_and_check(GroupParams(2, 1))
        assert report.wall_time > 0
        assert "wall" not in report.canonical_json()

    def test_mismatch_serialization_embeds_set_text(self):
        # fabricated mismatches exercise the canonical embedding
        report = EnumerationReport(
            params=P22,
            size_filter=None,
            subsets_examined=0,
            orbits_examined=None,
            tiles=0,
            spectral=0,
            mismatches=[Mismatch("divisibility", 0b11, 2, "a")],
            wall_time=1.0,
        )
        text = report.canonical_json()
        assert '"divisibility"' in text
        assert "2 2\\n0 0\\n0 1\\n" in text


def _mixed(q, k):
    # k = m * p^s with 2 <= m <= p - 1: no spectrum of size k exists
    return any(k == m * q.p**s for m in range(2, q.p) for s in range(q.n + 2))


class TestSweepFaultInjection:
    # Each per-subset check fires when a fault is injected under it: the
    # expected counts follow from comb() or the uninjected sweep alone.
    GROUPS = [GroupParams(2, 1), GroupParams(3, 1), P22]

    @staticmethod
    def _sweep(q):
        # the injected report, the same at 1 and 2 shards
        reports = [enumerate_and_check(q, shards=s) for s in (1, 2)]
        assert reports[0].canonical_json() == reports[1].canonical_json()
        return reports[0]

    @staticmethod
    def _kinds(report, kind):
        return [mm for mm in report.mismatches if mm.kind == kind]

    @pytest.mark.parametrize("q", GROUPS, ids=lambda q: f"p{q.p}n{q.n}")
    def test_forced_divisor(self, q, monkeypatch):
        monkeypatch.setattr(oracle, "divisibility_exponent", lambda profile: 3)
        report = self._sweep(q)
        d = q.p**3
        found = self._kinds(report, "divisibility")
        assert len(found) == len(report.mismatches)
        assert len(found) == sum(comb(q.order, k) for k in range(1, q.order + 1) if k % d)
        for mm in found:
            assert mm.size % d and mm.detail == f"certified divisor {d} does not divide {mm.size}"

    @pytest.mark.parametrize("q", GROUPS, ids=lambda q: f"p{q.p}n{q.n}")
    def test_clique_for_every_subset(self, q, monkeypatch):
        monkeypatch.setattr(oracle, "_find_clique", lambda t, zmask, k: (1 << k) - 1)
        report = self._sweep(q)
        sizes = range(1, q.order + 1)
        assert report.spectral == 2**q.order - 1
        witness = self._kinds(report, "witness")
        assert len(witness) == sum(comb(q.order, k) for k in sizes if _mixed(q, k))
        assert all(_mixed(q, mm.size) for mm in witness)
        pigeonhole = self._kinds(report, "pigeonhole")
        assert len(pigeonhole) == sum(comb(q.order, k) for k in sizes if q.pn < k < q.order)
        assert all(q.pn < mm.size < q.order for mm in pigeonhole)

    @pytest.mark.parametrize("q", GROUPS, ids=lambda q: f"p{q.p}n{q.n}")
    def test_no_cover_found(self, q, monkeypatch):
        clean = enumerate_and_check(q)
        monkeypatch.setattr(oracle, "_find_cover", lambda t, mask: None)
        report = self._sweep(q)
        assert report.tiles == 0 and report.spectral == clean.spectral
        assert len(report.mismatches) == clean.spectral
        assert {(mm.kind, mm.detail) for mm in report.mismatches} == {
            ("theorem", "tile=False but spectral=True")
        }

    @pytest.mark.parametrize("q", GROUPS, ids=lambda q: f"p{q.p}n{q.n}")
    def test_wrong_complement_for_every_subset(self, q, monkeypatch):
        # {0} tiles only G: each subset's own round trip must refuse the
        # complement its memo entry hands out
        clean = enumerate_and_check(q)
        assert clean.mismatches == []  # so every spectral set has a size dividing |G|
        monkeypatch.setattr(oracle, "_find_cover", lambda t, mask: 1)
        report = self._sweep(q)
        sizes = [k for k in range(1, q.order + 1) if q.order % k == 0]
        construction = self._kinds(report, "construction")
        assert len(construction) == sum(comb(q.order, k) for k in sizes if k < q.order)
        assert {mm.detail for mm in construction} == {
            "spectrum_from_tile: InvalidInputError: "
            "supplied complement fails the tiling-pair check"
        }
        theorem = self._kinds(report, "theorem")
        assert len(theorem) == sum(comb(q.order, k) for k in sizes) - clean.spectral
        assert {mm.detail for mm in theorem} <= {"tile=True but spectral=False"}
        assert len(report.mismatches) == len(construction) + len(theorem)

    def test_built_complement_checked_per_subset(self, monkeypatch):
        # every size-p construction builds the y-axis T0, which tiles exactly
        # the sets with one element per x.  Against a fixed T0 the verdict
        # follows from the zero profile and size, so a memo entry's sets are
        # refused all together; the partner built for its first set is
        # stored, and each later set's own tiling check must refuse it again
        from spectile import constructions

        q = GroupParams(3, 1)
        T0 = make_set(q, [(0, y) for y in range(q.pn)])
        monkeypatch.setattr(
            constructions, "_complement_size_p",
            lambda params, profile: (T0, constructions.CaseTrace("S2T-p", "Case1")),
        )
        report = self._sweep(q)
        subsets = [GroupSet.from_indices(q, c) for c in combinations(range(q.order), q.p)]
        spectral = [A for A in subsets if find_spectrum_bruteforce(A) is not None]
        refused = {A.mask for A in spectral if not verify_tiling_pair(A, T0)}
        entries: dict[int, list[int]] = {}  # zero profile -> its refused sets
        for A in spectral:
            if A.mask in refused:
                entries.setdefault(zero_set(A).key(), []).append(A.mask)
        assert len(refused) > len(entries) > 0
        assert {mm.kind for mm in report.mismatches} == {"construction"}
        assert sorted(mm.mask for mm in report.mismatches) == sorted(refused)
        assert {mm.detail for mm in report.mismatches} == {
            "complement_from_spectrum: InvalidInputError: S2T-p Case1: constructed "
            "complement failed verification; the input is not the spectral set it "
            "was claimed to be"
        }


def test_zero_cover_check_fires(monkeypatch):
    # complement_from_spectrum hands back {0} with its real trace.  Z({0})
    # is empty, so the only spectral set whose zero set covers alone is G
    # itself: every other one is a zero-cover mismatch, and nothing else is
    from spectile import constructions

    clean = enumerate_and_check(P22)
    real = constructions.complement_from_spectrum

    def origin_only(A, B=None, **kwargs):
        _, trace = real(A, B, **kwargs)
        return GroupSet(A.params, 1), trace

    monkeypatch.setattr(constructions, "complement_from_spectrum", origin_only)
    reports = [enumerate_and_check(P22, shards=s) for s in (1, 2)]
    assert reports[0].canonical_json() == reports[1].canonical_json()
    report = reports[0]
    assert len(report.mismatches) == clean.spectral - 1 == 74
    assert {(mm.kind, mm.detail) for mm in report.mismatches} == {
        ("zero-cover", "zero sets of tiling pair do not cover")
    }
    assert (1 << P22.order) - 1 not in {mm.mask for mm in report.mismatches}
