import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import (
    CyclotomicInt,
    GroupParams,
    GroupSet,
    canonical_rep,
    char_value_exact,
    character_table,
    compare_zero_tests,
    inversion_check,
    is_zero_equidist,
    rep_label,
    scale_translate,
    valuation,
    zero_set,
)
from spectile.charsum import ZeroProfile
from spectile.group import group_tables

from conftest import SMALL_PARAMS, make_set

P22 = GroupParams(2, 2)


class TestIsZeroEquidist:
    def test_examples(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        assert is_zero_equidist(A, P22.element(0, 2)) is True
        assert is_zero_equidist(A, P22.element(0, 1)) is False
        assert is_zero_equidist(A, P22.zero()) is False

    def test_empty_set_everywhere_zero(self):
        E = GroupSet.empty(P22)
        assert all(is_zero_equidist(E, u) for u in P22.elements())


class TestCyclotomic:
    def test_empty_sum_is_zero(self):
        A = GroupSet.empty(P22)
        assert char_value_exact(A, P22.element(1, 1)).is_zero()

    def test_one_plus_zeta_in_degree_one(self):
        # zeta = -1 for p=2, n=1, so 1 + zeta reduces to the zero vector
        q = GroupParams(2, 1)
        A = make_set(q, [(0, 0), (0, 1)])
        assert char_value_exact(A, q.element(0, 1)).is_zero()

    def test_one_plus_zeta_fourth_root(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        val = char_value_exact(A, P22.element(0, 1))
        assert val.coefficients == (1, 1)
        assert not val.is_zero()

    def test_root_power_wraps(self):
        # zeta^4 = 1 in Z[zeta_4]
        assert CyclotomicInt.root_power(2, 2, 4) == CyclotomicInt.constant(2, 2, 1)

    def test_times_root_power_is_repeated_addition(self):
        x = CyclotomicInt.root_power(3, 2, 5) + CyclotomicInt.root_power(3, 2, 1)
        y = x.times_root_power(7).times_root_power(2)
        assert y == x.times_root_power(9)

    def test_oracle_agreement_exhaustive_small(self):
        # every subset and every u in Z_2 x Z_2 and Z_2 x Z_4
        for q in (GroupParams(2, 1), P22):
            for mask in range(1 << q.order):
                A = GroupSet(q, mask)
                for u in q.elements():
                    assert is_zero_equidist(A, u) == char_value_exact(A, u).is_zero()

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_oracle_agreement_sampled(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        A = GroupSet(q, data.draw(st.integers(0, (1 << q.order) - 1)))
        u = q.element_from_index(data.draw(st.integers(0, q.order - 1)))
        assert is_zero_equidist(A, u) == char_value_exact(A, u).is_zero()


class TestZeroSet:
    def test_example_pair_set(self):
        A = make_set(P22, [(0, 0), (0, 1)])
        prof = zero_set(A)
        assert [rep_label(2, rid) for rid in prof.rep_ids()] == ["(0,p^1)", "(1,p^1)"]
        assert prof.I == frozenset({1})
        assert prof.has_unit_axis is False

    def test_profile_holds_only_its_bits(self):
        # a profile is a value: nothing a construction or a sweep derives
        # from it is kept on it
        import dataclasses

        assert [f.name for f in dataclasses.fields(ZeroProfile)] == ["params", "bits"]

    def test_full_group_has_all_classes(self, small_params):
        q = small_params
        prof = zero_set(GroupSet.full(q))
        assert prof.rep_ids() == list(range(1 + q.p * q.n))

    def test_singleton_empty_profile(self, small_params):
        q = small_params
        prof = zero_set(GroupSet.from_indices(q, [q.order // 2]))
        assert prof.is_empty()

    def test_reps_match_elementwise_scan(self, small_params):
        # the class-representative shortcut agrees with testing every element
        q = small_params
        for mask in (0b110110, 0b1011, (1 << q.order) - 1):
            A = GroupSet(q, mask & ((1 << q.order) - 1))
            prof = zero_set(A)
            expected = {
                canonical_rep(u)
                for u in q.elements()
                if not u.is_zero() and is_zero_equidist(A, u)
            }
            assert prof.rep_ids() == sorted(expected)

    def test_profile_key_round_trip(self, small_params):
        q = small_params
        t = group_tables(q)
        for mask in range(0, 1 << q.order, max(1, (1 << q.order) // 257)):
            prof = zero_set(GroupSet(q, mask))
            key = t.rep_bits(t.profile_key(mask))
            assert ZeroProfile(q, key).rep_ids() == prof.rep_ids()
            assert prof.key() == key

    @pytest.mark.parametrize(
        "q",
        [GroupParams(2, 1), GroupParams(3, 1), GroupParams(2, 2), GroupParams(2, 3)],
        ids=lambda q: f"p{q.p}n{q.n}",
    )
    def test_profile_key_matches_zero_set_on_every_mask(self, q):
        # the sweep hands ZeroProfile(q, rep_bits(profile_key(mask))) to the
        # constructions in place of zero_set, so the two must agree everywhere
        t = group_tables(q)
        for mask in range(1 << q.order):
            assert t.rep_bits(t.profile_key(mask)) == zero_set(GroupSet(q, mask)).key(), mask

    @pytest.mark.parametrize(
        "q", [GroupParams(2, 1), GroupParams(2, 2), GroupParams(3, 1)], ids=lambda q: f"p{q.p}n{q.n}"
    )
    def test_profile_key_leaves_room_for_the_size(self, q):
        # the sweep's memo key is profile_key(mask) | k with k <= 32 < 2^7
        t = group_tables(q)
        for mask in range(1 << q.order):
            assert t.profile_key(mask) & 127 == 0, mask

    @pytest.mark.parametrize("q, pairs", [(GroupParams(2, 1), None), (GroupParams(2, 3), 20000)],
                             ids=["p2n1", "p2n3"])
    def test_zero_cover_is_one_and(self, q, pairs):
        # Z(A) and Z(T) hold every class together iff no guard bit is set
        # in both keys, and per class the AND keeps the classes outside
        # both.  Every pair of Z2xZ2; seeded pairs of Z2xZ8 with sizes
        # dividing the order, so that some cover
        t = group_tables(q)
        every = (1 << t.rep_count) - 1
        if pairs is None:
            masks = [(a, b) for a in range(1 << q.order) for b in range(1 << q.order)]
        else:
            rng = random.Random(q.order)

            def draw():
                return sum(1 << i for i in rng.sample(range(q.order), rng.choice((2, 4, 8))))

            masks = [(draw(), draw()) for _ in range(pairs)]
        covers = 0
        for a, b in masks:
            za, zb = (zero_set(GroupSet(q, m)).key() for m in (a, b))
            both = t.profile_key(a) & t.profile_key(b)
            assert (both == 0) == (za | zb == every), (a, b)
            assert t.rep_bits(both) == za | zb, (a, b)
            covers += both == 0
        assert covers > 0

    @pytest.mark.parametrize("q", [GroupParams(2, 2), GroupParams(3, 1)], ids=lambda q: f"p{q.p}n{q.n}")
    def test_reps_round_trip_in_report_order(self, q):
        # analyze prints rep_ids(): (1,0) first, then (c, p^i) by (i, c),
        # read here from the coordinates of each class's representative
        rep_elem_index = group_tables(q).rep_elem_index

        def report_key(rid):
            x, y = divmod(rep_elem_index[rid], q.pn)
            return (0, 0, 0) if y == 0 else (1, valuation(y, q.p, q.n), x)

        for mask in range(1 << q.order):
            prof = zero_set(GroupSet(q, mask))
            rids = prof.rep_ids()
            assert ZeroProfile(q, sum(1 << rid for rid in rids)) == prof, mask
            assert rids == sorted(rids, key=report_key), mask

    @pytest.mark.parametrize(
        "q",
        [GroupParams(3, 2), GroupParams(5, 1), GroupParams(2, 4)],
        ids=lambda q: f"p{q.p}n{q.n}",
    )
    def test_profile_key_matches_zero_set_on_seeded_masks(self, q):
        # the largest sweeps: every size, random subsets of it
        rng = random.Random(q.order)
        t = group_tables(q)
        for _ in range(3000):
            k = rng.randrange(q.order + 1)
            mask = sum(1 << i for i in rng.sample(range(q.order), k))
            assert t.rep_bits(t.profile_key(mask)) == zero_set(GroupSet(q, mask)).key(), mask

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_unit_orbit_closure(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        A = GroupSet(q, data.draw(st.integers(0, (1 << q.order) - 1)))
        u = q.element_from_index(data.draw(st.integers(1, q.order - 1)))
        s = data.draw(st.sampled_from(q.units()))
        if is_zero_equidist(A, u):
            assert is_zero_equidist(A, u.scale(s))

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_translation_invariance(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        A = GroupSet(q, data.draw(st.integers(0, (1 << q.order) - 1)))
        g = q.element_from_index(data.draw(st.integers(0, q.order - 1)))
        assert zero_set(scale_translate(A, 1, g)).rep_ids() == zero_set(A).rep_ids()

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_scaling_action(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        A = GroupSet(q, data.draw(st.integers(0, (1 << q.order) - 1)))
        a = data.draw(st.sampled_from(q.units()))
        scaled = zero_set(scale_translate(A, a, q.zero())).rep_ids()
        ainv = pow(a, -1, q.pn)
        rep_elem_index = group_tables(q).rep_elem_index
        image = {
            canonical_rep(q.element_from_index(rep_elem_index[rid]).scale(ainv))
            for rid in zero_set(A).rep_ids()
        }
        assert scaled == sorted(image)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_complement_duality(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        A = GroupSet(q, data.draw(st.integers(0, (1 << q.order) - 1)))
        comp = GroupSet(q, A.mask ^ ((1 << q.order) - 1))
        u = q.element_from_index(data.draw(st.integers(1, q.order - 1)))
        assert is_zero_equidist(A, u) == is_zero_equidist(comp, u)


class TestInversion:
    def test_empty_set(self):
        assert inversion_check(GroupSet.empty(P22)) is True

    def test_all_subsets_of_z2z4(self):
        for mask in range(256):
            assert inversion_check(GroupSet(P22, mask)) is True

    def test_corrupted_table_detected(self):
        A = make_set(P22, [(0, 0), (0, 1), (1, 2)])
        table = list(character_table(A))
        table[5] = table[5] + CyclotomicInt.constant(2, 2, 1)
        assert inversion_check(A, tuple(table)) is False


class TestCompareZeroTests:
    def test_zero_trials(self):
        result = compare_zero_tests(P22, 0, seed=1)
        assert result.ok and result.trials == 0

    def test_seeded_run_is_reproducible(self):
        a = compare_zero_tests(GroupParams(2, 3), 500, seed=42)
        b = compare_zero_tests(GroupParams(2, 3), 500, seed=42)
        assert a == b and a.ok

    def test_broken_counting_path_detected(self, monkeypatch):
        # negative control: flip the counting test and the comparison must fail
        import spectile.charsum as cs

        real = cs.is_zero_equidist
        monkeypatch.setattr(cs, "is_zero_equidist", lambda A, u: not real(A, u))
        result = cs.compare_zero_tests(P22, 50, seed=3)
        assert not result.ok
