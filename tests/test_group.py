import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import (
    CapacityError,
    Element,
    GroupParams,
    GroupSet,
    ParameterError,
    canonical_rep,
    class_members,
    difference_set,
    rep_label,
    scale_translate,
    valuation,
)
from spectile.group import DEFAULT_ORDER_LIMIT, group_tables

from conftest import SMALL_PARAMS, make_set


class TestGroupParams:
    def test_rejects_composite_p(self):
        with pytest.raises(ParameterError):
            GroupParams(6, 1)

    def test_rejects_p_one_and_zero(self):
        for p in (0, 1):
            with pytest.raises(ParameterError):
                GroupParams(p, 1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ParameterError):
            GroupParams(3, 0)

    def test_rejects_order_above_limit(self):
        # 2^34 and 65537^2 both exceed the 2^24 order cap
        with pytest.raises(ParameterError):
            GroupParams(2, 33)
        with pytest.raises(ParameterError):
            GroupParams(65537, 1)

    def test_order_limit_boundary(self):
        assert GroupParams(2, 23).order == DEFAULT_ORDER_LIMIT
        with pytest.raises(ParameterError):
            GroupParams(2, 24)
        with pytest.raises(ParameterError):
            GroupParams(4099, 1)  # 4099^2 just above 2^24

    def test_order_and_pn(self):
        q = GroupParams(3, 2)
        assert q.pn == 9
        assert q.order == 27

    def test_cached_orders_keep_value_semantics(self):
        # pn and order are slots set on admission; equality, hashing, repr,
        # pickling and the group_tables cache still see only (p, n)
        fresh, used = GroupParams(3, 2), GroupParams(3, 2)
        assert used.order == 27 and used.pn == 9
        assert fresh == used and hash(fresh) == hash(used) == hash((3, 2))
        assert repr(used) == "GroupParams(p=3, n=2)"
        assert not hasattr(used, "__dict__")
        clone = pickle.loads(pickle.dumps(used))
        assert clone == fresh and clone.order == 27 and clone.pn == 9
        assert group_tables(fresh) is group_tables(used) is group_tables(clone)


class TestElement:
    def test_index_round_trip_exhaustive(self, small_params):
        q = small_params
        for i in range(q.order):
            assert q.element_from_index(i).index == i

    def test_range_validation(self):
        q = GroupParams(2, 2)
        with pytest.raises(ParameterError):
            Element(q, 2, 0)
        with pytest.raises(ParameterError):
            Element(q, 0, 4)

    def test_add_sub_neg(self):
        q = GroupParams(3, 2)
        a, b = q.element(2, 7), q.element(1, 5)
        assert a + b == q.element(0, 3)
        assert a - b == q.element(1, 2)
        assert q.zero() - (a - b) == b - a


class TestInnerProduct:
    def test_example_p3_n2(self):
        q = GroupParams(3, 2)
        assert group_tables(q).inner(q.element(2, 4).index, q.element(1, 7).index) == 7

    def test_zero_element(self, small_params):
        q = small_params
        for v in q.elements():
            assert group_tables(q).inner(q.zero().index, v.index) == 0

    def test_example_p2_n2(self):
        q = GroupParams(2, 2)
        assert group_tables(q).inner(q.element(0, 1).index, q.element(0, 2).index) == 2


class TestValuation:
    def test_examples(self):
        assert valuation(4, 2, 3) == 2
        assert valuation(0, 2, 3) is None
        assert valuation(6, 3, 2) == 1

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            valuation(-1, 2, 3)


class TestCanonicalRep:
    def test_examples_p2_n2(self):
        # rep id 0 is (1,0) and 1 + i*p + c is (c,p^i)
        q = GroupParams(2, 2)
        assert canonical_rep(q.element(1, 3)) == 2  # (1,p^0)
        assert canonical_rep(q.element(1, 2)) == 4  # (1,p^1)
        assert canonical_rep(q.element(0, 2)) == 3  # (0,p^1)
        assert canonical_rep(q.element(1, 0)) == 0

    def test_zero_element_refused(self, small_params):
        with pytest.raises(ParameterError, match="zero element has no rep id"):
            canonical_rep(small_params.zero())

    def test_matches_unit_orbit_exhaustion(self, small_params):
        # independent oracle: u ~ rep iff some unit scales rep onto u
        q = small_params
        rep_elem_index = group_tables(q).rep_elem_index
        for u in q.elements():
            if u.is_zero():
                continue
            e = q.element_from_index(rep_elem_index[canonical_rep(u)])
            assert any(e.scale(s) == u for s in q.units())

    def test_constant_on_orbits(self, small_params):
        q = small_params
        for u in q.elements():
            if u.is_zero():
                continue
            rid = canonical_rep(u)
            for s in q.units():
                assert canonical_rep(u.scale(s)) == rid

    def test_class_count(self, small_params):
        q = small_params
        rids = {canonical_rep(u) for u in q.elements() if not u.is_zero()}
        assert rids == set(range(1 + q.p * q.n))

    def test_orbit_regenerates_class(self, small_params):
        q = small_params
        by_rid = {}
        for u in q.elements():
            if not u.is_zero():
                by_rid.setdefault(canonical_rep(u), set()).add(u.index)
        for rid, members in by_rid.items():
            assert set(class_members(rid, q).indices()) == members


class TestRepIdEncoding:
    # rep id 0 is (1,0) and 1 + i*p + c is (c,p^i): zero profiles are
    # bitmasks over these ids, and analyze prints their labels

    def test_canonical_rep_is_rid_on_class_members(self, small_params):
        q = small_params
        for rid in range(1 + q.p * q.n):
            members = class_members(rid, q).elements()
            assert members
            assert [canonical_rep(u) for u in members] == [rid] * len(members)

    def test_label_spells_representative(self, small_params):
        q = small_params
        labels = [rep_label(q.p, rid) for rid in range(1 + q.p * q.n)]
        assert labels == ["(1,0)"] + [f"({c},p^{i})" for i in range(q.n) for c in range(q.p)]
        rep_elem_index = group_tables(q).rep_elem_index
        assert len(rep_elem_index) == len(labels)
        for label, idx in zip(labels, rep_elem_index):
            x, y, i = re.fullmatch(r"\((\d+),(0|p\^(\d+))\)", label).groups()
            expected_y = 0 if i is None else q.p ** int(i)
            assert divmod(idx, q.pn) == (int(x), expected_y), label

    @pytest.mark.parametrize("rid", [-1, 5])
    def test_class_members_refuses_rid_out_of_range(self, rid):
        # Z_2 x Z_4 has rep ids 0..4; unchecked, -1 would index the list
        # from the end (the class of rid 4) and 5 raise a bare IndexError
        with pytest.raises(ParameterError, match=rf"^rep id {rid} out of range \[0, 5\)$"):
            class_members(rid, GroupParams(2, 2))

    def test_label_refuses_negative_rid(self):
        # unchecked, -1 would spell (0,p^-1); a rid past the group's last
        # level cannot be caught, since the label sees only p
        with pytest.raises(ParameterError, match="^rep id -1 is negative$"):
            rep_label(2, -1)


class TestScaleTranslate:
    def test_identity(self):
        q = GroupParams(2, 2)
        A = make_set(q, [(0, 0), (1, 3)])
        assert scale_translate(A, 1, q.zero()) == A

    def test_scaling_example(self):
        q = GroupParams(2, 2)
        A = make_set(q, [(0, 0), (0, 1)])
        assert scale_translate(A, 3, q.zero()) == make_set(q, [(0, 0), (0, 3)])

    def test_translation_example(self):
        q = GroupParams(2, 2)
        A = make_set(q, [(0, 0), (0, 1)])
        assert scale_translate(A, 1, q.element(1, 2)) == make_set(q, [(1, 2), (1, 3)])

    def test_rejects_non_unit(self):
        q = GroupParams(2, 2)
        A = make_set(q, [(0, 0)])
        with pytest.raises(ParameterError):
            scale_translate(A, 2, q.zero())

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_composition(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        mask = data.draw(st.integers(0, (1 << q.order) - 1))
        A = GroupSet(q, mask)
        a1 = data.draw(st.sampled_from(q.units()))
        a2 = data.draw(st.sampled_from(q.units()))
        g1 = q.element_from_index(data.draw(st.integers(0, q.order - 1)))
        g2 = q.element_from_index(data.draw(st.integers(0, q.order - 1)))
        lhs = scale_translate(scale_translate(A, a1, g1), a2, g2)
        rhs = scale_translate(A, (a1 * a2) % q.pn, g1.scale(a2) + g2)
        assert lhs == rhs

    def test_cardinality_preserved(self, small_params):
        q = small_params
        A = GroupSet(q, (1 << min(q.order, 5)) - 1)
        for a in q.units():
            for gi in range(q.order):
                assert scale_translate(A, a, q.element_from_index(gi)).cardinality == A.cardinality


class TestDifferenceSet:
    def test_singleton(self):
        q = GroupParams(2, 2)
        assert difference_set(make_set(q, [(1, 3)])) == make_set(q, [(0, 0)])

    def test_example(self):
        q = GroupParams(2, 2)
        A = make_set(q, [(0, 0), (0, 1)])
        assert difference_set(A) == make_set(q, [(0, 0), (0, 1), (0, 3)])

    def test_full_group(self, small_params):
        q = small_params
        assert difference_set(GroupSet.full(q)) == GroupSet.full(q)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_bound_and_translation_invariance(self, data):
        q = data.draw(st.sampled_from(SMALL_PARAMS))
        mask = data.draw(st.integers(1, (1 << q.order) - 1))
        A = GroupSet(q, mask)
        D = difference_set(A)
        k = A.cardinality
        assert D.cardinality <= k * k - k + 1
        g = q.element_from_index(data.draw(st.integers(0, q.order - 1)))
        assert difference_set(scale_translate(A, 1, g)) == D

    def test_matches_pairwise_differences_at_order_64(self):
        q = GroupParams(2, 5)
        rng = random.Random(64)
        for k in (1, 2, 5, 13):
            A = GroupSet.from_indices(q, rng.sample(range(q.order), k))
            pairs = {(a - b).index for a in A.elements() for b in A.elements()}
            assert difference_set(A) == GroupSet.from_indices(q, pairs)


class TestGroupTables:
    def test_translate_mask_matches_elementwise(self, small_params):
        q = small_params
        t = group_tables(q)
        A = GroupSet(q, 0b1011001 % (1 << q.order) | 1)
        for gi in range(q.order):
            g = q.element_from_index(gi)
            expected = {(e + g).index for e in A.elements()}
            assert set(GroupSet(q, t.translate_mask(A.mask, gi)).indices()) == expected

    def test_scale_mask_matches_elementwise(self, small_params):
        q = small_params
        t = group_tables(q)
        A = GroupSet(q, (1 << min(q.order, 7)) - 1)
        for a in q.units():
            expected = {e.scale(a).index for e in A.elements()}
            assert set(GroupSet(q, t.scale_mask(A.mask, a)).indices()) == expected

    @pytest.mark.parametrize("p, n", [(2, 2), (3, 1), (2, 3), (5, 1)])
    def test_translate_sums_add_the_translates(self, p, n):
        q = GroupParams(p, n)
        t = group_tables(q)
        rng = random.Random(11)
        for _ in range(20):
            m, A = rng.getrandbits(q.order), rng.getrandbits(q.order)
            sums = t.translate_sums(m)
            expected = sum(t.translate_mask(m, a) for a in GroupSet(q, A).indices())
            assert sum(table[b] for table, b in zip(sums, A.to_bytes(len(sums), "little"))) == expected

    def test_translate_sums_refused_above_the_sweep_cap(self):
        with pytest.raises(
            CapacityError, match="^translate sum tables are only built up to order 32; got 64$"
        ):
            group_tables(GroupParams(2, 5)).translate_sums(1)

    def test_profile_key_refused_above_fiber_limit(self):
        # only sweeps use the fiber tables; single-set paths count residues
        with pytest.raises(
            CapacityError, match="^profile_key tables are only built up to order 32; got 8192$"
        ):
            group_tables(GroupParams(2, 12)).profile_key(1)

    @pytest.mark.parametrize("p, n", [(2, 4), (2, 5), (2, 11), (3, 7), (67, 1)])
    def test_translate_mask_across_table_cap(self, p, n):
        # below the sweep cap of 32 (order 16) and above it (orders 64,
        # 4096, 6561, 4489) each call builds its own rotation mask, with p
        # blocks replicated by doubling
        q = GroupParams(p, n)
        t = group_tables(q)
        rng = random.Random(7)
        A = GroupSet.from_indices(q, rng.sample(range(q.order), min(40, q.order // 2)))
        for gi in rng.sample(range(q.order), 25):
            g = q.element_from_index(gi)
            expected = GroupSet.from_elements(q, (e + g for e in A.elements()))
            assert GroupSet(q, t.translate_mask(A.mask, gi)) == expected
