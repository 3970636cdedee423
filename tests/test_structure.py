import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import (
    GroupParams,
    GroupSet,
    ParameterError,
    classify_size,
    divisibility_exponent,
    find_spectrum_bruteforce,
    project_delete_digit,
    valuation,
    verify_spectral_pair,
    zero_set,
)

from conftest import make_set

P22 = GroupParams(2, 2)


class TestClassifySize:
    def test_mixed_example(self):
        sc = classify_size(6, GroupParams(3, 2))
        assert (sc.kind, sc.m, sc.s) == ("mixed", 2, 1)

    def test_trivial_full_group(self):
        assert classify_size(8, P22).kind == "trivial"
        assert classify_size(1, P22).kind == "trivial"

    def test_pure_power(self):
        sc = classify_size(9, GroupParams(3, 2))
        assert (sc.kind, sc.s) == ("pure_power", 2)

    def test_other_kind(self):
        # 10 = 5 * 2 with 5 > p - 1 = 2 for p = 3
        assert classify_size(10, GroupParams(3, 2)).kind == "other"

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            classify_size(0, P22)
        with pytest.raises(ParameterError):
            classify_size(9, P22)

    def test_split_matches_digit_definition(self, small_params):
        # valuation and classify_size share one p-adic split; both must match
        # the least nonzero base-p digit on every t < p^(n+1)
        q = small_params
        p, m = q.p, q.n + 1
        assert valuation(0, p, m) is None
        for t in range(1, q.order):
            s = next(i for i in range(m) if t // p**i % p)
            assert valuation(t, p, m) == s
            sc = classify_size(t, q)
            assert (sc.s, sc.m) == (s, t // p**s)

    def test_tags_exhaustive_and_exclusive(self):
        q = GroupParams(3, 2)
        for k in range(1, q.order + 1):
            sc = classify_size(k, q)
            assert sc.kind in ("trivial", "pure_power", "mixed", "other")
            assert sc.m * q.p**sc.s == k
            assert sc.m % q.p != 0


class TestDivisibilityExponent:
    def test_full_group_z2z4(self):
        s = divisibility_exponent(zero_set(GroupSet.full(P22)))
        assert s == 2
        assert 8 % 2**s == 0

    def test_four_element_example(self):
        A = make_set(P22, [(0, 0), (0, 1), (1, 0), (1, 1)])
        s = divisibility_exponent(zero_set(A))
        assert s == 2
        assert A.cardinality % 2**s == 0

    def test_empty_profile(self):
        A = GroupSet.from_indices(P22, [3])
        assert divisibility_exponent(zero_set(A)) == 0

    def test_unit_axis_alone_does_not_count(self):
        # zero set of {(0,0),(1,0)} is {(1,0), (1,p^0), (1,p^1)} classes: the
        # axis class starts no pattern, the mixed zeros each give s = 1
        A = make_set(P22, [(0, 0), (1, 0)])
        prof = zero_set(A)
        assert prof.has_unit_axis
        assert prof.I == frozenset()
        assert divisibility_exponent(prof) == 1

    def test_universal_divisibility_exhaustive_small(self):
        for q in (GroupParams(2, 1), GroupParams(3, 1), P22):
            for mask in range(1, 1 << q.order):
                A = GroupSet(q, mask)
                s = divisibility_exponent(zero_set(A))
                assert A.cardinality % (q.p**s) == 0, (q, mask, s)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_universal_divisibility_sampled(self, data):
        q = data.draw(st.sampled_from([GroupParams(2, 3), GroupParams(3, 2), GroupParams(5, 1)]))
        mask = data.draw(st.integers(1, (1 << q.order) - 1))
        A = GroupSet(q, mask)
        s = divisibility_exponent(zero_set(A))
        assert A.cardinality % (q.p**s) == 0


class TestProjectDeleteDigit:
    def test_phi1_deletes_digit_zero(self):
        q = GroupParams(2, 2)
        A = make_set(q, [(0, 0), (0, 2)])
        out = project_delete_digit(A, 0, 1)
        assert out.params == GroupParams(2, 1)
        assert out == make_set(GroupParams(2, 1), [(0, 0), (0, 1)])

    def test_phi1_top_level_truncates(self):
        q = GroupParams(2, 3)
        A = make_set(q, [(1, 5), (0, 6)])  # digits of 5: (1,0,1); of 6: (0,1,1)
        out = project_delete_digit(A, q.n - 1, 1)
        assert out == make_set(GroupParams(2, 2), [(1, 1), (0, 2)])

    def test_phi2_example(self):
        q = GroupParams(2, 2)
        A = make_set(q, [(0, 0), (0, 1)])
        out = project_delete_digit(A, 0, 2)  # deletes digit n-1-r = 1
        assert out == make_set(GroupParams(2, 1), [(0, 0), (0, 1)])

    def test_rejects_n1_and_bad_variant(self):
        q1 = GroupParams(2, 1)
        A = GroupSet.from_indices(q1, [0])
        with pytest.raises(ParameterError):
            project_delete_digit(A, 0, 1)
        A2 = GroupSet.from_indices(P22, [0])
        with pytest.raises(ParameterError):
            project_delete_digit(A2, 0, 3)
        with pytest.raises(ParameterError):
            project_delete_digit(A2, 2, 1)

    def test_projected_spectral_pair_stays_spectral(self):
        # fixed instance in Z_2 x Z_8 with r = 0: 2 = n-1-r not in I, 0 not in J
        q = GroupParams(2, 3)
        A = make_set(q, [(0, 0), (0, 4), (1, 0), (1, 4)])
        B = make_set(q, [(0, 0), (0, 1), (1, 2), (1, 3)])
        assert verify_spectral_pair(A, B)
        I = zero_set(A).I
        J = zero_set(B).I
        r = 0
        assert q.n - 1 - r not in I and r not in J
        Ap = project_delete_digit(A, r, 1)
        Bp = project_delete_digit(B, r, 2)
        assert Ap.cardinality == A.cardinality
        assert Bp.cardinality == B.cardinality
        assert verify_spectral_pair(Ap, Bp)

    def test_projection_property_over_found_spectral_pairs(self):
        # sweep small spectral sets of Z_2 x Z_8 and project whenever a level
        # r satisfies the two zero-set conditions
        q = GroupParams(2, 3)
        checked = 0
        for mask in range(0, 1 << q.order, 7):
            A = GroupSet(q, mask)
            if not 2 <= A.cardinality <= 8:
                continue
            B = find_spectrum_bruteforce(A)
            if B is None:
                continue
            I = zero_set(A).I
            J = zero_set(B).I
            for r in range(q.n):
                if q.n - 1 - r in I or r in J:
                    continue
                Ap = project_delete_digit(A, r, 1)
                Bp = project_delete_digit(B, r, 2)
                assert Ap.cardinality == A.cardinality
                assert Bp.cardinality == B.cardinality
                assert verify_spectral_pair(Ap, Bp), (mask, r)
                checked += 1
        assert checked > 10
