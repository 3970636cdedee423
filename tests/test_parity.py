"""The linear single-set paths agree with direct reference computations.

Seeded random pairs on every small group: the pair checks against their
definitions through difference sets and is_zero_equidist, the zero set
against exact cyclotomic evaluation, the S2T-ps Case3 witness against
a scan over pairs of B, and the bitmap scan against from_indices.
"""

import random

import pytest

from spectile import (
    GroupParams,
    GroupSet,
    char_value_exact,
    difference_set,
    find_complement_bruteforce,
    find_spectrum_bruteforce,
    is_zero_equidist,
    spectral_pair_violation,
    spectral_violation_pair,
    tiling_pair_violation,
    valuation,
    zero_set,
)
from spectile.constructions import _case3_witness
from spectile.errors import InvalidInputError
from spectile.group import group_tables

from conftest import SMALL_PARAMS

SEED = 2021
TRIALS = 60


def random_set(rng, q, k):
    return GroupSet.from_indices(q, rng.sample(range(q.order), k))


def lowest_shared_difference(A, T):
    q = A.params
    shared = (difference_set(A).mask & difference_set(T).mask) >> 1
    return q.element_from_index((shared & -shared).bit_length()) if shared else None


def first_spectral_failure(A, B):
    # the first pair u < v of B, in ascending index order, whose
    # difference lies outside the zero set of A
    elems = B.elements()
    for i, u in enumerate(elems):
        for v in elems[i + 1:]:
            if not is_zero_equidist(A, v - u):
                return u, v
    return None


def case3_witness_scan(q, B, j0):
    # the first pair of B, in ascending index order, with t != t' and a
    # difference x - x' of valuation n-1-j0, with c = c' * (t-t')^-1 mod p
    # for c' the digit of x - x' at n-1-j0
    target = q.n - 1 - j0
    coords = [divmod(i, q.pn) for i in B.indices()]
    for i, (t1, x1) in enumerate(coords):
        for t2, x2 in coords[i + 1:]:
            d = (x1 - x2) % q.pn
            if t1 != t2 and d and valuation(d, q.p, q.n) == target:
                c = d // q.p**target % q.p * pow(t1 - t2, -1, q.p) % q.p
                return c, ((t1, x1), (t2, x2))
    return None


def test_tiling_witness_is_lowest_shared_difference(small_params):
    q = small_params
    rng = random.Random(SEED)
    divisors = [k for k in range(1, q.order + 1) if q.order % k == 0]
    outcomes = set()
    for _ in range(TRIALS):
        k = rng.choice(divisors)
        A = random_set(rng, q, k)
        T = find_complement_bruteforce(A) if rng.random() < 0.5 else None
        if T is None:
            T = random_set(rng, q, q.order // k)
        expected = lowest_shared_difference(A, T)
        assert tiling_pair_violation(A, T) == expected
        assert tiling_pair_violation(T, A) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


# Z_5 x Z_5 has five classes per level and Z_2 x Z_16 four levels, which
# SMALL_PARAMS lacks.
@pytest.mark.parametrize(
    "q", SMALL_PARAMS + [GroupParams(5, 1), GroupParams(2, 4)], ids=lambda q: f"p{q.p}n{q.n}"
)
def test_spectral_witness_is_first_failing_pair(q):
    rng = random.Random(SEED)
    outcomes = set()
    for _ in range(TRIALS):
        k = rng.randint(1, q.order)
        A = random_set(rng, q, k)
        B = find_spectrum_bruteforce(A) if rng.random() < 0.5 else None
        if B is None:
            B = random_set(rng, q, k)
        expected = first_spectral_failure(A, B)
        assert spectral_violation_pair(A, B) == expected
        if expected is None:
            assert spectral_pair_violation(A, B) is None
        else:
            u, v = expected
            assert spectral_pair_violation(A, B) == v - u
        outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "q", SMALL_PARAMS + [GroupParams(5, 1), GroupParams(2, 4)], ids=lambda q: f"p{q.p}n{q.n}"
)
def test_case3_witness_is_first_pair_of_valuation(q):
    rng = random.Random(SEED)
    outcomes = set()
    for _ in range(TRIALS):
        B = random_set(rng, q, rng.randint(1, q.order))
        for j0 in range(q.n):
            expected = case3_witness_scan(q, B, j0)
            if expected is None:
                with pytest.raises(InvalidInputError):
                    _case3_witness(q, B, j0)
            else:
                assert _case3_witness(q, B, j0) == expected
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_zero_set_matches_exact_evaluation(small_params):
    q = small_params
    rng = random.Random(SEED)
    reps = [q.element_from_index(idx) for idx in group_tables(q).rep_elem_index]
    for _ in range(TRIALS):
        A = GroupSet(q, rng.getrandbits(q.order))
        rids = zero_set(A).rep_ids()
        for rid, rep in enumerate(reps):
            assert (rid in rids) == char_value_exact(A, rep).is_zero()


def test_indices_round_trip(small_params):
    q = small_params
    rng = random.Random(SEED)
    for _ in range(TRIALS):
        A = GroupSet(q, rng.getrandbits(q.order))
        idxs = A.indices()
        assert idxs == [i for i in range(q.order) if A.mask >> i & 1]
        assert GroupSet.from_indices(q, idxs) == A
        assert GroupSet.from_elements(q, A.elements()) == A
