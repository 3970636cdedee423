"""Exact character sums on Z_p x Z_{p^n} and their zero sets.

The character attached to u maps e to zeta^<e, u> with zeta a primitive
p^n-th root of unity.  Two independent zero tests are provided:

* the slice-count criterion: the sum over A vanishes iff the counts
  |{a in A : <a, u> = t}| agree within every residue class t mod p^(n-1);
* exact evaluation in Z[zeta], reducing modulo the p^n-th cyclotomic
  polynomial Phi(X) = sum_{j < p} X^(j * p^(n-1)).

The first is the hot path (pure integer comparisons); the second is kept
as an independent oracle and shares no code with the first: its one
reduction step is _add_root_power.  A zero set is returned as a
ZeroProfile, a bitmask over the unit-equivalence classes.  Nothing here
touches floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError
from .group import (
    Element,
    GroupParams,
    GroupSet,
    _require_same_params,
    group_tables,
)


def _coordinates(A: GroupSet) -> list[tuple[int, int]]:
    """The (x, y) pairs of A, ascending; extracted once per set."""
    pn = A.params.pn
    return [divmod(i, pn) for i in A.indices()]


def _slices_equal(params: GroupParams, pairs, ux: int, uy: int) -> bool:
    """The slice-count criterion for the character at u = (ux, uy).

    The slice counts are |{a : <a, u> = t}|, tallied for the t that occur.
    Stepping t -> t + p^(n-1) cycles through the p slices of one residue
    class mod p^(n-1), so it suffices that every occurring t has the same
    count as its successor; classes that never occur are all zero.  Cost
    O(|A|), independent of the group order.
    """
    pn = params.pn
    step = pn // params.p
    w = step * ux
    tally: dict[int, int] = {}
    for x, y in pairs:
        t = (w * x + uy * y) % pn
        tally[t] = tally.get(t, 0) + 1
    for t, count in tally.items():
        if tally.get((t + step) % pn) != count:
            return False
    return True


def is_zero_equidist(A: GroupSet, u: Element) -> bool:
    """Exact zero test for the character sum at u via slice-count equality.

    True iff for every residue class t mod p^(n-1) the p counts
    counts[t + j * p^(n-1)], j = 0 .. p-1, coincide.
    """
    _require_same_params(A.params, u.params)
    return _slices_equal(A.params, _coordinates(A), u.x, u.y)


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[zeta], zeta a primitive p^n-th root of unity.

    Stored as the coefficient vector of length p^(n-1) * (p-1) after
    reduction modulo Phi(X) = sum_{j=0}^{p-1} X^(j * p^(n-1)); zero has a
    unique representation (the all-zero vector).
    """

    p: int
    n: int
    coefficients: tuple[int, ...]

    @classmethod
    def zero(cls, p: int, n: int) -> "CyclotomicInt":
        return cls(p, n, (0,) * (p ** (n - 1) * (p - 1)))

    @classmethod
    def constant(cls, p: int, n: int, value: int) -> "CyclotomicInt":
        deg = p ** (n - 1) * (p - 1)
        return cls(p, n, (value,) + (0,) * (deg - 1))

    @classmethod
    def root_power(cls, p: int, n: int, e: int) -> "CyclotomicInt":
        """zeta^e, reduced."""
        coef = [0] * (p ** (n - 1) * (p - 1))
        _add_root_power(coef, p, n, e, 1)
        return cls(p, n, tuple(coef))

    def _check(self, other: "CyclotomicInt") -> None:
        if (self.p, self.n) != (other.p, other.n):
            raise ParameterError("cyclotomic operands live in different rings")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(
            self.p, self.n,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def times_root_power(self, e: int) -> "CyclotomicInt":
        """Multiply by zeta^e."""
        p, n = self.p, self.n
        coef = [0] * len(self.coefficients)
        for k, a in enumerate(self.coefficients):
            if a:
                _add_root_power(coef, p, n, k + e, a)
        return CyclotomicInt(p, n, tuple(coef))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coefficients)


def _add_root_power(coef: list[int], p: int, n: int, e: int, a: int) -> None:
    """Add a * zeta^e to the reduced coefficient list coef, in place.

    The exponent folds through X^(p^n) = 1, then through Phi:
    X^((p-1)*p^(n-1) + r) = -sum_{j < p-1} X^(j*p^(n-1) + r).
    """
    pn1 = p ** (n - 1)
    j, r = divmod(e % (p * pn1), pn1)
    if j < p - 1:
        coef[j * pn1 + r] += a
    else:
        for jj in range(p - 1):
            coef[jj * pn1 + r] -= a


def char_value_exact(A: GroupSet, u: Element) -> CyclotomicInt:
    """The exact character sum sum_{a in A} zeta^<a, u> as a cyclotomic integer."""
    _require_same_params(A.params, u.params)
    q = A.params
    t = group_tables(q)
    coef = [0] * t.phi_degree
    u_idx = u.index
    for e_idx in A.indices():
        _add_root_power(coef, q.p, q.n, t.inner(e_idx, u_idx), 1)
    return CyclotomicInt(q.p, q.n, tuple(coef))


@dataclass(frozen=True)
class ZeroProfile:
    """The zero set of a subset, reduced to unit-equivalence classes.

    Bit rid of bits is set iff the class with rep id rid lies in the zero
    set: bit 0 is (1, 0), and the p bits from 1 + i*p are the classes
    (c, p^i) of level i, c ascending.  Every view is derived from bits; I
    (the levels i with (0, p^i) present) is cached on first use, since a
    construction's case split reads it more than once.
    """

    params: GroupParams
    bits: int

    def rep_ids(self) -> list[int]:
        """The rep ids in the zero set, ascending: (1,0) first, then (c, p^i)
        by (i, c), the order analyze prints."""
        return [rid for rid in range(self.bits.bit_length()) if self.bits >> rid & 1]

    def level(self, i: int) -> int:
        """The p-bit field of level i: bit c is set iff (c, p^i) is a zero."""
        p = self.params.p
        return (self.bits >> 1 + i * p) & ((1 << p) - 1)

    @cached_property
    def I(self) -> frozenset[int]:
        return frozenset(i for i in range(self.params.n) if self.level(i) & 1)

    @property
    def has_unit_axis(self) -> bool:
        return bool(self.bits & 1)

    def is_empty(self) -> bool:
        return not self.bits

    def key(self) -> int:
        """The rep bitmask bits; usable as a dictionary key."""
        return self.bits

    def zero_mask(self) -> int:
        """Bitmap of the full zero set: the sum of its disjoint classes."""
        masks = group_tables(self.params).class_masks
        return sum(masks[rid] for rid in self.rep_ids())


def zero_set(A: GroupSet) -> ZeroProfile:
    """The zero set of A, computed on the 1 + p*n class representatives only.

    A representative is included iff its character sum vanishes; the whole
    class then lies in the zero set because unit scaling permutes the
    Galois conjugates of the sum.
    """
    q = A.params
    pairs = _coordinates(A)
    bits = 0
    for rid, idx in enumerate(group_tables(q).rep_elem_index):
        if _slices_equal(q, pairs, *divmod(idx, q.pn)):
            bits |= 1 << rid
    return ZeroProfile(q, bits)


# ---------------------------------------------------------------------------
# Fourier inversion


def character_table(A: GroupSet) -> tuple[CyclotomicInt, ...]:
    """Exact character sums of A at every u, indexed by index(u)."""
    q = A.params
    return tuple(char_value_exact(A, q.element_from_index(i)) for i in range(q.order))


def inversion_check(A: GroupSet, table: tuple[CyclotomicInt, ...] | None = None) -> bool:
    """Reconstruct the indicator of A from its full character table.

    Computes |G| * a_g = sum_u chi_u(A) * zeta^(-<g, u>) exactly and compares
    with |G| or 0 bit for bit.  Intended as a test-only consistency oracle;
    cost is quadratic in the group order.
    """
    q = A.params
    t = group_tables(q)
    if table is None:
        table = character_table(A)
    if len(table) != q.order:
        raise ParameterError(f"character table must have {q.order} entries")
    for g_idx in range(q.order):
        acc = CyclotomicInt.zero(q.p, q.n)
        for u_idx in range(q.order):
            acc = acc + table[u_idx].times_root_power(-t.inner(g_idx, u_idx) % t.pn)
        expected = q.order if A.mask >> g_idx & 1 else 0
        if acc != CyclotomicInt.constant(q.p, q.n, expected):
            return False
    return True


# ---------------------------------------------------------------------------
# Cross-check of the two zero tests


@dataclass(frozen=True)
class ZeroTestComparison:
    """Outcome of sampling the counting test against the cyclotomic oracle."""

    params: GroupParams
    trials: int
    seed: int
    discrepancies: tuple[tuple[int, int], ...]  # (set mask, u index) pairs

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def compare_zero_tests(params: GroupParams, trials: int, seed: int) -> ZeroTestComparison:
    """Sample (A, u) pairs and require the two zero tests to agree.

    Sampling is reproducible: with rng = random.Random(seed) (the Mersenne
    Twister), trial k draws the subset bitmap rng.getrandbits(order) and the
    element index rng.randrange(order), in that order.
    """
    if trials < 0:
        raise ParameterError("trials must be nonnegative")
    rng = random.Random(seed)
    order = params.order
    bad = []
    for _ in range(trials):
        mask = rng.getrandbits(order)
        u_idx = rng.randrange(order)
        A = GroupSet(params, mask)
        u = params.element_from_index(u_idx)
        if is_zero_equidist(A, u) != char_value_exact(A, u).is_zero():
            bad.append((mask, u_idx))
    return ZeroTestComparison(params, trials, seed, tuple(bad))
