"""Exact character sums on Z_p x Z_{p^n} and their zero sets.

The character attached to u maps e to zeta^<e, u> with zeta a primitive
p^n-th root of unity.  Two independent zero tests are provided:

* the slice-count criterion: the sum over A vanishes iff the counts
  |{a in A : <a, u> = t}| agree within every residue class t mod p^(n-1);
* exact evaluation in Z[zeta], reducing modulo the p^n-th cyclotomic
  polynomial Phi(X) = sum_{j < p} X^(j * p^(n-1)).

The first is the hot path (pure integer comparisons); the second is kept
as an independent oracle.  Nothing here touches floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ParameterError
from .group import (
    ClassRep,
    Element,
    GroupParams,
    GroupSet,
    _require_same_params,
    group_tables,
)


@dataclass(frozen=True)
class SliceCounts:
    """Counts |{a in A : <a, u> = t}| for t = 0 .. p^n - 1."""

    u: Element
    counts: tuple[int, ...]


def _coordinates(A: GroupSet) -> list[tuple[int, int]]:
    """The (x, y) pairs of A, ascending; extracted once per set."""
    pn = A.params.pn
    return [divmod(i, pn) for i in A.indices()]


def _slice_tally(params: GroupParams, pairs, ux: int, uy: int) -> dict[int, int]:
    """Nonzero counts |{a : <a, u> = t}| for u = (ux, uy), keyed by t."""
    pn = params.pn
    w = pn // params.p * ux
    tally: dict[int, int] = {}
    for x, y in pairs:
        t = (w * x + uy * y) % pn
        tally[t] = tally.get(t, 0) + 1
    return tally


def _slices_equal(params: GroupParams, pairs, ux: int, uy: int) -> bool:
    """The slice-count criterion for the character at u = (ux, uy).

    Stepping t -> t + p^(n-1) cycles through the p slices of one residue
    class mod p^(n-1), so it suffices that every occurring t has the same
    count as its successor; classes that never occur are all zero.  Cost
    O(|A|), independent of the group order.
    """
    pn = params.pn
    step = pn // params.p
    tally = _slice_tally(params, pairs, ux, uy)
    for t, count in tally.items():
        if tally.get((t + step) % pn) != count:
            return False
    return True


def slice_counts(A: GroupSet, u: Element) -> SliceCounts:
    _require_same_params(A.params, u.params)
    tally = _slice_tally(A.params, _coordinates(A), u.x, u.y)
    return SliceCounts(u, tuple(tally.get(t, 0) for t in range(A.params.pn)))


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
        deg = p ** (n - 1) * (p - 1)
        pn1 = p ** (n - 1)
        coef = [0] * deg
        e %= p**n
        j, r = divmod(e, pn1)
        if j < p - 1:
            coef[j * pn1 + r] = 1
        else:
            # X^((p-1)*p^(n-1)) = -(1 + X^(p^(n-1)) + ... + X^((p-2)*p^(n-1)))
            for jj in range(p - 1):
                coef[jj * pn1 + r] -= 1
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

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(
            self.p, self.n,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.p, self.n, tuple(-a for a in self.coefficients))

    def times_root_power(self, e: int) -> "CyclotomicInt":
        """Multiply by zeta^e (exponents fold through X^(p^n) = 1, then Phi)."""
        p, n = self.p, self.n
        pn = p**n
        pn1 = p ** (n - 1)
        deg = pn1 * (p - 1)
        coef = [0] * deg
        e %= pn
        for k, a in enumerate(self.coefficients):
            if a == 0:
                continue
            j, r = divmod((k + e) % pn, pn1)
            if j < p - 1:
                coef[j * pn1 + r] += a
            else:
                for jj in range(p - 1):
                    coef[jj * pn1 + r] -= a
        return CyclotomicInt(p, n, tuple(coef))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coefficients)


def char_value_exact(A: GroupSet, u: Element) -> CyclotomicInt:
    """The exact character sum sum_{a in A} zeta^<a, u> as a cyclotomic integer."""
    _require_same_params(A.params, u.params)
    q = A.params
    t = group_tables(q)
    pn1 = t.pn1
    p = q.p
    deg = t.phi_degree
    coef = [0] * deg
    u_idx = u.index
    for e_idx in A.indices():
        j, r = divmod(t.inner(e_idx, u_idx), pn1)
        if j < p - 1:
            coef[j * pn1 + r] += 1
        else:
            for jj in range(p - 1):
                coef[jj * pn1 + r] -= 1
    return CyclotomicInt(p, q.n, tuple(coef))


@dataclass(frozen=True)
class ZeroProfile:
    """The zero set of a subset, reduced to unit-equivalence classes.

    reps holds one ClassRep per class contained in the zero set; I is the
    derived set of levels i with (0, p^i) present, and has_unit_axis flags
    the class of (1, 0).
    """

    params: GroupParams
    reps: frozenset[ClassRep]
    I: frozenset[int]
    has_unit_axis: bool

    @classmethod
    def from_reps(cls, params: GroupParams, reps) -> "ZeroProfile":
        reps = frozenset(reps)
        levels = frozenset(r.i for r in reps if r.kind == "mixed" and r.c == 0)
        axis = any(r.kind == "unit_axis" for r in reps)
        return cls(params, reps, levels, axis)

    def ordered_reps(self) -> list[ClassRep]:
        return sorted(self.reps, key=ClassRep.sort_key)

    def mixed_levels(self) -> frozenset[int]:
        """Levels i carrying any zero (c, p^i), c arbitrary."""
        return frozenset(r.i for r in self.reps if r.kind == "mixed")

    def contains(self, rep: ClassRep) -> bool:
        return rep in self.reps

    def is_empty(self) -> bool:
        return not self.reps

    def key(self) -> int:
        """Bitmask over the fixed rep order; usable as a dictionary key."""
        t = group_tables(self.params)
        key = 0
        for rid, rep in enumerate(t.reps):
            if rep in self.reps:
                key |= 1 << rid
        return key

    def zero_mask(self) -> int:
        """Bitmap of the full zero set (union of the classes in reps)."""
        t = group_tables(self.params)
        return t.zero_mask_for_key(self.key())


def zero_set(A: GroupSet) -> ZeroProfile:
    """The zero set of A, computed on the 1 + p*n class representatives only.

    A representative is included iff its character sum vanishes; the whole
    class then lies in the zero set because unit scaling permutes the
    Galois conjugates of the sum.
    """
    q = A.params
    t = group_tables(q)
    pairs = _coordinates(A)
    reps = [
        rep
        for rep, idx in zip(t.reps, t.rep_elem_index)
        if _slices_equal(q, pairs, *divmod(idx, q.pn))
    ]
    return ZeroProfile.from_reps(q, reps)


def profile_from_key(params: GroupParams, key: int) -> ZeroProfile:
    """Rebuild a ZeroProfile from its rep bitmask."""
    t = group_tables(params)
    return ZeroProfile.from_reps(
        params, (t.reps[rid] for rid in range(t.rep_count) if key >> rid & 1)
    )


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
