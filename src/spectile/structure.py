"""Structural consequences of the zero set: divisibility and size classes.

A zero pattern (a, p^{i1}), (0, p^{i2}), ..., (0, p^{is}) with strictly
increasing levels forces p^s to divide the cardinality; the largest
certified s is exposed as the divisibility exponent.  Cardinalities are
classified by their p-factorization, which on its own can rule out the
existence of a spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charsum import ZeroProfile
from .errors import ParameterError
from .group import GroupParams, GroupSet, _split_p


@dataclass(frozen=True)
class SizeClass:
    """Classification of a cardinality m * p^s with gcd(m, p) = 1.

    kind is "trivial" (1 or the full group order), "pure_power" (m = 1),
    "mixed" (2 <= m <= p-1), or "other" (m > p coprime to p).
    """

    kind: str
    m: int
    s: int


def classify_size(cardinality: int, params: GroupParams) -> SizeClass:
    if not 1 <= cardinality <= params.order:
        raise ParameterError(
            f"cardinality {cardinality} out of range [1, {params.order}]"
        )
    s, m = _split_p(cardinality, params.p)
    if cardinality == 1 or cardinality == params.order:
        kind = "trivial"
    elif m == 1:
        kind = "pure_power"
    elif m <= params.p - 1:
        kind = "mixed"
    else:
        kind = "other"
    return SizeClass(kind, m, s)


def divisibility_exponent(profile: ZeroProfile) -> int:
    """Largest s certified by a zero pattern in the profile.

    The pattern starts at any level i1 carrying a zero (c, p^{i1}) for some
    c (c = 0 allowed) and continues with axis zeros (0, p^i) at strictly
    larger levels, so s = 1 + |{i in I : i > i1}| maximized over admissible
    i1, and 0 when no level carries a zero at all.  The class of (1, 0)
    never contributes.
    """
    starts = [i for i in range(profile.params.n) if profile.level(i)]
    if not starts:
        return 0
    levels_I = profile.I
    return max(1 + sum(1 for i in levels_I if i > i1) for i1 in starts)


def _delete_digit(y: int, pos: int, p: int) -> int:
    """Remove digit `pos` from the base-p expansion, shifting higher digits down."""
    w = p**pos
    return y // (w * p) * w + y % w


def project_delete_digit(A: GroupSet, r: int, variant: int) -> GroupSet:
    """Project A into Z_p x Z_{p^(n-1)} by deleting one digit of y.

    variant 1 deletes digit r; variant 2 deletes digit n-1-r.  The first
    coordinate is untouched.  Images are sets, so the cardinality can drop
    when two elements collide; callers relying on |image| = |A| must ensure
    the digit being deleted never separates two elements of A.
    """
    q = A.params
    if q.n < 2:
        raise ParameterError("projection needs n >= 2")
    if not 0 <= r <= q.n - 1:
        raise ParameterError(f"level r={r} out of range [0, {q.n - 1}]")
    if variant not in (1, 2):
        raise ParameterError(f"variant must be 1 or 2, got {variant!r}")
    pos = r if variant == 1 else q.n - 1 - r
    target = GroupParams(q.p, q.n - 1)
    return GroupSet.from_elements(
        target,
        ((e.x, _delete_digit(e.y, pos, q.p)) for e in A.elements()),
    )
