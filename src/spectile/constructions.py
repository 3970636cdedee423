"""Constructive algorithms: a spectrum for every tile, a complement for
every spectral set, and the cardinality obstruction to spectrality.

Every construction returns the built partner together with a CaseTrace
recording which branch fired and the witnesses it consumed, so the output
is reproducible from the trace alone.  Branches that are impossible for
genuine input are implemented as explicit errors and double as detectors
of mislabelled input.  Scan order is ascending element index everywhere a
choice is free.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .charsum import ZeroProfile, _coordinates, zero_set
from .errors import (
    ContradictionError,
    InvalidInputError,
    MissingPartnerError,
    NonSpectralSizeError,
)
from .group import GroupParams, GroupSet, _require_same_params, group_tables
from .oracle import (
    ORACLE_ORDER_LIMIT,
    _first_pair,
    _spectral_violation,
    find_complement_bruteforce,
    find_spectrum_bruteforce,
    verify_tiling_pair,
)
from .structure import classify_size


@dataclass(frozen=True)
class CaseTrace:
    """Which theorem branch produced a construction, plus its witnesses.

    Frozen, and every witness value is an int or a tuple of witness values.
    """

    theorem: str
    case: str
    witnesses: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared builders


def _span_digits(params: GroupParams, positions: Iterable[int]) -> list[int]:
    """All y in Z_{p^n} supported on the given digit positions."""
    p = params.p
    out = [0]
    for pos in positions:
        w = p**pos
        out = [y + d * w for y in out for d in range(p)]
    return out


# ---------------------------------------------------------------------------
# Tile -> spectrum


def spectrum_from_tile(A: GroupSet, T: GroupSet | None = None) -> tuple[GroupSet, CaseTrace]:
    """Build a spectrum B for a tile A, with |B| = |A| and all nonzero
    differences of B in the zero set of A.

    A supplied complement T is checked first, then drives the case split
    when |A| = p^t has only t-1 axis-zero levels; without one, a
    complement is searched when the group order is within the oracle cap.
    zero_set(A) is computed once, for sizes other than 1 and |G|, and the
    built B is checked against it before it is returned.  The sizes 1 and
    |G| return {0} and G unchecked: each is a spectrum of every set of its
    size.
    """
    if A.cardinality == 0:
        raise InvalidInputError("the empty set is not a tile")
    if T is not None:
        _require_same_params(A.params, T.params)
        if not verify_tiling_pair(A, T):
            raise InvalidInputError("supplied complement fails the tiling-pair check")
    q = A.params
    k = A.cardinality
    if k == 1:
        return GroupSet.from_indices(q, [0]), CaseTrace("T2S-trivial", "Trivial")
    if k == q.order:
        return GroupSet.full(q), CaseTrace("T2S-trivial", "Trivial")
    sc = classify_size(k, q)
    if sc.kind != "pure_power":
        raise InvalidInputError(
            f"|A| = {k} does not divide the group order; A cannot be a tile"
        )
    profile = zero_set(A)
    B, trace = _tile_spectrum(A, T, sc.s, profile)
    if _spectral_violation(A, B, profile) is not None:
        raise InvalidInputError(
            f"{trace.theorem} {trace.case}: constructed spectrum failed verification; "
            "the input is not the tile it was claimed to be"
        )
    return B, trace


def _tile_spectrum(
    A: GroupSet, T: GroupSet | None, t_exp: int, profile: ZeroProfile
) -> tuple[GroupSet, CaseTrace]:
    """spectrum_from_tile's build for |A| = p^t_exp, between the two checks."""
    q = A.params
    if t_exp == 1:
        # |A| = p: the multiples of any zero form a spectrum.
        if profile.is_empty():
            raise InvalidInputError("zero set is empty; a nontrivial tile cannot have one")
        zx, zy = divmod(min(_lowest_index(q, rid) for rid in profile.rep_ids()), q.pn)
        B = GroupSet.from_elements(q, ((r * zx % q.p, r * zy % q.pn) for r in range(q.p)))
        return B, CaseTrace("T2S-p", "Main", {"zero": (zx, zy)})

    levels_I = tuple(sorted(profile.I))
    if len(levels_I) == t_exp:
        B = GroupSet.from_elements(q, ((0, y) for y in _span_digits(q, levels_I)))
        return B, CaseTrace("T2S-pt", "IFull", {"I": levels_I})
    if len(levels_I) != t_exp - 1:
        raise InvalidInputError(
            f"{len(levels_I)} axis-zero levels are incompatible with a tile of size "
            f"p^{t_exp}; A is not a tile"
        )

    if T is None:
        if q.order > ORACLE_ORDER_LIMIT:
            raise MissingPartnerError(
                "a complement is required for this case split and the group is too "
                "large for the brute-force search; pass T explicitly"
            )
        T = find_complement_bruteforce(A)
        if T is None:
            raise InvalidInputError("no tiling complement exists; A is not a tile")
    profile_T = zero_set(T)
    levels_J = tuple(sorted(profile_T.I))

    case, payload = _tile_spectrum_case(q, profile, profile_T)
    if case == "Case2":
        d, b_k = payload["d"], payload["b_k"]
        span = _span_digits(q, levels_I)
        B = GroupSet.from_elements(
            q, ((s0 * d % q.p, s0 * q.p**b_k + y) for s0 in range(q.p) for y in span)
        )
        return B, CaseTrace("T2S-pt", "Case2", {"d": d, "b_k": b_k, "I": levels_I, "J": levels_J})
    if case == "Case3":
        span = _span_digits(q, levels_I)
        B = GroupSet.from_elements(q, ((s0, y) for s0 in range(q.p) for y in span))
        return B, CaseTrace("T2S-pt", "Case3", {"I": levels_I, "J": levels_J})
    if case == "Case1":
        raise ContradictionError(
            "the complement carries the zero pattern of a spectrum larger than "
            "itself (branch Case1); the pair cannot be a genuine tiling pair",
            branch="Case1",
        )
    if case == "Case3-axis":
        raise ContradictionError(
            "(1,0) annihilates the complement alongside all its mixed zeros "
            "(branch Case3); the pair cannot be a genuine tiling pair",
            branch="Case3-axis",
        )
    raise InvalidInputError(
        "no construction case matches the zero sets; the pair is not a genuine "
        "tiling pair"
    )


def _lowest_index(params: GroupParams, rid: int) -> int:
    """Lowest element index in the class with rep id rid.

    The class of (1, 0) is {(s, 0)}, lowest at (1, 0).  The class of
    (c, p^i) is {(s*c, s*p^i)} over units s: for c = 0 its lowest element is
    (0, p^i); otherwise s = c^-1 mod p gives first coordinate 1 and the
    smallest second one.
    """
    if rid == 0:
        return params.pn
    i, c = divmod(rid - 1, params.p)
    if c == 0:
        return params.p**i
    return params.pn + pow(c, -1, params.p) * params.p**i


def _tile_spectrum_case(
    params: GroupParams, profile_A: ZeroProfile, profile_T: ZeroProfile
) -> tuple[str, dict]:
    """Case split for |A| = p^t with t-1 axis-zero levels I of A and
    complement levels J, the axis-zero levels of T.

    Checked in order: Case2 (a mixed zero of A at a complement level, below
    which A carries every mixed zero), then the all-mixed-zeros premise
    (Case3, where (1,0) must annihilate A, not T), then the mirrored Case1
    pattern on T.  The last two returns only fire on non-genuine pairs.
    In each of Case2 and Case1, d is the least c with (c, p^level) a zero.
    """
    full = (1 << params.p) - 1
    levels_I, levels_J = sorted(profile_A.I), sorted(profile_T.I)

    def full_level(profile: ZeroProfile, i: int) -> bool:
        return profile.level(i) == full

    for b_k in levels_J:
        if not all(full_level(profile_A, a) for a in levels_I if a < b_k):
            continue
        level = profile_A.level(b_k)
        if level:
            return "Case2", {"d": (level & -level).bit_length() - 1, "b_k": b_k}

    if all(full_level(profile_A, a) for a in levels_I) and all(
        full_level(profile_T, b) for b in levels_J
    ):
        if profile_T.has_unit_axis:
            return "Case3-axis", {}
        if profile_A.has_unit_axis:
            return "Case3", {}

    for a_k in levels_I:
        if not all(full_level(profile_T, b) for b in levels_J if b < a_k):
            continue
        level = profile_T.level(a_k)
        if level:
            return "Case1", {"d": (level & -level).bit_length() - 1, "a_k": a_k}
    return "NoCase", {}


# ---------------------------------------------------------------------------
# Spectral set -> tiling complement


def complement_from_spectrum(A: GroupSet, B: GroupSet | None = None) -> tuple[GroupSet, CaseTrace]:
    """Build a tiling complement T for a spectral set A, |A| * |T| = |G|.

    A supplied spectrum B is checked first, at any size, and consulted
    where the case split needs its axis-zero levels or a difference
    witness; without one, a spectrum is searched when the group order is
    within the oracle cap.  The built T is checked before it is returned.
    zero_set(A) is computed at most once: for the check of B, or where the
    case split first reads it, and not for the sizes decided without it.
    """
    if A.cardinality == 0:
        raise InvalidInputError("the empty set is not spectral")
    profile = None
    if B is not None:
        _require_same_params(A.params, B.params)
        profile = zero_set(A)
        if _spectral_violation(A, B, profile) is not None:
            raise InvalidInputError("supplied spectrum fails the spectral-pair check")
    T, trace = _spectral_complement(A, B, profile)
    if not verify_tiling_pair(A, T):
        raise InvalidInputError(
            f"{trace.theorem} {trace.case}: constructed complement failed verification; "
            "the input is not the spectral set it was claimed to be"
        )
    return T, trace


def _spectral_complement(
    A: GroupSet, B: GroupSet | None, profile: ZeroProfile | None
) -> tuple[GroupSet, CaseTrace]:
    """complement_from_spectrum's build, between the two checks."""
    q = A.params
    k = A.cardinality
    if k == 1:
        T = GroupSet.full(q)
        return T, CaseTrace("S2T-trivial", "Trivial")
    if k > q.pn:
        if k == q.order:
            return GroupSet.from_indices(q, [0]), CaseTrace("S2T-big", "Main")
        raise InvalidInputError(
            f"a spectral set with |A| = {k} > p^n = {q.pn} must be the whole group"
        )

    sc = classify_size(k, q)
    if sc.kind == "mixed":
        raise NonSpectralSizeError(
            f"|A| = {sc.m} * {q.p}^{sc.s} with 2 <= m <= p-1 admits no spectrum",
            witness=sc,
        )
    if sc.kind == "other":
        if sc.s == 0:
            raise InvalidInputError(
                f"|A| = {k} is not divisible by p = {q.p}; a nontrivial spectral "
                "set must have a nonempty zero set, which forces p to divide |A|"
            )
        # m * p^s with m > p: existence is refuted by search when feasible.
        if B is None:
            if q.order > ORACLE_ORDER_LIMIT:
                raise MissingPartnerError(
                    "cannot classify this cardinality without a spectrum search; "
                    "pass B explicitly or use a smaller group"
                )
            if find_spectrum_bruteforce(A) is None:
                raise InvalidInputError(f"A is not spectral (no spectrum of size {k} exists)")
        raise InvalidInputError(
            f"|A| = {k} matches no complement construction; such a set cannot be spectral"
        )

    s = sc.s
    if profile is None:
        profile = zero_set(A)

    if s == 1:
        return _complement_size_p(q, profile)

    levels_I = tuple(sorted(profile.I))
    if len(levels_I) == s:
        positions = [q.n - 1 - i for i in range(q.n) if i not in profile.I]
        span = _span_digits(q, positions)
        T = GroupSet.from_elements(q, ((x, y) for x in range(q.p) for y in span))
        return T, CaseTrace("S2T-ps", "Case1", {"I": levels_I})
    if len(levels_I) != s - 1:
        raise InvalidInputError(
            f"{len(levels_I)} axis-zero levels are incompatible with a spectral set "
            f"of size p^{s}; A is not spectral"
        )

    if B is None:
        if q.order > ORACLE_ORDER_LIMIT:
            raise MissingPartnerError(
                "a spectrum is required for this case split and the group is too "
                "large for the brute-force search; pass B explicitly"
            )
        B = find_spectrum_bruteforce(A)
        if B is None:
            raise InvalidInputError("A is not spectral (no spectrum exists)")
    profile_B = zero_set(B)
    levels_J = tuple(sorted(profile_B.I))

    if len(levels_J) == s - 1:
        positions = [i for i in range(q.n) if i not in profile_B.I]
        T = GroupSet.from_elements(q, ((0, y) for y in _span_digits(q, positions)))
        return T, CaseTrace("S2T-ps", "Case2", {"I": levels_I, "J": levels_J})
    if len(levels_J) != s:
        raise InvalidInputError(
            f"{len(levels_J)} axis-zero levels are incompatible with a spectrum of "
            f"size p^{s}; the pair is not genuine"
        )

    j0 = next((j for j in levels_J if (q.n - 1 - j) not in profile.I), None)
    if j0 is None:
        raise InvalidInputError(
            "every complement level of the spectrum mirrors into the zero set of A; "
            "impossible for a genuine pair of this size"
        )
    c, pair = _case3_witness(q, B, j0)
    positions = [q.n - 1 - i for i in range(q.n) if i not in profile.I]
    T = GroupSet.from_elements(
        q,
        (((-c * _digit(y, j0, q.p)) % q.p, y) for y in _span_digits(q, positions)),
    )
    return T, CaseTrace(
        "S2T-ps",
        "Case3",
        {"I": levels_I, "J": levels_J, "j0": j0, "c": c, "pair": pair},
    )


def _digit(y: int, pos: int, p: int) -> int:
    return (y // p**pos) % p


def _complement_size_p(params: GroupParams, profile: ZeroProfile) -> tuple[GroupSet, CaseTrace]:
    q = params
    if profile.has_unit_axis:
        T = GroupSet.from_elements(q, ((0, y) for y in range(q.pn)))
        return T, CaseTrace("S2T-p", "Case1")
    if profile.I:
        level = min(profile.I)
        positions = [i for i in range(q.n) if i != q.n - 1 - level]
        span = _span_digits(q, positions)
        T = GroupSet.from_elements(q, ((x, y) for x in range(q.p) for y in span))
        return T, CaseTrace("S2T-p", "Case2", {"level": level})
    # no (1, 0) and no (0, p^i) here, so every zero is a (c, p^i) with c != 0:
    # take the one of lowest element index c * p^n + p^i
    rid = min(profile.rep_ids(), key=group_tables(q).rep_elem_index.__getitem__, default=None)
    if rid is None:
        raise InvalidInputError("zero set is empty; a nontrivial spectral set cannot have one")
    level, c = divmod(rid - 1, q.p)
    cinv = pow(c, -1, q.p)
    T = GroupSet.from_elements(
        q,
        (((-cinv * _digit(y, q.n - 1 - level, q.p)) % q.p, y) for y in range(q.pn)),
    )
    return T, CaseTrace("S2T-p", "Case3", {"c": c, "level": level})


def _case3_witness(
    params: GroupParams, B: GroupSet, j0: int
) -> tuple[int, tuple[tuple[int, int], tuple[int, int]]]:
    """First pair (t,x), (t',x') of B with t != t' and x - x' of exact
    valuation i = n-1-j0; returns c = (d - d') * (t-t')^{-1} mod p, from
    the digits d, d' of x, x' at i, and the pair.

    Such a difference lies in a class (c', p^i) with c' != 0, so the pair
    is the first one over those p-1 classes.
    """
    q = params
    p = q.p
    i = q.n - 1 - j0
    pairs = _coordinates(B)
    hit = _first_pair(p, pairs, range(2 + i * p, 1 + (i + 1) * p))
    if hit is None:
        raise InvalidInputError(
            "no difference of the spectrum has the required valuation; the pair is "
            "not genuine"
        )
    (t1, x1), (t2, x2) = pairs[hit[0]], pairs[hit[1]]
    c = (_digit(x1, i, p) - _digit(x2, i, p)) * pow(t1 - t2, -1, p) % p
    return c, ((t1, x1), (t2, x2))
