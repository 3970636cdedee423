"""Ground-truth searches and the exhaustive tile/spectral cross-check.

The tiling verifier restates its pair condition directly; the spectral
one decides every difference of B by class, in one pass over B per class
outside the zero set, without scanning pairs.  The searches are
deterministic brute force: a spectrum is a size-|A| clique containing 0
in the graph whose edges are differences lying in the zero set, found in
lexicographic branch order; a tiling complement is an exact cover by
translates, normalized so the cover always uses the translate by 0, with
first-fail cell selection and translate columns tried in ascending index
order.  Both searches keep an explicit stack, so their depth is bounded
by the group order, not by the recursion limit, and nothing per vertex
or offset besides it.

enumerate_and_check sweeps the subsets of the given cardinalities (all
of them by default), decides tile and spectral for every subset by the
oracles, cross-checks the constructive algorithms on every positive, and
reports any disagreement.  One memo on the zero profile and |A| holds
both verdicts (A tiles with T exactly when |A||T| = |G| and Z(A) and
Z(T) together hold every nonzero character) and every check that
depends only on them: divisibility, size obstruction, pigeonhole and
tile against spectral are decided once per entry and reported on every
subset it serves.  The key is a guard mask, one bit per class outside
the zero set, from per-byte tables and no loop over the classes.  Each
construction runs once per entry, since it reads a set only through
|A|, the zero set and the partner besides the set's own tiling-pair
check; the entry then keeps byte tables of the translates of the T that
check used and the built complement's key, so each later positive's
tiling-pair checks are one table sum each and its zero-cover check one
AND of two keys.  The canonical filter is canonicalize's orbit scan,
stopped at the first smaller image: two ANDs reject a set with no
element on y = 0 or none on x = 0, and the scan sums each unit multiple
from per-byte tables and rotates it through the translations by masked
shifts.  Work is split into shards whose merge is independent of the
shard count, so reports are byte-identical however the sweep is
partitioned: the colex ranks of each size are cut into blocks of
_SHARD_BLOCK, walked by Gosper's successor, and the blocks of all
sizes, numbered in one sequence, are dealt round-robin to the shards.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from math import comb

from .charsum import ZeroProfile, _coordinates, zero_set
from .errors import CapacityError, ParameterError
from .group import (
    SWEEP_ORDER_LIMIT,
    Element,
    GroupParams,
    GroupSet,
    GroupTables,
    _mask_of,
    _require_same_params,
    difference_set,
    group_tables,
)
from .structure import classify_size, divisibility_exponent

# Largest group order accepted by the per-set searches.
ORACLE_ORDER_LIMIT = 2**16
# Every sweep is size-filtered (a full power-set sweep filters on every
# size) and allowed up to SWEEP_ORDER_LIMIT, within a subset budget.
ENUM_SUBSET_BUDGET = 2**27
# More shards than this are refused before any work list is built.
ENUM_SHARD_LIMIT = 1024
# Colex ranks of one size per block of a shard's work.  Blocks go to the
# shards round-robin, not as one range each: orbit minima are the smallest
# bitmaps, so a canonical sweep's expensive sets crowd the lowest ranks.
# Blocks are numbered across the sizes in turn, so the small sizes (one
# block or a few, dense in minima) do not all land on shard 0.
_SHARD_BLOCK = 256


# ---------------------------------------------------------------------------
# Pair verifiers


def spectral_pair_violation(A: GroupSet, B: GroupSet) -> Element | str | None:
    """None if (A, B) is a spectral pair, else the first offending difference.

    The witness is v - u for the first pair u < v of B, in ascending index
    order, whose difference lies outside the zero set of A (the zero set is
    closed under negation, so one direction decides both); a message string
    when the sizes already disagree.  No pair of B is scanned: the check
    makes one pass over B per class outside the zero set, O(|B|(1 + p*n))
    for the 1 + p*n classes, and builds no group-sized table.
    """
    found = spectral_violation_pair(A, B)
    if isinstance(found, tuple):
        u, v = found
        return v - u
    return found


def spectral_violation_pair(A: GroupSet, B: GroupSet) -> tuple[Element, Element] | str | None:
    """The pair (u, v) of B behind spectral_pair_violation's witness v - u,
    the same message when the sizes disagree, or None for a spectral pair."""
    return _spectral_violation(A, B, None)


def _spectral_violation(
    A: GroupSet, B: GroupSet, profile: ZeroProfile | None
) -> tuple[Element, Element] | str | None:
    """spectral_violation_pair for a caller that already holds zero_set(A).

    Of A it reads only |A| and the profile, when one is passed.
    """
    _require_same_params(A.params, B.params)
    k = B.cardinality
    if A.cardinality != k:
        return f"|A| = {A.cardinality} but |B| = {k}"
    q = A.params
    bits = (zero_set(A) if profile is None else profile).key()
    pairs = _coordinates(B)
    hit = _first_pair(q.p, pairs, [rid for rid in range(1 + q.n * q.p) if not bits >> rid & 1])
    if hit is None:
        return None
    return q.element(*pairs[hit[0]]), q.element(*pairs[hit[1]])


def _first_pair(p: int, pairs: list, rids) -> tuple[int, int] | None:
    """First pair u < v of positions in pairs, the ascending (x, y) of a
    set B, whose difference lies in one of the classes with ids rids, or
    None.

    v - u lies in the class (1,0) iff y_u = y_v, and in the class (c, p^i)
    iff y_u = y_v mod p^i, the digits d_i(y) = (y // p^i) mod p differ, and
    x - c*d_i(y) agrees mod p.  So each class is one ascending pass over B
    that keeps, per key, the first element's position and digit: the first
    later element of that key with another digit is its partner.  That is
    exact, since if any element of a key has a partner, the key's first
    element has one at least as early.  The least such pair over all
    classes is returned.
    """
    best = None
    for rid in rids:
        if rid == 0:  # key y, digit x
            kds = [(y, x) for x, y in pairs]
        else:  # a key and a digit at level i fix (x, y mod p^(i+1))
            i, c = divmod(rid - 1, p)
            w = p**i
            kds = [(y % w * p + (x - c * (y // w)) % p, y // w % p) for x, y in pairs]
        first: dict[int, tuple[int, int]] = {}
        for v, (key, d) in enumerate(kds):
            u, du = first.setdefault(key, (v, d))
            if d != du and (best is None or (u, v) < best):
                best = (u, v)
    return best


def verify_spectral_pair(A: GroupSet, B: GroupSet) -> bool:
    """True iff |A| = |B| and every nonzero difference of B annihilates A."""
    return spectral_pair_violation(A, B) is None


def tiling_pair_violation(A: GroupSet, T: GroupSet) -> Element | str | None:
    """None if (A, T) is a tiling pair, else the first offending witness.

    Returns a message when |A| * |T| != |G|, otherwise the lowest-index
    nonzero element shared by the two difference sets.  With S the smaller
    set and L the larger, the pair tiles iff the |S| translates of L are
    disjoint; only when they are not are the differences d of S scanned in
    ascending order for the first with L and L + d overlapping.
    """
    _require_same_params(A.params, T.params)
    q = A.params
    if A.cardinality * T.cardinality != q.order:
        return f"|A| * |T| = {A.cardinality} * {T.cardinality} != {q.order}"
    S, L = (A, T) if A.cardinality <= T.cardinality else (T, A)
    t = group_tables(q)
    translate = t.translate_mask
    idxs = S.indices()
    cover = 0
    for g in idxs:
        shifted = translate(L.mask, g)
        if cover & shifted:
            break
        cover |= shifted
    else:
        return None
    for d in difference_set(S).indices()[1:]:  # index 0 is the zero difference
        if L.mask & translate(L.mask, d):
            return q.element_from_index(d)
    raise RuntimeError("overlapping translates without a shared difference")


def verify_tiling_pair(A: GroupSet, T: GroupSet) -> bool:
    """True iff |A| * |T| = |G| and the difference sets meet only at 0."""
    return tiling_pair_violation(A, T) is None


# ---------------------------------------------------------------------------
# Brute-force searches


def _find_clique(t: GroupTables, zmask: int, k: int) -> int | None:
    """First size-k clique through vertex 0, as a bitmap.

    Vertices are element indices, branched on in lexicographic order; u
    and v are adjacent iff u - v lies in zmask.  Restricting to cliques
    containing 0 loses nothing because the edge relation is translation
    invariant.  The search keeps its own stack, so its depth is not
    bounded by the interpreter's recursion limit, and nothing per vertex:
    it holds at most k candidate bitmaps and the indices of the chosen
    vertices, whose bitmap is built only on return.
    """
    if k <= 0:
        return None
    if k == 1:
        return 1
    translate = t.translate_mask
    chosen = [0]  # the indices of the chosen vertices
    cands = [zmask]  # per depth: untried vertices adjacent to chosen, above its last
    while cands:
        cand = cands[-1]
        need = k - len(chosen)
        if cand.bit_count() < need:
            cands.pop()
            chosen.pop()
            continue
        b = cand & -cand
        cand ^= b
        cands[-1] = cand
        v = b.bit_length() - 1
        chosen.append(v)
        if need == 1:
            return _mask_of(t.order, chosen)
        cands.append(cand & translate(zmask, v))  # v's neighbours
    return None


def _find_cover(t: GroupTables, mask: int) -> int | None:
    """Bitmap of the g with disjoint translates mask+g covering the group.

    The translate by 0 is always used (any tiling complement can be
    translated to contain 0).  Cell selection is first-fail: the uncovered
    index with the fewest usable translates, lowest index on ties.  At each
    node blocked = cover - A is computed once, and the translate by g is
    usable exactly when bit g of blocked is clear.  The search keeps only
    its stack and one running cover: nothing per offset.
    """
    k = mask.bit_count()
    if k == 0 or t.order % k:
        return None
    full = t.full_mask
    if mask == full:
        return 1
    idxs = GroupSet(t.params, mask).indices()
    translate, sub, minus = t.translate_mask, t.sub_index, t.minus_mask

    def branches(cover: int) -> list[int]:
        # the usable translates at the first-fail cell, descending so that
        # pop() tries them in ascending order; [] at a dead cell
        blocked = minus(cover, idxs)
        best: list[int] | None = None
        m = full & ~cover
        while m:
            b = m & -m
            m ^= b
            c = b.bit_length() - 1
            cands = []
            for a in idxs:
                g = sub(c, a)
                if not blocked >> g & 1:
                    cands.append(g)
            if not cands:
                return cands
            if best is None or len(cands) < len(best):
                best = cands
                if len(cands) == 1:
                    break
        best.sort(reverse=True)
        return best

    # one frame per pick, on an explicit stack: (the pick, the translates
    # untried after it).  The cover and the picks are kept once; the picked
    # translates are disjoint, so a frame undoes its pick by XOR as it pops.
    cover, picks = mask, 1
    stack = [(0, branches(mask))]
    while stack:
        g, todo = stack[-1]
        if not todo:
            stack.pop()
            cover ^= translate(mask, g)
            picks ^= 1 << g
            continue
        g = todo.pop()
        cover |= translate(mask, g)
        picks |= 1 << g
        if cover == full:
            return picks
        stack.append((g, branches(cover)))
    return None


def _check_oracle_cap(params: GroupParams) -> None:
    if params.order > ORACLE_ORDER_LIMIT:
        raise CapacityError(
            f"group order {params.order} exceeds the oracle cap {ORACLE_ORDER_LIMIT}"
        )


def find_spectrum_bruteforce(A: GroupSet) -> GroupSet | None:
    """Some B with verify_spectral_pair(A, B), or None if none exists.

    The empty set is treated as non-spectral.  The returned spectrum always
    contains (0, 0) and is the lexicographically first such set.
    """
    _check_oracle_cap(A.params)
    if A.cardinality == 0:
        return None
    t = group_tables(A.params)
    zmask = zero_set(A).zero_mask()
    clique = _find_clique(t, zmask, A.cardinality)
    if clique is None:
        return None
    return GroupSet(A.params, clique)


def find_complement_bruteforce(A: GroupSet) -> GroupSet | None:
    """Some T with verify_tiling_pair(A, T), or None; deterministic first solution."""
    _check_oracle_cap(A.params)
    if A.cardinality == 0:
        return None
    cover = _find_cover(group_tables(A.params), A.mask)
    if cover is None:
        return None
    return GroupSet(A.params, cover)


# ---------------------------------------------------------------------------
# Canonical forms under translations and unit scalings


def _orbit_min(t: GroupTables, orbit: tuple, mask: int, first_below: bool) -> int:
    """Smallest bitmap in the orbit {a*mask + g : a unit, g in G}, read
    from orbit = t.orbit_tables, which a sweep reads once, not per mask.

    With first_below the scan stops at the first image below mask and
    returns it, so the result equals mask exactly when mask is the orbit
    minimum; the sweep's canonical filter needs only that answer.  Two
    ANDs settle most masks before any scan: a nonempty orbit minimum has
    an element with y = 0 (else shifting every y down by one lowers
    every bit) and one with x = 0 (likewise for x).  So without an
    element on y = 0, mask >> 1 is its translate by (0, -1) and lies
    below it; without one on x = 0, mask >> p^n is its translate by
    (-1, 0).  The scan sums a*mask from byte tables for each unit a,
    doubles it to m | m << |G|, and walks the translations y offset first:
    a y offset is two masked shifts of the doubled bitmap, and each x
    offset one right shift cut to the order.  Only the minimum or the
    verdict is returned, so the scan order is free.
    """
    x0, y0, scalings, y_rotations, x_shifts = orbit
    if first_below and mask:
        if not mask & y0:
            return mask >> 1
        if not mask & x0:
            return mask >> t.pn
    full, order = t.full_mask, t.order
    best = mask
    for tables in scalings:
        if tables is None:  # a = 1
            scaled = mask
        else:
            scaled = sum(map(list.__getitem__, tables, mask.to_bytes(len(tables), "little")))
        doubled = scaled | scaled << order
        for keep, up, move, down in y_rotations:
            rot = (doubled & keep) << up | (doubled & move) >> down
            for right in x_shifts:
                img = rot >> right & full
                if img < best:
                    if first_below:
                        return img
                    best = img
    return best


def canonicalize(A: GroupSet) -> GroupSet:
    """Lexicographically smallest bitmap in the orbit {a*A + g : a unit, g in G}.

    Groups above order SWEEP_ORDER_LIMIT, where the orbit scan's byte
    tables stop, are refused with CapacityError.
    """
    if A.params.order > SWEEP_ORDER_LIMIT:
        raise CapacityError(
            f"canonicalize capped at order {SWEEP_ORDER_LIMIT}; got {A.params.order}"
        )
    t = group_tables(A.params)
    return GroupSet(A.params, _orbit_min(t, t.orbit_tables, A.mask, False))


# ---------------------------------------------------------------------------
# Exhaustive enumeration


@dataclass(frozen=True)
class Mismatch:
    """One failed cross-check, recorded with the offending subset."""

    kind: str
    mask: int
    size: int
    detail: str


@dataclass
class EnumerationReport:
    """Outcome of an exhaustive sweep; mismatches must be empty.

    wall_time, stats and shard_stats are informational and excluded from
    the canonical serialization so reports compare byte-for-byte across
    shard counts.  stats maps each verdict ("spectral", "tile") to its memo
    lookups and misses (a tile miss is one complement search), and
    "construction" to the round trips and the construction calls, the
    ones a memo entry could not serve, summed over shards; shard_stats
    holds each shard's (subsets examined, seconds), in shard order.
    """

    params: GroupParams
    size_filter: tuple[int, ...] | None
    subsets_examined: int
    orbits_examined: int | None
    tiles: int
    spectral: int
    mismatches: list[Mismatch]
    wall_time: float
    stats: dict[str, dict[str, int]] = field(default_factory=dict)
    shard_stats: list[tuple[int, float]] = field(default_factory=list)

    def canonical_dict(self) -> dict:
        from .setio import serialize_set

        return {
            "p": self.params.p,
            "n": self.params.n,
            "size_filter": list(self.size_filter) if self.size_filter is not None else None,
            "subsets_examined": self.subsets_examined,
            "orbits_examined": self.orbits_examined,
            "tiles": self.tiles,
            "spectral": self.spectral,
            "mismatches": [
                {
                    "kind": mm.kind,
                    "size": mm.size,
                    "detail": mm.detail,
                    "set": serialize_set(GroupSet(self.params, mm.mask)),
                }
                for mm in self.mismatches
            ],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"


def _unrank_colex(order: int, k: int, rank: int) -> int:
    """The k-subset bitmap of colex rank `rank` among the subsets of
    range(order): the rank-th smallest integer with k bits set, read off
    the combinatorial number system rank = sum of comb(c_i, i)."""
    mask = 0
    c = order
    for i in range(k, 0, -1):
        c -= 1
        while comb(c, i) > rank:  # largest c below the last one that fits
            c -= 1
        rank -= comb(c, i)
        mask |= 1 << c
    return mask


def _k_subsets(order: int, k: int, shard_i: int, shard_n: int):
    """Shard shard_i's k-subsets of range(order), as bitmaps in colex order.

    The C(order, k) colex ranks are cut into blocks of _SHARD_BLOCK, and
    the shard takes blocks shard_i, shard_i + shard_n, ...  Each block's
    first bitmap is unranked once and the rest follow by Gosper's
    successor (the next larger integer with the same bit count).
    """
    total = comb(order, k)
    for lo in range(shard_i * _SHARD_BLOCK, total, shard_n * _SHARD_BLOCK):
        x = _unrank_colex(order, k, lo)
        yield x
        # k >= 1 whenever a step is taken: C(order, 0) = 1 leaves none
        for _ in range(min(_SHARD_BLOCK, total - lo) - 1):
            c = x & -x
            r = x + c
            x = ((r ^ x) >> 2) // c | r
            yield x


def _run_shard(args: tuple) -> tuple:
    # One worker's share of the sweep.  Must stay importable at module level
    # so multiprocessing can dispatch it.
    from . import constructions

    start = time.perf_counter()
    p, n, sizes, use_canonical, shard_i, shard_n = args
    params = GroupParams(p, n)
    t = group_tables(params)
    order = t.order
    pn = t.pn
    full = t.full_mask
    nbytes = -(-order // 8)
    orbit = t.orbit_tables if use_canonical else None
    # The memo maps g | k, for g the guard key of a set (its low 7 bits
    # clear) and k <= 32 its size, to both verdicts: a complement of one
    # set with that zero profile and size is one of every such set.  An
    # entry holds the spectrum and the complement (None if none), the
    # (kind, detail) of every check failing on each set it serves and, per
    # construction, what its round trips keep.  A miss adds one entry: the
    # spectral misses are len(memo).
    memo: dict[int, list] = {}
    # translate sums per complement mask, one table set for every entry
    # whose sets are checked against that complement
    sums_of: dict[int, list[list[int]]] = {}

    examined = 0
    orbits = 0
    empties = 0
    tile_lookups = 0
    covers = 0  # _find_cover calls, the tile misses
    calls = 0  # construction calls, the construction misses
    tiles = 0
    spectral = 0
    mismatches: list[Mismatch] = []
    profile_key = t.profile_key

    def round_trip(name, mask, k, partner, kept):
        # A construction reads a set A only through |A|, its zero profile
        # and the partner, which the sets of an entry share, and through
        # A's own tiling-pair check against a T: the supplied complement,
        # or the one built.  So once a set of the entry passes, kept holds the
        # translate sums and the guard key of that T, and a later set costs
        # one table sum (its size is the entry's, so the sum decides).
        if kept is not None and sum(
            map(list.__getitem__, kept[0], mask.to_bytes(nbytes, "little"))
        ) == full:
            return kept
        # the construction is looked up by name on each call, so a wrapper
        # put on the module attribute sees each entry's first call and
        # every failing set
        nonlocal calls
        calls += 1
        try:
            built, _ = getattr(constructions, name)(GroupSet(params, mask), partner)
        except Exception as exc:  # any failure here is a finding
            mismatches.append(
                Mismatch("construction", mask, k, f"{name}: {type(exc).__name__}: {exc}")
            )
            return None
        tmask = (partner if name == "spectrum_from_tile" else built).mask
        sums = sums_of.get(tmask)
        if sums is None:
            sums = sums_of[tmask] = t.translate_sums(tmask)
        return sums, profile_key(tmask)

    first = 0  # sweep-wide number of the current size's first block
    for k in sizes:
        mixed = k > 0 and classify_size(k, params).kind == "mixed"
        divides = k > 0 and order % k == 0
        looked_up = orbits if use_canonical else examined
        for mask in _k_subsets(order, k, (shard_i - first) % shard_n, shard_n):
            examined += 1
            if use_canonical:
                if _orbit_min(t, orbit, mask, True) != mask:
                    continue
                orbits += 1
            if k == 0:
                empties += 1
                continue
            g = profile_key(mask)
            entry = memo.get(g | k)
            if entry is None:
                profile = ZeroProfile(params, t.rep_bits(g))
                bmask = _find_clique(t, profile.zero_mask(), k) or 0
                tmask = (_find_cover(t, mask) or 0) if divides else 0
                covers += divides
                dp = p ** divisibility_exponent(profile)
                failed = []
                if k % dp:
                    failed.append(("divisibility", f"certified divisor {dp} does not divide {k}"))
                if bmask and mixed:
                    failed.append(("witness", "spectrum found despite size obstruction"))
                if bmask and pn < k < order:
                    failed.append(("pigeonhole", "spectral set larger than p^n is not the group"))
                tl, sp = tmask != 0, bmask != 0
                if tl != sp:
                    failed.append(("theorem", f"tile={tl} but spectral={sp}"))
                entry = memo[g | k] = [
                    GroupSet(params, bmask) if bmask else None,
                    GroupSet(params, tmask) if tmask else None,
                    tuple(failed),
                    None,  # kept by spectrum_from_tile
                    None,  # kept by complement_from_spectrum
                ]
            B, T, failed, _, _ = entry
            for kind, detail in failed:
                mismatches.append(Mismatch(kind, mask, k, detail))
            if T is not None:
                tiles += 1
                kept = round_trip("spectrum_from_tile", mask, k, T, entry[3])
                entry[3] = kept or entry[3]
            if B is None:
                continue
            spectral += 1
            kept = round_trip("complement_from_spectrum", mask, k, B, entry[4])
            if kept is None:
                continue
            entry[4] = kept
            if g & kept[1]:  # a class outside both zero sets
                mismatches.append(
                    Mismatch("zero-cover", mask, k, "zero sets of tiling pair do not cover")
                )
        if divides:
            tile_lookups += (orbits if use_canonical else examined) - looked_up
        first += -(-comb(order, k) // _SHARD_BLOCK)

    spectral_lookups = (orbits if use_canonical else examined) - empties
    memo_stats = (spectral_lookups, len(memo), tile_lookups, covers, tiles + spectral, calls)
    return (
        examined, orbits if use_canonical else None, tiles, spectral, mismatches, memo_stats,
        time.perf_counter() - start,
    )


def enumerate_and_check(
    params: GroupParams,
    size_filter=None,
    use_canonical: bool = False,
    shards: int = 1,
) -> EnumerationReport:
    """Decide tile and spectral for every subset and cross-check everything.

    Only subsets of the cardinalities in size_filter are examined (all
    sizes 0..|G| without one, the full power set): the colex ranks of each
    size are cut into blocks of contiguous ranks, and the blocks of all
    sizes in turn are dealt round-robin to the shards.  Per subset: both
    oracle verdicts, the divisibility check on the zero profile, the
    cardinality obstruction, the pigeonhole bound (these three decided
    once per zero profile and size), and a construction round trip on
    every tile and every spectral set: each construction is called on a
    memo entry's first set and on any set whose table sum against the
    partner it built fails.  Counts merge by addition and mismatches sort
    by (mask, kind), so the report does not depend on the shard
    decomposition.  Groups above order SWEEP_ORDER_LIMIT, sweeps of more
    than ENUM_SUBSET_BUDGET subsets and more than ENUM_SHARD_LIMIT shards
    are refused with CapacityError, an empty size_filter with
    ParameterError.
    """
    start = time.perf_counter()
    if shards < 1:
        raise ParameterError(f"shards must be >= 1, got {shards}")
    if shards > ENUM_SHARD_LIMIT:
        raise CapacityError(f"shards capped at {ENUM_SHARD_LIMIT}; got {shards}")
    order = params.order
    filt = None if size_filter is None else tuple(sorted(set(size_filter)))
    if filt == ():
        raise ParameterError("the size filter is empty; omit it to sweep every size")
    for k in filt or ():
        if not 0 <= k <= order:
            raise ParameterError(f"size {k} out of range [0, {order}]")
    if order > SWEEP_ORDER_LIMIT:
        raise CapacityError(f"enumeration capped at order {SWEEP_ORDER_LIMIT}; got {order}")
    sizes = range(order + 1) if filt is None else filt
    total = sum(comb(order, k) for k in sizes)
    if total > ENUM_SUBSET_BUDGET:
        raise CapacityError(
            f"{total} subsets exceed the enumeration budget {ENUM_SUBSET_BUDGET} "
            "(use a size filter with fewer subsets)"
        )

    args = [(params.p, params.n, sizes, use_canonical, i, shards) for i in range(shards)]
    if shards == 1:
        results = [_run_shard(args[0])]
    else:
        import multiprocessing  # only a sharded sweep pays for the import

        workers = min(shards, os.cpu_count() or 1)
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_shard, args)

    examined = sum(r[0] for r in results)
    orbits = sum(r[1] for r in results) if use_canonical else None
    tiles = sum(r[2] for r in results)
    spectral = sum(r[3] for r in results)
    mismatches: list[Mismatch] = []
    for r in results:
        mismatches.extend(r[4])
    mismatches.sort(key=lambda mm: (mm.mask, mm.kind))
    memo = [sum(col) for col in zip(*(r[5] for r in results))]
    if examined != total:
        raise RuntimeError(f"shard accounting error: {examined} != {total}")
    return EnumerationReport(
        params=params,
        size_filter=filt,
        subsets_examined=examined,
        orbits_examined=orbits,
        tiles=tiles,
        spectral=spectral,
        mismatches=mismatches,
        wall_time=time.perf_counter() - start,
        stats={
            "spectral": {"lookups": memo[0], "misses": memo[1]},
            "tile": {"lookups": memo[2], "misses": memo[3]},
            "construction": {"lookups": memo[4], "misses": memo[5]},
        },
        shard_stats=[(r[0], r[6]) for r in results],
    )
