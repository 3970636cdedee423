"""Arithmetic of the group Z_p x Z_{p^n}.

Elements are pairs (x, y) with x a residue mod p and y a residue mod p^n.
A subset is a bitmap over the linear indices

    index(x, y) = x * p^n + y,

so membership, translation, and difference sets are word operations on a
single Python integer: difference_set is the OR of the |A| translates
A - a.  The inner product used throughout is

    <u, v> = p^(n-1) * u.x * v.x + u.y * v.y   (mod p^n),

and the multiplicative action of the units of Z_{p^n} is componentwise:
s * (x, y) = (s*x mod p, s*y mod p^n).  Every nonzero element is a unit
multiple of exactly one representative of the form (1, 0) or (c, p^i).
Each unit-equivalence class is named by its rep id: 0 for (1, 0) and
1 + i*p + c for (c, p^i), so a set of classes is a bitmask over rep ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import isqrt
from typing import Iterator

from .errors import CapacityError, ParameterError

# Largest admissible group order p^(n+1).  The single-set commands are
# measured to stay well under a second and a few tens of MB at this order
# on 2-element sets; a bitmap here is a 2 MB integer.
DEFAULT_ORDER_LIMIT = 2**24

# Largest order an exhaustive sweep or canonicalize accepts, and so the
# largest for which any per-group table is prebuilt: the byte tables of
# profile_key, the orbit scan and translate_sums (at most 4 tables of 256
# entries per table set).  Single-set operations count residues instead.
SWEEP_ORDER_LIMIT = 32
# Width of one packed slice count; a count is at most the order, 32 < 2^7.
_FIELD_BITS = 7


def is_prime(p: int) -> bool:
    """Deterministic trial division; GroupParams runs it only on p <= 2^24."""
    return p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))


@dataclass(frozen=True, slots=True)
class GroupParams:
    """The pair (p, n) fixing the ambient group Z_p x Z_{p^n}.

    pn = p^n and order = p^(n+1) are slots set once the pair is admitted:
    every hot path reads them, and a slot read stays fast where a cached
    property in an instance dict does not.  They take no part in init,
    repr, equality or hashing.
    """

    p: int
    n: int
    pn: int = field(init=False, repr=False, compare=False)
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, n = self.p, self.n
        # the trial division runs only on a p the order limit can admit, and
        # the power only on such an n: p >= 2 puts every n >= 24 over it
        if not isinstance(p, int) or p <= DEFAULT_ORDER_LIMIT and not is_prime(p):
            raise ParameterError(f"p must be a prime integer, got {p!r}")
        if not isinstance(n, int) or n < 1:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        if n >= 24 or p ** (n + 1) > DEFAULT_ORDER_LIMIT:
            raise ParameterError(
                f"group order p^(n+1) = {p}^{n + 1} exceeds the limit {DEFAULT_ORDER_LIMIT}"
            )
        object.__setattr__(self, "pn", p**n)
        object.__setattr__(self, "order", p ** (n + 1))

    def element(self, x: int, y: int) -> "Element":
        return Element(self, x, y)

    def element_from_index(self, index: int) -> "Element":
        if not 0 <= index < self.order:
            raise ParameterError(f"element index {index} out of range [0, {self.order})")
        x, y = divmod(index, self.pn)
        return Element(self, x, y)

    def zero(self) -> "Element":
        return Element(self, 0, 0)

    def elements(self) -> Iterator["Element"]:
        """All group elements in ascending index order."""
        for index in range(self.order):
            yield self.element_from_index(index)

    def units(self) -> list[int]:
        """Residues of Z_{p^n} coprime to p, ascending."""
        return [a for a in range(1, self.pn) if a % self.p != 0]


@dataclass(frozen=True)
class Element:
    """A group element (x, y) with 0 <= x < p and 0 <= y < p^n."""

    params: GroupParams
    x: int
    y: int

    def __post_init__(self) -> None:
        if not (0 <= self.x < self.params.p and 0 <= self.y < self.params.pn):
            raise ParameterError(
                f"element ({self.x}, {self.y}) out of range for p={self.params.p}, "
                f"n={self.params.n}"
            )

    @property
    def index(self) -> int:
        return self.x * self.params.pn + self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: "Element") -> "Element":
        _require_same_params(self.params, other.params)
        q = self.params
        return Element(q, (self.x + other.x) % q.p, (self.y + other.y) % q.pn)

    def __sub__(self, other: "Element") -> "Element":
        _require_same_params(self.params, other.params)
        q = self.params
        return Element(q, (self.x - other.x) % q.p, (self.y - other.y) % q.pn)

    def scale(self, s: int) -> "Element":
        """Scalar action s * (x, y) = (s*x mod p, s*y mod p^n) for any integer s."""
        q = self.params
        return Element(q, (s * self.x) % q.p, (s * self.y) % q.pn)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def _require_same_params(a: GroupParams, b: GroupParams) -> None:
    if a is not b and a != b:
        raise ParameterError(f"mismatched group parameters: {a} vs {b}")


@dataclass(frozen=True)
class GroupSet:
    """A subset of Z_p x Z_{p^n} stored as a bitmap over element indices."""

    params: GroupParams
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.params.order:
            raise ParameterError("bitmap has bits outside the element index range")

    @classmethod
    def empty(cls, params: GroupParams) -> "GroupSet":
        return cls(params, 0)

    @classmethod
    def full(cls, params: GroupParams) -> "GroupSet":
        return cls(params, (1 << params.order) - 1)

    @classmethod
    def from_indices(cls, params: GroupParams, indices) -> "GroupSet":
        order = params.order
        idxs = list(indices)
        for i in idxs:
            if not 0 <= i < order:
                raise ParameterError(f"element index {i} out of range [0, {order})")
        return cls(params, _mask_of(order, idxs))

    @classmethod
    def from_elements(cls, params: GroupParams, elements) -> "GroupSet":
        p, pn = params.p, params.pn
        idxs = []
        for e in elements:
            if isinstance(e, Element):
                _require_same_params(params, e.params)
                idxs.append(e.index)
                continue
            x, y = e
            if not (0 <= x < p and 0 <= y < pn):
                raise ParameterError(
                    f"element ({x}, {y}) out of range for p={p}, n={params.n}"
                )
            idxs.append(x * pn + y)
        return cls(params, _mask_of(params.order, idxs))

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, e: Element) -> bool:
        _require_same_params(self.params, e.params)
        return bool(self.mask >> e.index & 1)

    def indices(self) -> list[int]:
        """Element indices in ascending order, in one scan of the bitmap."""
        bits = bin(self.mask)[:1:-1]  # least significant bit first
        out = []
        i = bits.find("1")
        while i >= 0:
            out.append(i)
            i = bits.find("1", i + 1)
        return out

    def elements(self) -> list[Element]:
        return [self.params.element_from_index(i) for i in self.indices()]

    def is_full(self) -> bool:
        return self.mask == (1 << self.params.order) - 1


def _mask_of(order: int, idxs) -> int:
    """Bitmap with the given (in-range) bits set, built in one pass."""
    buf = bytearray((order + 7) >> 3)
    for i in idxs:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


# ---------------------------------------------------------------------------
# Core operations


def _split_p(t: int, p: int) -> tuple[int, int]:
    """(s, m) with t = m * p^s and m coprime to p; t must be nonzero."""
    s = 0
    while t % p == 0:
        t //= p
        s += 1
    return s, t


def valuation(t: int, p: int, m: int) -> int | None:
    """Least i with t[i] != 0 in base p, or None for t = 0."""
    if not 0 <= t < p**m:
        raise ParameterError(f"t={t} out of range [0, {p}^{m})")
    return None if t == 0 else _split_p(t, p)[0]


def rep_label(p: int, rid: int) -> str:
    """The representative of class rid as analyze prints it: (1,0) or (c,p^i).

    A negative rid is refused with ParameterError.  Only p is known here, so
    a rid above the group's last one is not caught: it spells a level i >= n.
    """
    if rid < 0:
        raise ParameterError(f"rep id {rid} is negative")
    if rid == 0:
        return "(1,0)"
    i, c = divmod(rid - 1, p)
    return f"({c},p^{i})"


def canonical_rep(u: Element) -> int:
    """The rep id of the class of the nonzero element u.

    Nonzero classes contain exactly one element of the form (1, 0) or
    (c, p^i), so no tie-breaking is ever exercised.  The zero element is
    a class of its own with no rep id and is refused.
    """
    if u.is_zero():
        raise ParameterError("the zero element has no rep id")
    return _rep_id(u.params.p, u.x, u.y)


def class_members(rid: int, params: GroupParams) -> GroupSet:
    """The unit multiples of the representative of class rid; a rid outside
    range(rep_count) is refused with ParameterError."""
    reps = group_tables(params).rep_elem_index
    if not 0 <= rid < len(reps):
        raise ParameterError(f"rep id {rid} out of range [0, {len(reps)})")
    e = params.element_from_index(reps[rid])
    return GroupSet.from_elements(params, (e.scale(a) for a in params.units()))


def scale_translate(A: GroupSet, a: int, g: Element) -> GroupSet:
    """The image {a * e + g : e in A} for a unit a of Z_{p^n}."""
    _require_same_params(A.params, g.params)
    q = A.params
    a %= q.pn
    if a % q.p == 0:
        raise ParameterError(f"a={a} is not a unit of Z_{{{q.p}^{q.n}}}")
    t = group_tables(q)
    return GroupSet(q, t.translate_mask(t.scale_mask(A.mask, a), g.index))


def difference_set(A: GroupSet) -> GroupSet:
    """The set {a - a' : a, a' in A}; contains (0,0) whenever A is nonempty."""
    return GroupSet(A.params, group_tables(A.params).minus_mask(A.mask, A.indices()))


# ---------------------------------------------------------------------------
# Cached per-group tables


def _rep_id(p: int, x: int, y: int) -> int:
    """Rep id of the class of the nonzero element (x, y).

    (1, 0) is id 0; (c, p^i) is id 1 + i*p + c, where y = m * p^i and
    c = x * m^-1 mod p.
    """
    if y == 0:
        return 0
    i, m = _split_p(y, p)
    return 1 + i * p + x * pow(m % p, -1, p) % p


class GroupTables:
    """Lookup structures for one group, shared by all hot paths.

    Everything sized in the group order is a cached property, built on
    first use, so that large (but in-cap) groups only pay for the tables
    their operations actually touch.  Each translation builds its own
    rotation keep mask, so memory stays a few bitmaps whatever the
    translations used; only the orbit scan's tables keep one per y offset.
    """

    # Cached properties go to __dict__, the rest to slots: in a plain instance
    # dict, storing the first cached property made every read such as t.pn
    # about 3x slower (CPython 3.11), and the canonical sweep with it.
    __slots__ = (
        "params", "p", "pn", "pn1", "order", "full_mask", "phi_degree",
        "rep_count", "rep_elem_index", "__dict__",
    )

    def __init__(self, params: GroupParams) -> None:
        p, n = params.p, params.n
        pn = p**n
        order = p * pn
        self.params = params
        self.p = p
        self.pn = pn
        self.pn1 = p ** (n - 1)
        self.order = order
        self.full_mask = (1 << order) - 1
        self.phi_degree = self.pn1 * (p - 1)

        # the index of (1, 0), then of each (c, p^i) at rep id 1 + i*p + c
        self.rep_elem_index = [pn] + [c * pn + p**i for i in range(n) for c in range(p)]
        self.rep_count = len(self.rep_elem_index)

    def _replicated_low_bits(self, width: int) -> int:
        # the low `width` bits of every p^n block, doubling the block count
        # each step so large p costs log p big-int operations, not p
        k = (1 << width) - 1
        blocks = 1
        while blocks < self.p:
            k |= k << (blocks * self.pn)
            blocks *= 2
        return k & self.full_mask

    @cached_property
    def class_masks(self) -> list[int]:
        """Bitmap of each unit-equivalence class, indexed by rep id."""
        class_masks = [0] * self.rep_count
        p, pn = self.p, self.pn
        for idx in range(1, self.order):
            x, y = divmod(idx, pn)
            class_masks[_rep_id(p, x, y)] |= 1 << idx
        return class_masks

    def _require_table_order(self, what: str) -> None:
        if self.order > SWEEP_ORDER_LIMIT:
            raise CapacityError(
                f"{what} tables are only built up to order {SWEEP_ORDER_LIMIT}; "
                f"got {self.order}"
            )

    def _byte_tables(self, images: list[int]) -> list[list[int]]:
        """One table per byte of a mask, mapping the byte's value to the sum
        of images[idx] over its set bits idx, so a function that is
        additive over the elements of a set is one lookup per byte."""
        tables = []
        for base in range(0, self.order, 8):
            table = [0] * 256
            for byte in range(1, 256):
                low = (byte & -byte).bit_length() - 1
                if base + low < self.order:
                    table[byte] = table[byte & (byte - 1)] + images[base + low]
            tables.append(table)
        return tables

    @cached_property
    def key_tables(self) -> tuple:
        """What profile_key reads: byte tables of packed slice counts and
        its masks COMPARED, ADD and GUARD.  Refused above SWEEP_ORDER_LIMIT.

        Element e adds 1 to field rid * p^n + c * p + j for every rep id rid,
        where <e, u> = c + j * p^(n-1) with c < p^(n-1) for its rep u: the
        count of the set on fiber j of residue class c.  Table b maps byte
        b of a mask to the packed counts of its elements, so a set's counts
        are one table lookup per byte.  COMPARED selects every field whose
        right-hand neighbour lies in the same class.
        """
        self._require_table_order("profile_key")
        p, pn, pn1, w = self.p, self.pn, self.pn1, _FIELD_BITS
        packed = [0] * self.order
        for idx in range(self.order):
            for rid, u in enumerate(self.rep_elem_index):
                j, c = divmod(self.inner(idx, u), pn1)
                packed[idx] += 1 << w * (rid * pn + c * p + j)
        field_low = sum(1 << w * (c * p + j) for c in range(pn1) for j in range(p - 1))
        blocks = sum(1 << w * rid * pn for rid in range(self.rep_count))
        guard = blocks << w * (pn - 1)
        return self._byte_tables(packed), field_low * blocks * ((1 << w) - 1), guard - blocks, guard

    @cached_property
    def orbit_tables(self) -> tuple:
        """What the orbit scan of oracle._orbit_min reads.  Refused above
        SWEEP_ORDER_LIMIT.

        - The bits of x = 0 and the bits of y = 0.
        - Per unit a of Z_{p^n}, ascending, the byte tables of the scaling
          e -> a*e, or None for a = 1.  A unit permutes the elements, so
          the sum of the images of a mask's elements is the bitmap of a*mask.
        - Per y offset gy in 0..p^n - 1, the (keep mask, left shift, move
          mask, right shift) that translates a doubled bitmap m | m << order
          by (0, gy): complementary masks that cover both copies.
        - Per x offset gx, 0 last, the right shift order - gx*p^n that,
          cut to the order, takes the doubled bitmap to its translate by
          (gx, 0).
        """
        self._require_table_order("orbit scan")
        p, pn, order = self.p, self.pn, self.order
        scalings = [None]
        for a in self.params.units()[1:]:  # units()[0] is 1
            images = [1 << (a * x % p * pn + a * y % pn) for x in range(p) for y in range(pn)]
            scalings.append(self._byte_tables(images))
        both = (1 << 2 * order) - 1  # every bit of a doubled bitmap
        keeps = [self._replicated_low_bits(pn - gy) for gy in range(pn)]  # at gy = 0, every bit
        y_rotations = [
            (keep | keep << order, gy, both ^ (keep | keep << order), pn - gy)
            for gy, keep in enumerate(keeps)
        ]
        x_shifts = [order - gx * pn for gx in (*range(1, p), 0)]
        return (1 << pn) - 1, keeps[pn - 1], scalings, y_rotations, x_shifts

    def sub_index(self, a: int, b: int) -> int:
        ax, ay = divmod(a, self.pn)
        bx, by = divmod(b, self.pn)
        return ((ax - bx) % self.p) * self.pn + (ay - by) % self.pn

    def translate_mask(self, m: int, g_idx: int) -> int:
        """Bitmap of {e + g : e in m}."""
        gx, gy = divmod(g_idx, self.pn)
        if gy:
            keep = self._replicated_low_bits(self.pn - gy)
            # full_mask ^ keep: with ~keep a translation at order 2^16 ran 2x slower
            m = ((m & keep) << gy) | ((m & (self.full_mask ^ keep)) >> (self.pn - gy))
        if gx:
            k = gx * self.pn
            m = ((m << k) | (m >> (self.order - k))) & self.full_mask
        return m

    def translate_sums(self, m: int) -> list[list[int]]:
        """Byte tables of the translates of m: looking up the bytes of a
        mask A gives the sum of m + a over a in A.  Refused above
        SWEEP_ORDER_LIMIT.

        When |A| |m| is the order, that sum is full_mask exactly when the
        translates are disjoint: |G| powers of two sum to 2^|G| - 1 only
        when no two coincide.  The size test must come first, since 1 + 1
        + 1 = 2^2 - 1.
        """
        self._require_table_order("translate sum")
        return self._byte_tables([self.translate_mask(m, i) for i in range(self.order)])

    def minus_mask(self, m: int, idxs) -> int:
        """Bitmap of {e - a : e in m, a in idxs}, the OR of the translates
        of m by -a; with idxs the elements of m it is the difference set."""
        out = 0
        for a in idxs:
            out |= self.translate_mask(m, self.sub_index(0, a))
        return out

    def scale_mask(self, m: int, a: int) -> int:
        """Bitmap of {a * e : e in m}; a need not be a unit."""
        p, pn = self.p, self.pn
        out = 0
        while m:
            b = m & -m
            idx = b.bit_length() - 1
            m ^= b
            x, y = divmod(idx, pn)
            out |= 1 << ((a * x % p) * pn + a * y % pn)
        return out

    def inner(self, e_idx: int, u_idx: int) -> int:
        ex, ey = divmod(e_idx, self.pn)
        ux, uy = divmod(u_idx, self.pn)
        return (self.pn1 * ex * ux + ey * uy) % self.pn

    def profile_key(self, mask: int) -> int:
        """The guard key g of `mask`: one bit per class outside its zero set.

        The character at rep u sums to zero on the set iff, in every residue
        class c mod p^(n-1), the set has equally many elements on each of
        the p fibers {e : <e, u> = c + j p^(n-1)}.  The counts are summed
        from per-byte tables as packed 7-bit fields (key_tables), and d =
        (counts ^ counts >> 7) & COMPARED is nonzero in block rid, the p^n
        fields of rep rid, iff two adjacent counts differ.  The block's top
        field (c = p^(n-1) - 1, j = p - 1) is never compared, so ADD = GUARD
        - BLOCKS, 2^(7(p^n - 1)) - 1 at each block's base, carries into its
        low bit exactly then: g = d + ADD & GUARD has bit 7((rid + 1) p^n -
        1) set iff class rid is not a zero, and rep_bits reads the zeros
        back.  The lowest guard bit is bit 7 or above, so g | k is injective
        for 0 <= k < 128.  Groups above order 32 (the sweep limit) are
        refused with CapacityError.
        """
        tables, compared, add, guard = self.key_tables
        counts = sum(map(list.__getitem__, tables, mask.to_bytes(len(tables), "little")))
        return ((counts ^ counts >> _FIELD_BITS) & compared) + add & guard

    def rep_bits(self, g: int) -> int:
        """The bitmask over rep ids of the zero set whose guard key is g:
        bit rid is set iff the guard bit of block rid is clear.  A zero
        cover, Z(A) and Z(T) together holding every class, is gA & gT == 0.
        """
        step = _FIELD_BITS * self.pn
        guards = range(step - _FIELD_BITS, step * self.rep_count, step)
        return sum(1 << rid for rid, bit in enumerate(guards) if not g >> bit & 1)


@lru_cache(maxsize=None)
def group_tables(params: GroupParams) -> GroupTables:
    return GroupTables(params)
