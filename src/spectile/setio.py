"""The set text format: one header line "p n", then one "x y" line per element.

This is the unit of exchange for every CLI command.  Duplicate elements
and out-of-range coordinates are rejected with the offending line number;
a file with no element lines is rejected as an empty set.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParameterError, ParseError
from .group import GroupParams, GroupSet


def parse_set(text: str) -> GroupSet:
    lines = text.splitlines()
    header_line = None
    params = None
    seen: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {raw!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {raw!r}", lineno) from None
        if params is None:
            try:
                params = GroupParams(a, b)
            except ParameterError as exc:
                raise ParseError(str(exc), lineno) from None
            header_line = lineno
            p, pn = params.p, params.pn
            continue
        if not (0 <= a < p and 0 <= b < pn):
            raise ParseError(
                f"element ({a}, {b}) out of range for p={p}, n={params.n}", lineno
            )
        idx = a * pn + b
        if idx in seen:
            raise ParseError(f"duplicate element ({a}, {b})", lineno)
        seen.add(idx)
    if params is None:
        raise ParseError('missing header line "p n"')
    if not seen:
        raise ParseError("empty set (no element lines)", header_line)
    return GroupSet.from_indices(params, seen)


def load_set(path: str | Path) -> GroupSet:
    return parse_set(Path(path).read_text(encoding="utf-8"))


def serialize_set(A: GroupSet) -> str:
    pn = A.params.pn
    lines = [f"{A.params.p} {A.params.n}"]
    lines.extend("%d %d" % divmod(i, pn) for i in A.indices())
    return "\n".join(lines) + "\n"
