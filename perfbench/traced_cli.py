"""Run one spectile CLI command with spans recorded around each layer.

    python3 perfbench/traced_cli.py SPANS_FILE -- <spectile arguments>

The library is not changed.  Before ``spectile.cli.main`` runs, the public
functions of ``oracle``, ``constructions``, ``charsum``, ``setio`` and
``cli`` are replaced, under every module name through which the program
calls them, by wrappers that record a span (name, start, end, parent).
Spans stay in memory and are written to SPANS_FILE as JSON when the
command ends.  The exit code is the command's own.

Forked sweep workers inherit the wrappers.  A worker appends its spans to
SPANS_FILE.<pid> each time its outermost span closes, since pool workers
never reach the end of this script.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# span name -> (defining module, attribute); every module attribute that
# holds the same function object is wrapped with the same wrapper.
TRACED = {
    "cli.main": ("spectile.cli", "main"),
    "oracle.enumerate_and_check": ("spectile.oracle", "enumerate_and_check"),
    "oracle.canonicalize": ("spectile.oracle", "canonicalize"),
    "oracle.find_spectrum_bruteforce": ("spectile.oracle", "find_spectrum_bruteforce"),
    "oracle.find_complement_bruteforce": ("spectile.oracle", "find_complement_bruteforce"),
    "oracle.verify_spectral_pair": ("spectile.oracle", "verify_spectral_pair"),
    "oracle.verify_tiling_pair": ("spectile.oracle", "verify_tiling_pair"),
    "oracle.spectral_pair_violation": ("spectile.oracle", "spectral_pair_violation"),
    "oracle.tiling_pair_violation": ("spectile.oracle", "tiling_pair_violation"),
    "constructions.spectrum_from_tile": ("spectile.constructions", "spectrum_from_tile"),
    "constructions.complement_from_spectrum": ("spectile.constructions", "complement_from_spectrum"),
    "charsum.zero_set": ("spectile.charsum", "zero_set"),
    "setio.load_set": ("spectile.setio", "load_set"),
    "setio.serialize_set": ("spectile.setio", "serialize_set"),
}
CALLER_MODULES = ("spectile.cli", "spectile.oracle", "spectile.constructions",
                  "spectile.charsum", "spectile.setio")
# These return (partner, CaseTrace); the branch that fired is counted.
BRANCHING = ("constructions.spectrum_from_tile", "constructions.complement_from_spectrum")


class Tracer:
    """Spans of one process, as [name, start, end, parent index or -1]."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.branches: dict[str, int] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first call in a forked worker
                self.pid = os.getpid()
                self.spans, self.stack, self.branches = [], [], {}
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name in BRANCHING:
                    key = f"{result[1].theorem}.{result[1].case}"
                    self.branches[key] = self.branches.get(key, 0) + 1
                return result
            finally:
                self.spans[idx][1:3] = start, perf_counter()
                self.stack.pop()
                if not self.stack and self.pid != self.main_pid:
                    self.write(Path(f"{self.out}.{self.pid}"))

        return traced

    def write(self, path: Path) -> None:
        """Append the spans recorded so far as one JSON line, then drop them."""
        with path.open("a", encoding="utf-8") as f:
            f.write(json.dumps({"spans": self.spans, "branches": self.branches}) + "\n")
        self.spans, self.branches = [], {}


def install(tracer: Tracer):
    """Wrap every TRACED function wherever the program looks it up; returns
    the wrapped ``cli.main``."""
    import importlib

    modules = [importlib.import_module(m) for m in CALLER_MODULES]
    for name, (mod, attr) in TRACED.items():
        original = getattr(importlib.import_module(mod), attr)
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return modules[0].main


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- <spectile arguments>")
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(Path(spans_file))
    cli_main = install(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.write(Path(spans_file))


if __name__ == "__main__":
    raise SystemExit(main())
