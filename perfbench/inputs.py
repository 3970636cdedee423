"""Workload inputs: the command list of each workload, built from a seed.

Run as a script, this is the benchmark's set-up step.  It starts a fresh
interpreter, imports spectile, writes the workload's input files into a
work directory, and writes ``manifest.json`` there, listing every command
of one pass with what its output must satisfy:

    python3 perfbench/inputs.py --workload cli-large --seed 1 --out DIR

The sweep workloads are exhaustive, so their subsets do not depend on the
seed; the seed picks their replay sample (see ``replay.py``).  The
``cli-large`` tiles are affine images drawn from the seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each sweep: (p, n, sizes or None for the full power set, shards, canonical,
# pinned counts).  The pins are the seed commit's outputs; a sweep whose
# report differs from them fails as a whole.  The canonical sweep pins only
# what survives orbit weighting: the subset and orbit counts.
SWEEPS = {
    "sweep-tiles": [
        (2, 3, None, 1, False, {"subsets_examined": 65536, "tiles": 1611, "spectral": 1611}),
        (5, 1, (5,), 1, False, {"subsets_examined": 53130, "tiles": 17130, "spectral": 17130}),
    ],
    "sweep-nontiles": [
        (5, 1, (10,), 2, False, {"subsets_examined": 3268760, "tiles": 0, "spectral": 0}),
    ],
    "sweep-canonical": [
        (3, 2, (3, 6, 21, 24), 1, True, {"subsets_examined": 597870, "orbits_examined": 3860}),
    ],
}

# cli-large groups: order 2^16 (the oracle cap) and 3^10.
CLI_GROUPS = [(2, 15), (3, 9)]
CLI_TILE_EXPONENTS = (1, 2, 3)
# The digit positions of the cli-large tiles come from this fixed seed, not
# from --seed: a command's cost depends on them, so drawing them per run
# would add input variance to every latency.  --seed draws the affine maps.
CLI_LAYOUT_SEED = 0

WORKLOADS = (*SWEEPS, "cli-large")


def sweep_subsets(p: int, n: int, sizes) -> int:
    """Number of subsets a sweep examines: a property of its input list."""
    order = p ** (n + 1)
    return 1 << order if sizes is None else sum(comb(order, k) for k in sizes)


def sweep_commands(workload: str, work: Path) -> list[dict]:
    commands = []
    for i, (p, n, sizes, shards, canonical, pins) in enumerate(SWEEPS[workload]):
        report = f"report{i}.json"
        argv = ["enumerate", "--p", str(p), "--n", str(n), "--shards", str(shards), "--verbose"]
        if sizes is not None:
            argv += ["--sizes", ",".join(map(str, sizes))]
        if canonical:
            argv.append("--canonical")
        argv += ["--out", report]
        commands.append({
            "kind": "enumerate",
            "argv": argv,
            "subsets": sweep_subsets(p, n, sizes),
            "shards": shards,
            "report": str(work / report),
            "pins": pins,
        })
    return commands


# ---------------------------------------------------------------------------
# cli-large: affine images of digit-span tiles


def _span(p: int, positions) -> list[int]:
    """All y in Z_{p^n} whose base-p digits vanish outside `positions`."""
    ys = [0]
    for pos in positions:
        ys = [y + d * p**pos for y in ys for d in range(p)]
    return ys


def _digit_span(p: int, with_axis: bool, positions) -> list[tuple[int, int]]:
    xs = range(p) if with_axis else (0,)
    return [(x, y) for x in xs for y in _span(p, positions)]


def _affine(p: int, pn: int, pts, a: int, g: tuple[int, int]) -> list[tuple[int, int]]:
    gx, gy = g
    return sorted({((a * x + gx) % p, (a * y + gy) % pn) for x, y in pts})


def _write_set(path: Path, p: int, n: int, pts) -> None:
    lines = [f"{p} {n}"]
    lines.extend(f"{x} {y}" for x, y in pts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli_commands(seed: int, work: Path) -> list[dict]:
    """One pass of cli-large: 12 tiles, each with its tiling complement and
    spectrum, and 4 single-set commands on each: analyze, spectrum,
    complement, and check-pair against the spectrum (y-digit tiles) or the
    complement (tiles with the x axis).

    A tile is a*A0 + g, where A0 is a digit-span tile of size p^s (the y
    digits on s positions, or the whole x axis and s-1 positions), a a unit
    and g a translation.  Its complement is a*T0 + h, with T0 the span of
    the other digits and axis, and its spectrum a^-1 * B0 + h', with B0 the
    span of the mirrored positions n-1-j.  Without the x axis A has s
    axis-zero levels, so both constructions are closed-form; with it and
    s >= 2 it has s-1, and the constructions would search a group of order
    ~2^16, so spectrum and complement get --partner there.
    """
    layout = random.Random(CLI_LAYOUT_SEED)
    rng = random.Random(seed)
    commands: list[dict] = []
    for p, n in CLI_GROUPS:
        pn = p**n
        for with_axis in (False, True):
            for s in CLI_TILE_EXPONENTS:
                k = s - 1 if with_axis else s
                pos = sorted(layout.sample(range(n), k))
                rest = [j for j in range(n) if j not in pos]
                a = rng.randrange(pn // p) * p + rng.randrange(1, p)  # a unit
                a_inv = pow(a, -1, pn)

                def shift():
                    return (rng.randrange(p), rng.randrange(pn))

                tag = f"p{p}n{n}{'x' if with_axis else 'y'}s{s}"
                files = {
                    "A": _affine(p, pn, _digit_span(p, with_axis, pos), a, shift()),
                    "T": _affine(p, pn, _digit_span(p, not with_axis, rest), a, shift()),
                    "B": _affine(p, pn, _digit_span(p, with_axis, [n - 1 - j for j in pos]), a_inv, shift()),
                }
                for role, pts in files.items():
                    _write_set(work / f"{tag}_{role}.txt", p, n, pts)
                A, T, B = (f"{tag}_{role}.txt" for role in "ATB")
                A_path = str(work / A)
                closed_form = not with_axis or s == 1
                commands.append({"kind": "analyze", "argv": ["analyze", A], "set": A_path})
                if closed_form:
                    commands.append({"kind": "spectrum", "argv": ["spectrum", A], "set": A_path})
                    commands.append({"kind": "complement", "argv": ["complement", A], "set": A_path})
                else:
                    commands.append({"kind": "spectrum", "argv": ["spectrum", A, "--partner", T], "set": A_path})
                    commands.append({"kind": "complement", "argv": ["complement", A, "--partner", B], "set": A_path})
                if with_axis:
                    commands.append({"kind": "check-pair", "argv": ["check-pair", A, T, "--mode", "tiling"]})
                else:
                    commands.append({"kind": "check-pair", "argv": ["check-pair", A, B, "--mode", "spectral"]})
    for cmd in commands:
        cmd["subsets"] = sum(1 for arg in cmd["argv"] if arg.endswith(".txt"))
    return commands


def build(workload: str, seed: int, work: Path) -> list[dict]:
    work.mkdir(parents=True, exist_ok=True)
    if workload == "cli-large":
        commands = cli_commands(seed, work)
    else:
        commands = sweep_commands(workload, work)
    # Commands run in the work directory and name their files relative to
    # it, so no argument holds the checkout path or the run's pid: at order
    # 2^16 the peak resident set of one command moved by up to 7% with the
    # text of the paths it was given.
    for cmd in commands:
        cmd["cwd"] = str(work)
    (work / "manifest.json").write_text(json.dumps(commands), encoding="utf-8")
    return commands


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="work directory to write the inputs into")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    # Set-up time covers the import a user pays before the first command.
    import spectile  # noqa: F401

    build(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
