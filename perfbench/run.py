"""The spectile benchmark: one closed-loop client running a workload's
commands through the ``spectile`` CLI, each in a fresh process.

    python3 perfbench/run.py --workload sweep-tiles --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each is chosen):

* ``sweep-tiles``      ``enumerate`` on Z_2 x Z_8 (all subsets) and Z_5 x Z_5 (size 5)
* ``sweep-nontiles``   ``enumerate`` on Z_5 x Z_5 (size 10), 2 shards
* ``sweep-canonical``  ``enumerate --canonical`` on Z_3 x Z_9 (sizes 3, 6, 21, 24)
* ``cli-large``        analyze/spectrum/complement/check-pair on seeded tiles
                       of order 2^16 and 3^10

Set-up (a fresh interpreter that imports spectile and writes the inputs) runs
five times; ``setup_s`` is its median wall.  The timed phase then repeats
whole passes over the workload's commands while another pass still fits in
``--seconds`` (at least one pass).  Every output is checked after the timed
phase; a failed check counts against ``failed`` and makes the exit code 1.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one untraced and one traced pass give the per-layer ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402
from traced_cli import TRACED  # noqa: E402

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 170

# Metric names and units, as BENCHMARK.json lists them.
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {kind: {m["name"]: m["unit"] for m in _BENCHMARK[kind]}
         for kind in ("end_to_end", "per_layer")}
# Every (theorem, case) a construction can return; counts of 0 show a
# branch the workload never reaches.
BRANCHES = tuple(name.removeprefix("constructions.branch.") for name in UNITS["per_layer"]
                 if name.startswith("constructions.branch."))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * f


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with weights from the Beta(q(n+1), (1-q)(n+1))
    distribution.  Unlike a single order statistic it does not jump when
    latencies near the quantile trade places, so its run-to-run noise is
    that of several requests, not of one."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


# ---------------------------------------------------------------------------
# Running commands


class Run:
    """One command execution and what its output showed."""

    def __init__(self, index: int, cmd: dict, rc: int, start: float, wall: float,
                 stdout: str, stderr: str):
        self.index = index
        self.cmd = cmd
        self.rc = rc
        self.start = start
        self.wall = wall
        self.stdout = stdout
        self.stderr = stderr
        self.report: dict | None = None
        self.sweep_wall: float | None = None
        if cmd["kind"] == "enumerate" and rc in (0, 1):
            m = re.search(r"^wall-time: ([0-9.]+)s$", stderr, re.M)
            self.sweep_wall = float(m.group(1)) if m else None
            try:
                self.report = json.loads(Path(cmd["report"]).read_text(encoding="utf-8"))
            except (OSError, ValueError):
                self.report = None

    @property
    def timed_wall(self) -> float:
        """The wall that throughput is measured against: the sweep's own
        enumerate_and_check wall for a sweep, the whole command otherwise."""
        return self.sweep_wall if self.sweep_wall else self.wall


def _run(argv: list[str], capture: bool, cwd: Path | str = ROOT) -> tuple[int, str, str]:
    """Run to completion.  Waits without polling, so the measured wall ends
    when the process does; a watchdog kills it after COMMAND_TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pipe = subprocess.PIPE if capture else None
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=pipe, stderr=pipe, text=True) as proc:
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return proc.returncode, out or "", err or ""


def run_command(index: int, cmd: dict, argv: list[str] | None = None,
                spans: Path | None = None) -> Run:
    argv = cmd["argv"] if argv is None else argv
    if spans is None:
        full = [sys.executable, "-m", "spectile.cli", *argv]
    else:
        full = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *argv]
    start = perf_counter()
    rc, out, err = _run(full, capture=True, cwd=cmd["cwd"])
    return Run(index, cmd, rc, start, perf_counter() - start, out, err)


def setup(workload: str, seed: int, work: Path) -> tuple[float, list[dict]]:
    walls = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        rc, _, _ = _run([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                         "--seed", str(seed), "--out", str(work)], capture=False)
        walls.append(perf_counter() - start)
        if rc != 0:
            raise SystemExit(f"set-up failed with exit code {rc}")
    commands = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    return statistics.median(walls), commands


def timed_passes(commands: list[dict], seconds: float) -> list[list[Run]]:
    """Whole passes, closed loop, while one more pass fits in `seconds`."""
    passes: list[list[Run]] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append([run_command(i, cmd) for i, cmd in enumerate(commands)])
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Output gate


def check_sweep(run: Run) -> tuple[int, str]:
    """Failed subsets of one enumerate run, and why."""
    subsets = run.cmd["subsets"]
    rep = run.report
    if rep is None or run.sweep_wall is None:
        return subsets, f"exit {run.rc}, no report or wall time: {run.stderr.strip()[-200:]}"
    for key, want in run.cmd["pins"].items():
        if rep.get(key) != want:
            return subsets, f"{key} = {rep.get(key)}, pinned {want}"
    if rep["tiles"] != rep["spectral"]:
        return subsets, f"tiles {rep['tiles']} != spectral {rep['spectral']}"
    bad = {mm["set"] for mm in rep["mismatches"]}
    if run.rc != (1 if bad else 0):
        return subsets, f"exit {run.rc} with {len(bad)} mismatching subsets"
    return len(bad), f"{len(bad)} mismatching subsets" if bad else ""


def check_single(run: Run, verified: dict) -> str:
    """Why one single-set command failed, or '' if its output is right."""
    kind = run.cmd["kind"]
    if run.rc != 0:
        return f"exit {run.rc}: {run.stderr.strip()[-200:]}"
    if kind == "analyze":
        if not re.search(r"^divisibility-check: .* ok$", run.stdout, re.M):
            return "no 'divisibility-check ... ok' line"
        return ""
    if kind == "check-pair":
        return "" if run.stdout.strip() == "true" else f"printed {run.stdout.strip()[:80]!r}"
    key = (run.index, run.stdout)
    if key not in verified:
        verified[key] = verify_partner(run)
    return verified[key]


def verify_partner(run: Run) -> str:
    """Re-verify a constructed partner with the library's own pair checks."""
    from spectile import ParseError, load_set, parse_set, verify_spectral_pair, verify_tiling_pair

    try:
        partner = parse_set(run.stdout)
    except ParseError as exc:
        return f"unparseable partner: {exc}"
    A = load_set(run.cmd["set"])
    if partner.params != A.params:
        return "partner in another group"
    verify = verify_spectral_pair if run.cmd["kind"] == "spectrum" else verify_tiling_pair
    return "" if verify(A, partner) else f"{run.cmd['kind']} output does not verify"


def gate(runs: list[Run]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): subsets for sweeps, commands otherwise."""
    attempted = failed = 0
    problems = []
    verified: dict = {}
    for run in runs:
        if run.cmd["kind"] == "enumerate":
            bad, why = check_sweep(run)
            attempted += run.cmd["subsets"]
        else:
            why = check_single(run, verified)
            bad = 1 if why else 0
            attempted += 1
        failed += bad
        if why:
            problems.append(f"{' '.join(run.cmd['argv'][:1])} #{run.index}: {why}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(setup_s: float, passes: list[list[Run]]) -> dict[str, float]:
    # A request is one single-set command, or a sweep workload's whole
    # sweep list.  Its latency is its median over the passes; percentiles
    # are taken across the workload's requests.
    if all(r.cmd["kind"] == "enumerate" for r in passes[0]):
        requests = [[sum(r.wall for r in p)] for p in passes]
    else:
        requests = [[r.wall for r in p] for p in passes]
    latency_ms = [statistics.median(req[i] for req in requests) * 1e3
                  for i in range(len(requests[0]))]
    rates = [sum(r.cmd["subsets"] for r in p) / sum(r.timed_wall for r in p) for p in passes]
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "setup_s": setup_s,
        "subsets_per_s": statistics.median(rates),
        "cli_p50_ms": harrell_davis(latency_ms, 0.50),
        "cli_p75_ms": harrell_davis(latency_ms, 0.75),
        "peak_rss_mb": rss,
    }


def read_spans(path: Path) -> tuple[list[list], dict[str, int]]:
    """Spans per process (each a list), and branch counts, of one traced command."""
    processes, branches = [], {}
    for f in [path, *sorted(path.parent.glob(path.name + ".*"))]:
        for line in f.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            processes.append(record["spans"])
            for key, count in record["branches"].items():
                branches[key] = branches.get(key, 0) + count
    return processes, branches


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(untraced: list[Run], traced: list[Run], spans_dir: Path,
              single_shard: dict[int, Run], replayed: dict[str, float]) -> dict[str, float]:
    metrics = {f"{name}.{stat}": 0.0 for name in TRACED for stat in ("calls", "self_s")}
    metrics.update((f"constructions.branch.{b}", 0.0) for b in BRANCHES)
    metrics["trace.spans"] = 0.0
    startup_ms = []
    for run in traced:
        processes, branches = read_spans(spans_dir / f"spans{run.index}")
        for spans in processes:
            metrics["trace.spans"] += len(spans)
            for (name, start, end, _), own in zip(spans, self_times(spans)):
                metrics[f"{name}.calls"] += 1
                metrics[f"{name}.self_s"] += own
                if name == "cli.main":  # perf_counter is one clock for all processes
                    startup_ms.append((start - run.start) * 1e3)
        for key, count in branches.items():
            metrics[f"constructions.branch.{key}"] += count
    metrics["constructions.branches_unfired"] = sum(
        metrics[f"constructions.branch.{b}"] == 0 for b in BRANCHES)
    metrics["cli.startup_ms"] = statistics.median(startup_ms) if startup_ms else 0.0
    metrics["cli.commands"] = len(traced)
    if single_shard:
        metrics["oracle.enumerate_and_check.shard_speedup"] = (
            sum(r.timed_wall for r in single_shard.values())
            / sum(untraced[i].timed_wall for i in single_shard))
    else:  # every sweep of the workload already runs on one shard
        metrics["oracle.enumerate_and_check.shard_speedup"] = 1.0
    metrics["trace.overhead_share"] = (
        sum(r.wall for r in traced) / sum(r.wall for r in untraced) - 1)
    metrics.update(replayed)
    return metrics


def single_shard_argv(argv: list[str]) -> list[str]:
    out = list(argv)
    out[out.index("--shards") + 1] = "1"
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description="spectile benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "spectile" / "cli.py").is_file():
        print(f"error: no spectile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, commands = setup(args.workload, args.seed, work)
        if args.trace:
            untraced = timed_passes(commands, 0)[0]
            traced = [run_command(i, cmd, spans=work / f"spans{i}")
                      for i, cmd in enumerate(commands)]
            single_shard = {
                i: run_command(i, cmd, argv=single_shard_argv(cmd["argv"]))
                for i, cmd in enumerate(commands)
                if cmd["kind"] == "enumerate" and cmd["shards"] > 1
            }
            if args.workload != "cli-large":
                from replay import replay

                replayed = replay(args.workload, args.seed)
            else:  # the searches do not run at order 2^16
                replayed = {name: 0.0 for name in UNITS["per_layer"]
                            if name.startswith(("replay.", "input."))}
            runs = untraced + traced + list(single_shard.values())
            metrics = per_layer(untraced, traced, work, single_shard, replayed)
            units = UNITS["per_layer"]
        else:
            passes = timed_passes(commands, args.seconds)
            runs = [r for p in passes for r in p]
            metrics = end_to_end(setup_s, passes)
            units = UNITS["end_to_end"]
        attempted, failed, problems = gate(runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if metrics.keys() != units.keys():
        raise SystemExit("metrics not as BENCHMARK.json lists them: "
                         + " ".join(sorted(metrics.keys() ^ units.keys())))
    for why in problems:
        print(f"FAILED {why}", file=sys.stderr)
    unit_of_work = "commands" if args.workload == "cli-large" else "subsets"
    print(f"workload {args.workload}  seed {args.seed}  {len(runs)} command runs"
          f"  nproc {os.cpu_count()}  python {sys.version.split()[0]}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:16.6f} {units[name]}")
    print(f"{'error_rate':52s} {failed / attempted:16.6f} ratio"
          f"  ({failed} of {attempted} {unit_of_work} failed)")
    if not args.trace:
        requests = len(commands) if args.workload == "cli-large" else 1
        print(f"latency percentiles: Harrell-Davis over {requests} requests,"
              f" each the median over {len(runs) // len(commands)} passes")
    else:
        unfired = [b for b in BRANCHES if not metrics[f"constructions.branch.{b}"]]
        print("branches never fired: " + (" ".join(unfired) or "none"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
