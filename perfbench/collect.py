"""Run the benchmark several times per workload and summarize every metric.

    python3 perfbench/collect.py --label seed --first-seed 1

Runs ``run.py`` on every workload of BENCHMARK.json with RUNS seeds from
``--first-seed`` on, untraced, and with the first TRACE_RUNS of them traced.
One run at a time, cycling through the workloads so that slow drifts of
the machine spread over all of them.  Writes ``perfbench/BENCH_<label>.json``:
for every workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
plus nproc and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
TRACE_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    print(f"{workload:16s} seed {seed:3d} trace {trace}: " + "  ".join(
        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if trace == 0),
        flush=True)
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    seconds = BENCHMARK["run_seconds"]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    seeds = range(args.first_seed, args.first_seed + RUNS)
    plain: dict[str, list] = {w: [] for w in workloads}
    traced: dict[str, list] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads:
            plain[w].append(run_once(w, seed, seconds, 0))
            if i < TRACE_RUNS:
                traced[w].append(run_once(w, seed, seconds, 1))

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": list(seeds),
        "workloads": {},
    }
    for w in workloads:
        entry = {"end_to_end": summarize(plain[w]), "per_layer": summarize(traced[w])}
        report["workloads"][w] = entry
        for name, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"{w:16s} {name:14s} median {stats['median']:12.4f}"
                  f"  spread {stats['spread']:.4f} (bound {bounds[name]}){flag}")
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
