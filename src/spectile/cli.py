"""Command-line surface: analyze, spectrum, complement, check-pair, search,
enumerate, oracle-compare.

Exit codes: 0 success, 1 verification failure or mismatch, 2 usage or
parse error, 3 capacity error.  Reports are plain text by default; --json
switches to machine-readable output with field names matching the library
types.  All output is deterministic given flags, inputs, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions, oracle, setio
from .charsum import compare_zero_tests, zero_set
from .errors import CapacityError, ParameterError, ParseError, SpectileError
from .group import GroupParams, GroupSet, canonical_rep, rep_label
from .structure import classify_size, divisibility_exponent

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _load_set(path: str, p: int | None, n: int | None) -> GroupSet:
    A = setio.load_set(path)
    if p is not None and A.params.p != p:
        raise ParameterError(f"{path}: header p={A.params.p} does not match --p {p}")
    if n is not None and A.params.n != n:
        raise ParameterError(f"{path}: header n={A.params.n} does not match --n {n}")
    return A


def _trace_dict(trace: constructions.CaseTrace) -> dict:
    return {"theorem": trace.theorem, "case": trace.case, "witnesses": trace.witnesses}


def _print_trace(trace: constructions.CaseTrace, out) -> None:
    print(f"theorem: {trace.theorem}", file=out)
    print(f"case: {trace.case}", file=out)
    for key in sorted(trace.witnesses):
        # tuples in the library, lists in the text as in the --json trace
        print(f"witness {key}: {json.dumps(trace.witnesses[key])}", file=out)


def _cmd_analyze(args) -> int:
    A = _load_set(args.set, args.p, args.n)
    q = A.params
    profile = zero_set(A)
    sc = classify_size(A.cardinality, q)
    s = divisibility_exponent(profile)
    divides = A.cardinality % q.p**s == 0
    labels = [rep_label(q.p, rid) for rid in profile.rep_ids()]
    if args.json:
        payload = {
            "p": q.p,
            "n": q.n,
            "cardinality": A.cardinality,
            "size_class": {"kind": sc.kind, "m": sc.m, "s": sc.s},
            "zero_profile": {
                "reps": labels,
                "I": sorted(profile.I),
                "has_unit_axis": profile.has_unit_axis,
            },
            "divisibility_exponent": s,
            "divides": divides,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"set: p={q.p} n={q.n} |A|={A.cardinality}")
        print(f"size-class: {sc.kind} (m={sc.m}, s={sc.s})")
        print("zero-reps: " + (" ".join(labels) or "(none)"))
        print("I: {" + ", ".join(str(i) for i in sorted(profile.I)) + "}")
        print(f"has-unit-axis: {str(profile.has_unit_axis).lower()}")
        print(f"divisibility-exponent: {s}")
        print(f"divisibility-check: {q.p}^{s} | {A.cardinality} " + ("ok" if divides else "FAIL"))
    return EXIT_OK if divides else EXIT_FAILURE


def _cmd_check_pair(args) -> int:
    A = _load_set(args.set_a, args.p, args.n)
    B = _load_set(args.set_b, args.p, args.n)
    if A.params != B.params:
        raise ParameterError("the two set files use different group parameters")
    # a spectral witness v - u comes with its pair (u, v) of B and its class,
    # the one that holds a difference of B but not a zero of A; a tiling
    # witness or a size message has neither
    label = pair = None
    if args.mode == "spectral":
        violation = oracle.spectral_violation_pair(A, B)
        if isinstance(violation, tuple):
            pair = violation
            violation = pair[1] - pair[0]
            label = rep_label(A.params.p, canonical_rep(violation))
    else:
        violation = oracle.tiling_pair_violation(A, B)
    ok = violation is None
    if args.json:
        detail = None if ok else str(violation)
        payload = {
            "mode": args.mode, "ok": ok, "violation": detail, "class": label,
            "pair": None if pair is None else [[u.x, u.y] for u in pair],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("true" if ok else "false")
        if not ok:
            print(f"violation: {violation}")
        if label is not None:
            print(f"class: {label}")
            print(f"pair: {pair[0]} {pair[1]}")
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_construct(args) -> int:
    # spectrum and complement differ only in args.construction, looked up by
    # name on each call, so a wrapper put on the module attribute sees it
    A = _load_set(args.set, args.p, args.n)
    supplied = _load_set(args.partner, args.p, args.n) if args.partner else None
    partner, trace = getattr(constructions, args.construction)(A, supplied)
    if args.json:
        print(
            json.dumps(
                {"partner": setio.serialize_set(partner), "trace": _trace_dict(trace)},
                sort_keys=True,
            )
        )
    else:
        # set text on stdout, trace on stderr, so the output pipes cleanly
        sys.stdout.write(setio.serialize_set(partner))
        _print_trace(trace, sys.stderr)
    return EXIT_OK


def _cmd_search(args) -> int:
    A = _load_set(args.set, args.p, args.n)
    if args.mode == "spectral":
        partner = oracle.find_spectrum_bruteforce(A)
    else:
        partner = oracle.find_complement_bruteforce(A)
    if args.json:
        payload = {
            "mode": args.mode,
            "found": partner is not None,
            "partner": setio.serialize_set(partner) if partner is not None else None,
        }
        print(json.dumps(payload, sort_keys=True))
    elif partner is None:
        print("none")
    else:
        sys.stdout.write(setio.serialize_set(partner))
    return EXIT_OK if partner is not None else EXIT_FAILURE


def _cmd_enumerate(args) -> int:
    params = GroupParams(args.p, args.n)
    sizes = None
    if args.sizes is not None:
        try:
            sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
        except ValueError:
            raise ParameterError(f"--sizes must be a comma-separated integer list, got {args.sizes!r}")
    report = oracle.enumerate_and_check(
        params, size_filter=sizes, use_canonical=args.canonical, shards=args.shards
    )
    text = report.canonical_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)
    else:
        print(f"group: p={params.p} n={params.n} order={params.order}")
        filt = ",".join(map(str, report.size_filter)) if report.size_filter else "all"
        print(f"sizes: {filt}")
        print(f"subsets-examined: {report.subsets_examined}")
        if report.orbits_examined is not None:
            print(f"orbits-examined: {report.orbits_examined}")
        print(f"tiles: {report.tiles}")
        print(f"spectral: {report.spectral}")
        print(f"mismatches: {len(report.mismatches)}")
        for mm in report.mismatches:
            print(f"  {mm.kind} size={mm.size}: {mm.detail}")
    if args.verbose:
        print(f"wall-time: {report.wall_time:.3f}s", file=sys.stderr)
        for name, memo in report.stats.items():
            print(f"{name}-memo: lookups={memo['lookups']} misses={memo['misses']}", file=sys.stderr)
        for i, (examined, seconds) in enumerate(report.shard_stats):
            print(f"shard {i}: subsets={examined} seconds={seconds:.3f}", file=sys.stderr)
    return EXIT_OK if not report.mismatches else EXIT_FAILURE


def _cmd_oracle_compare(args) -> int:
    params = GroupParams(args.p, args.n)
    oracle._check_oracle_cap(params)
    result = compare_zero_tests(params, args.trials, args.seed)
    if args.json:
        payload = {
            "p": params.p,
            "n": params.n,
            "trials": result.trials,
            "seed": result.seed,
            "discrepancies": [list(pair) for pair in result.discrepancies],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"trials={result.trials} seed={result.seed} "
            f"discrepancies={len(result.discrepancies)} " + ("ok" if result.ok else "FAIL")
        )
        for mask, u_idx in result.discrepancies:
            print(f"  disagreement at set mask {mask}, u index {u_idx}")
    return EXIT_OK if result.ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectile",
        description="Exact spectral-set and tiling analysis on Z_p x Z_{p^n}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=int, default=None, help="expected prime p (checked against headers)")
        sp.add_argument("--n", type=int, default=None, help="expected exponent n (checked against headers)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("analyze", help="zero set, size class, and divisibility report")
    sp.add_argument("set", help="set file")
    add_common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("spectrum", help="construct a spectrum for a tile")
    sp.add_argument("set", help="tile file")
    sp.add_argument("--partner", help="optional tiling complement file", default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_construct, construction="spectrum_from_tile")

    sp = sub.add_parser("complement", help="construct a tiling complement for a spectral set")
    sp.add_argument("set", help="spectral set file")
    sp.add_argument("--partner", help="optional spectrum file", default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_construct, construction="complement_from_spectrum")

    sp = sub.add_parser("check-pair", help="verify a spectral or tiling pair")
    sp.add_argument("set_a")
    sp.add_argument("set_b")
    sp.add_argument("--mode", choices=("spectral", "tiling"), required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_check_pair)

    sp = sub.add_parser("search", help="brute-force search for a partner set")
    sp.add_argument("set")
    sp.add_argument("--mode", choices=("spectral", "tiling"), required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("enumerate", help="exhaustive tile/spectral cross-check of a group")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sizes", default=None, help="comma-separated cardinalities to restrict to")
    sp.add_argument("--canonical", action="store_true", help="examine one set per affine orbit")
    sp.add_argument("--shards", type=int, default=1, help="number of work shards")
    sp.add_argument("--out", default=None, help="write the canonical JSON report here")
    sp.add_argument("--json", action="store_true", help="print the canonical JSON report")
    sp.add_argument(
        "--verbose",
        action="store_true",
        help="print wall time, memo counts and per-shard timings to stderr",
    )
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("oracle-compare", help="counting zero test vs exact cyclotomic evaluation")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SpectileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
