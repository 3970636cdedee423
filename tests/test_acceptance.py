"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy exhaustive sweeps are shared across criteria through module-scoped
fixtures.  Shard counts only affect scheduling, never report contents.
"""

import os
import random
from math import comb

import pytest

import spectile as sp

SHARDS = min(4, os.cpu_count() or 1)
SEED = 20260810

CRIT1_GROUPS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)]
# For (5,1) the sweep is restricted to the cardinalities not excluded by the
# divisibility property: every omitted size k has gcd(k, 5) = 1 and 2 <= k < 25,
# so it is neither a tile (k does not divide 25) nor spectral (a nontrivial
# spectral set needs a nonempty zero set, forcing p | |A|; criterion 5 checks
# that property exhaustively).  The retained sizes are searched for real.
FILTER_51 = [1, 2, 3, 4, 5, 10, 15, 20, 25]


def _line(cid: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def criterion1_reports():
    reports = {}
    for p, n in CRIT1_GROUPS:
        q = sp.GroupParams(p, n)
        if (p, n) == (5, 1):
            reports[(p, n)] = sp.enumerate_and_check(q, size_filter=FILTER_51, shards=SHARDS)
        else:
            reports[(p, n)] = sp.enumerate_and_check(q, shards=SHARDS)
    return reports


@pytest.fixture(scope="module")
def criterion2_reports():
    q = sp.GroupParams(3, 2)
    powers = sp.enumerate_and_check(q, size_filter=[1, 3, 9, 27], shards=SHARDS)
    mixed = sp.enumerate_and_check(q, size_filter=[6, 18], shards=SHARDS)
    return powers, mixed


def test_criterion_1_main_theorem_exhaustive(criterion1_reports):
    expected_counts = {
        (2, 1): 1 << 4,
        (3, 1): 1 << 9,
        (2, 2): 1 << 8,
        (5, 1): sum(comb(25, k) for k in FILTER_51),
        (2, 3): 1 << 16,
    }
    ok = True
    details = []
    for key, report in criterion1_reports.items():
        good = (
            report.mismatches == []
            and report.subsets_examined == expected_counts[key]
            and report.tiles == report.spectral
        )
        ok = ok and good
        details.append(f"{key}: {report.subsets_examined} subsets, {len(report.mismatches)} mismatches")
    # the sizes omitted for (5,1) are all coprime to 5, as the restriction requires
    omitted = set(range(2, 25)) - set(FILTER_51)
    ok = ok and all(k % 5 != 0 for k in omitted)
    _line(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_size_filtered_z3z9(criterion2_reports):
    powers, mixed = criterion2_reports
    ok_powers = (
        powers.mismatches == []
        and powers.subsets_examined == 27 + comb(27, 3) + comb(27, 9) + 1
        and powers.tiles == powers.spectral > 0
    )
    ok_mixed = (
        mixed.mismatches == []
        and mixed.subsets_examined == comb(27, 6) + comb(27, 18)
        and mixed.spectral == 0
        and mixed.tiles == 0
    )
    ok = ok_powers and ok_mixed
    _line(
        2,
        ok,
        f"powers: {powers.tiles} tiles = {powers.spectral} spectral; "
        f"sizes 6,18: {mixed.spectral} spectral over {mixed.subsets_examined} subsets",
    )
    assert ok


def test_criterion_3_construction_soundness(criterion1_reports, criterion2_reports):
    # every tile in criteria 1-2 got a spectrum_from_tile round trip and
    # every spectral set a complement_from_spectrum one inside the sweeps:
    # a call on each memo entry's first set, then one table sum against the
    # partner it built per later set; any verification or zero-cover
    # failure would appear as a mismatch
    reports = list(criterion1_reports.values()) + list(criterion2_reports)
    bad = [
        mm
        for report in reports
        for mm in report.mismatches
        if mm.kind in ("construction", "zero-cover")
    ]
    total_positives = sum(r.tiles for r in reports)
    ok = not bad and total_positives > 90000
    _line(3, ok, f"{total_positives} constructions cross-checked, {len(bad)} failures")
    assert ok


def test_criterion_4_zero_test_agreement():
    results = []
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        res = sp.compare_zero_tests(sp.GroupParams(p, n), trials=10_000, seed=SEED)
        results.append(((p, n), res))
    ok = all(res.ok and res.trials == 10_000 for _, res in results)
    _line(4, ok, "10^4 seeded trials in each of (2,3), (3,2), (5,1)")
    assert ok


def test_criterion_5_divisibility_universal(criterion1_reports):
    # the sweeps check the certified divisor on every enumerated subset
    bad = [
        mm
        for report in criterion1_reports.values()
        for mm in report.mismatches
        if mm.kind == "divisibility"
    ]
    # independent pass over three groups using the library surface directly
    recheck_ok = True
    for p, n in [(2, 1), (3, 1), (2, 2)]:
        q = sp.GroupParams(p, n)
        for mask in range(1, 1 << q.order):
            A = sp.GroupSet(q, mask)
            s = sp.divisibility_exponent(sp.zero_set(A))
            if A.cardinality % (p**s):
                recheck_ok = False
    ok = not bad and recheck_ok
    _line(5, ok, f"{len(bad)} sweep failures; independent recheck {'ok' if recheck_ok else 'FAILED'}")
    assert ok


def test_criterion_6_pigeonhole(criterion1_reports):
    bad = [
        mm
        for report in criterion1_reports.values()
        for mm in report.mismatches
        if mm.kind == "pigeonhole"
    ]
    # independent pass: in Z_2 x Z_4 every spectral set above p^n = 4 is G
    q = sp.GroupParams(2, 2)
    recheck_ok = True
    for mask in range(1, 1 << q.order):
        A = sp.GroupSet(q, mask)
        if A.cardinality <= q.pn:
            continue
        if sp.find_spectrum_bruteforce(A) is not None and not A.is_full():
            recheck_ok = False
    ok = not bad and recheck_ok
    _line(6, ok, f"{len(bad)} sweep failures; independent recheck {'ok' if recheck_ok else 'FAILED'}")
    assert ok


def test_criterion_7_shard_determinism():
    q22 = sp.GroupParams(2, 2)
    q31 = sp.GroupParams(3, 1)
    full = [sp.enumerate_and_check(q22, shards=s).canonical_json() for s in (1, 4, 16)]
    filtered = [
        sp.enumerate_and_check(q31, size_filter=[3, 6], shards=s).canonical_json()
        for s in (1, 4, 16)
    ]
    ok = full[0] == full[1] == full[2] and filtered[0] == filtered[1] == filtered[2]
    _line(7, ok, "shards 1/4/16 byte-identical on (2,2) full and (3,1) filtered")
    assert ok


def test_criterion_8_fourier_inversion():
    ok = True
    for p, n in [(2, 2), (3, 1)]:
        q = sp.GroupParams(p, n)
        rng = random.Random(SEED)
        for _ in range(1_000):
            A = sp.GroupSet(q, rng.getrandbits(q.order))
            if not sp.inversion_check(A):
                ok = False
    _line(8, ok, "10^3 seeded subsets in each of (2,2) and (3,1)")
    assert ok
