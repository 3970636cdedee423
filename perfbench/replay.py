"""Replay a seeded sample of a sweep's own subsets through the public
single-set entry points to the sweep's kernels, and measure properties of
the input that decide how much a memo or filter can save.

Called in-process by run.py in a traced run; spectile must be importable.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import comb
from time import perf_counter

from inputs import SWEEPS, sweep_subsets

# Subsets drawn per traced run of a sweep workload.
SAMPLE_SIZE = 4000


def sample(workload: str, seed: int) -> list[tuple[int, int, int]]:
    """SAMPLE_SIZE (p, n, mask) drawn uniformly from the workload's subsets."""
    rng = random.Random(seed)
    sweeps = SWEEPS[workload]
    weights = list(accumulate(sweep_subsets(p, n, sizes) for p, n, sizes, *_ in sweeps))
    out = []
    for _ in range(SAMPLE_SIZE):
        p, n, sizes, *_ = rng.choices(sweeps, cum_weights=weights)[0]
        order = p ** (n + 1)
        if sizes is None:
            mask = rng.getrandbits(order)
        else:
            k = rng.choices(sizes, weights=[comb(order, k) for k in sizes])[0]
            mask = sum(1 << i for i in rng.sample(range(order), k))
        out.append((p, n, mask))
    return out


def _timed(fn, sets) -> tuple[float, list]:
    start = perf_counter()
    results = [fn(A) for A in sets]
    return (perf_counter() - start) / len(sets) * 1e6, results


def replay(workload: str, seed: int) -> dict[str, float]:
    from spectile import (
        GroupParams,
        GroupSet,
        canonicalize,
        difference_set,
        find_complement_bruteforce,
        find_spectrum_bruteforce,
        zero_set,
    )

    sets = [GroupSet(GroupParams(p, n), mask) for p, n, mask in sample(workload, seed)]
    metrics: dict[str, float] = {"replay.sample_size": len(sets)}

    us, profiles = _timed(zero_set, sets)
    metrics["replay.zero_set.us_per_call"] = us
    us, spectra = _timed(find_spectrum_bruteforce, sets)
    metrics["replay.find_spectrum_bruteforce.us_per_call"] = us
    metrics["replay.find_spectrum_bruteforce.found_share"] = _share(B is not None for B in spectra)
    us, complements = _timed(find_complement_bruteforce, sets)
    metrics["replay.find_complement_bruteforce.us_per_call"] = us
    # A subset tiles exactly when its complement search succeeds.
    metrics["replay.find_complement_bruteforce.found_share"] = metrics["input.positive_share"] = (
        _share(T is not None for T in complements))
    us, reps = _timed(canonicalize, sets)
    metrics["replay.canonicalize.us_per_call"] = us

    metrics["input.orbit_share"] = _share(R.mask == A.mask for A, R in zip(sets, reps))
    metrics["input.profile_repeat_share"] = _repeat_share(
        (A.params, Z.key(), A.cardinality) for A, Z in zip(sets, profiles)
    )
    metrics["input.diffset_repeat_share"] = _repeat_share(
        (A.params, difference_set(A).mask, A.cardinality) for A in sets
    )
    return metrics


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0


def _repeat_share(keys) -> float:
    """Share of keys equal to an earlier one: the hit rate of an unbounded
    memo on that key over this sample, which bounds the sweep memo's."""
    seen = set()
    repeats = total = 0
    for key in keys:
        total += 1
        repeats += key in seen
        seen.add(key)
    return repeats / total if total else 0.0
