"""Small statistics the benchmark reports: percentiles, tail choice, gates."""

from __future__ import annotations

import math
from fractions import Fraction

# percentiles the tail metric may land on, highest first
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """The p-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count: int, beyond: int = 10) -> float:
    """Highest ladder percentile with at least `beyond` of `count` samples above it."""
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= beyond:
            return p
    raise ValueError(f"{count} samples leave fewer than {beyond} beyond the median")


def counters_match(runs: list[dict]) -> list[str]:
    """Counters that differ between repeated runs; empty when all repeat exactly."""
    if not runs:
        return []
    names = sorted(set().union(*runs))
    return [name for name in names if len({repr(r.get(name)) for r in runs}) > 1]


def calibration_loop(rounds: int = 4000) -> int:
    """Fixed pure-Python work like the solver's: tuple keys into a dict, Fraction sums."""
    seen = {}
    acc = Fraction(0)
    for i in range(rounds):
        key = (i % 97, i & 7, (i >> 2) & 3)
        if key not in seen:
            seen[key] = i
        acc += Fraction(i & 15, (i & 7) + 1)
    return len(seen) + acc.denominator


def normalize(times, cals, reference: float) -> list[float]:
    """Rescale times[i] to the speed at which the calibration loop takes `reference` seconds.

    cals[i] and cals[i + 1] are the calibration timings taken just before and
    just after times[i]; their mean is the machine's speed during it.
    """
    if len(cals) != len(times) + 1:
        raise ValueError("need one calibration before and after every timing")
    return [t * reference * 2 / (a + b) for t, a, b in zip(times, cals, cals[1:])]
