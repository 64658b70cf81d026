"""Small statistics helpers: guarded percentiles and the host probe."""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence

#: samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`MIN_BEYOND` samples rank above the returned one, so a reported
    p99 always rests on at least 1000 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The median; refuses an empty sample."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, 0.0 for an empty sample (a layer that never ran)."""
    return math.fsum(values) / len(values) if values else 0.0


def host_probe(iterations: int = 1_000_000) -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    Timed before and after every run and reported beside the metrics, so
    run-to-run spread can be attributed to the host rather than the program.
    """
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    elapsed = time.perf_counter() - start
    if len(table) > 1024:  # consume the result inside the timed region
        raise AssertionError("unreachable")
    return elapsed
