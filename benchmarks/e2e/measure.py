"""Percentiles, the host-speed reference and the ledger record shared by
every workload.

Timings are reported as a median and a tail percentile.  A tail needs at
least ten samples beyond it; with fewer, :func:`tail_percentile` falls
back to the highest percentile, in steps of 0.1, that has them.  The
percentile used and the sample count travel with the value.

The shared host runs the same code up to 1.7 times slower for minutes at
a time, and CPU time slows down as much as wall time.  So each run also
times :class:`HostSpeed`, a fixed kernel that shares no code with the
repository, interleaved with the measured work, and scales its timings
to a host on which that kernel takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_SAMPLES = 10


def _rank(pct: float, n: int) -> int:
    # Percentiles come in steps of 0.1, so pct * n / 100 is a multiple of
    # 0.001; the epsilon keeps products such as 99.9 * 10000 / 100 on
    # their exact integer instead of one past it.
    return max(1, math.ceil(pct * n / 100.0 - 1e-6))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(values, target: float = 99.0) -> tuple[float, float, int]:
    """``(pct_used, value, n)`` for the ``target`` tail percentile.

    Falls back to the highest percentile, in steps of 0.1, that leaves at
    least :data:`TAIL_SAMPLES` samples beyond it; with too few samples for
    any tail it reports the median (``pct_used`` 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = target
    if n - _rank(pct, n) < TAIL_SAMPLES:
        pct = math.floor(1000.0 * (n - TAIL_SAMPLES) / n) / 10 if n > TAIL_SAMPLES else 50
        pct = max(50.0, min(target, round(pct, 1)))
    return float(pct), nearest_rank(ordered, pct), n


def median(values) -> float:
    return nearest_rank(sorted(values), 50.0)


#: Timings are scaled to a host on which one HostSpeed pass takes this long.
REFERENCE_S = 1e-3


class HostSpeed:
    """A fixed reference kernel and the times of its passes.

    One pass mixes the kinds of work the workloads do: interpreter
    arithmetic, dict updates with a sort, and NumPy calls on small
    arrays.  It takes about a millisecond.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._keys = [rng.random() for _ in range(800)]
        self._array = np.linspace(0.0, 1.0, 64)
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(6000):
            total += i * i % 7
        counts: dict[float, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        a = self._array
        for _ in range(120):
            (a * 2.0 + a).sum()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """How many times slower than the reference host this one ran:
        the mean pass time over :data:`REFERENCE_S`.  The mean, not a
        quantile, because the workloads' throughput is a mean too."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S


def metric(value: float, unit: str, better: str, kind: str, **extra) -> dict:
    """One ledger metric: ``{value, unit, better, kind}`` plus annotations."""
    return {"value": value, "unit": unit, "better": better, "kind": kind, **extra}


def latency_metrics(samples_ms, **extra) -> dict[str, dict]:
    """``lat_p50_ms`` and ``lat_p99_ms`` with their sample counts."""
    pct, tail, n = tail_percentile(samples_ms)
    return {
        "lat_p50_ms": metric(median(samples_ms), "ms", "lower", "wall", samples=n, **extra),
        "lat_p99_ms": metric(tail, "ms", "lower", "wall", samples=n, percentile=pct, **extra),
    }
