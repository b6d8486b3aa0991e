"""Observability overhead on the warm allocation path.

With telemetry **disabled** (the default), the only cost ``repro.obs``
adds to ``mem_alloc`` is one attribute check (``if OBS.enabled:``).
This bench measures warm ``mem_alloc``/``free`` throughput of the current
code three ways, interleaved, median-of-rounds:

* ``disabled`` — ``OBS.enabled`` false;
* ``sampled``  — production telemetry: ``obs.enable(sample_every=N,
  ring_capacity=C)`` — every N-th request fully traced, span store
  bounded to the most recent C records;
* ``full``     — ``obs.enable()`` recording every request.

It records each throughput and the sampled and full slowdowns (time per
allocation relative to the disabled path) as ``wall`` rows of
``benchmarks/results/bench_obs_overhead.json``.  The sampled path's
budget is 10% over disabled; docs/OBSERVABILITY.md states how far the
measured cost is from it.
"""

from __future__ import annotations

import statistics
import time

import repro
from repro import obs

ALLOC_SIZE = 1 << 20
LOOPS = 600          # mem_alloc/free pairs per round
ROUNDS = 11          # odd: clean median
WARMUP = 100
SAMPLE_EVERY = 64    # production sampling rate for the "sampled" variant
RING_CAPACITY = 4096
SHAPE = {
    "loops": LOOPS,
    "rounds": ROUNDS,
    "warmup": WARMUP,
    "sample_every": SAMPLE_EVERY,
    "ring_capacity": RING_CAPACITY,
}


def _alloc_free(allocator, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        buf = allocator.mem_alloc(ALLOC_SIZE, "Bandwidth", 0)
        allocator.free(buf)
    return loops / (time.perf_counter() - start)


def _measure(setup) -> dict[str, float]:
    """Median allocs/s per variant."""
    allocator = setup.allocator
    _alloc_free(allocator, WARMUP)  # warm cache + page pools

    variants = {
        "disabled": None,
        "sampled": dict(sample_every=SAMPLE_EVERY, ring_capacity=RING_CAPACITY),
        "full": {},
    }
    rates: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(ROUNDS):
        # Interleave the variants inside every round so drift (thermal,
        # scheduler) hits all three alike.
        for name, options in variants.items():
            obs.reset()
            if options is not None:
                obs.enable(**options)
            rates[name].append(_alloc_free(allocator, LOOPS))
        obs.reset()
    return {name: statistics.median(r) for name, r in rates.items()}


def test_obs_overhead(record, ledger):
    aps = _measure(repro.quick_setup("xeon-cascadelake-1lm"))
    lines = []
    for name, rate in aps.items():
        ledger.row(f"{name}.allocs_per_s", rate, "1/s", "higher", "wall")
        slowdown = aps["disabled"] / rate
        if name != "disabled":
            ledger.row(f"{name}.slowdown", slowdown, "ratio", "lower", "wall")
        lines.append(
            f"obs {name:<8}: {round(rate):>9,} alloc/s ({slowdown:.2f}x disabled time)"
        )
    record("obs_overhead", "\n".join(lines))


def test_enabled_path_records_without_breaking_the_allocator():
    """Sanity while timing: with telemetry on, the warm loop records one
    span + counters per allocation and the placements stay identical."""
    setup = repro.quick_setup("xeon-cascadelake-1lm")
    obs.reset()
    baseline = setup.allocator.mem_alloc(ALLOC_SIZE, "Bandwidth", 0, name="a")
    setup.allocator.free(baseline)
    obs.enable()
    observed = setup.allocator.mem_alloc(ALLOC_SIZE, "Bandwidth", 0, name="b")
    setup.allocator.free(observed)
    assert observed.target.os_index == baseline.target.os_index
    assert obs.OBS.metrics.value("alloc.requests", attribute="Bandwidth") == 1
    assert [r.name for r in obs.OBS.tracer.finished()] == ["mem_alloc"]
    obs.reset()
