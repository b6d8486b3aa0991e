"""Observability overhead on the warm allocation path.

The contract: with telemetry **disabled** (the default), the only
cost ``repro.obs`` adds to ``mem_alloc`` is one attribute check plus a
delegating call.  The legacy allocation body, which re-derives ranking
and placement on every call, is frozen in ``tests/alloc/legacy_oracle.py``
and is the fixed reference — this bench measures warm
``mem_alloc``/``free`` throughput four ways, interleaved,
median-of-rounds:

* ``impl``         — the legacy body (``legacy_oracle.mem_alloc``);
* ``disabled``     — public ``mem_alloc`` with ``OBS.enabled`` false;
* ``enabled``      — production telemetry: ``obs.enable(sample_every=N,
  ring_capacity=C)`` — every N-th request fully traced, span store
  bounded to the most recent C records;
* ``enabled_full`` — ``obs.enable()`` recording every request (the
  pre-sampling behavior, kept as the reference cost).

Acceptance: the disabled path stays within 2% of the legacy baseline and
the sampled enabled path within 10%.  Results land in
``benchmarks/results/BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

import repro
from repro import obs

# The legacy body lives with the tests; make the repo root importable
# however pytest was started.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.alloc import legacy_oracle  # noqa: E402

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_obs_overhead.json"

# REPRO_BENCH_QUICK=1: shorter rounds for CI smoke runs.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

ALLOC_SIZE = 1 << 20
LOOPS = 200 if QUICK else 600    # mem_alloc/free pairs per round
ROUNDS = 5 if QUICK else 11      # odd: clean median
WARMUP = 100
SAMPLE_EVERY = 64    # production sampling rate for the "enabled" variant
RING_CAPACITY = 4096
MAX_DISABLED_OVERHEAD_PCT = 2.0
MAX_ENABLED_OVERHEAD_PCT = 10.0

_results: dict[str, object] = {}


def _alloc_free_impl(allocator, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        buf = legacy_oracle.mem_alloc(allocator, ALLOC_SIZE, "Bandwidth", 0)
        legacy_oracle.free(allocator, buf)
    return loops / (time.perf_counter() - start)


def _alloc_free_public(allocator, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        buf = allocator.mem_alloc(ALLOC_SIZE, "Bandwidth", 0)
        allocator.free(buf)
    return loops / (time.perf_counter() - start)


def _measure(setup) -> dict:
    allocator = setup.allocator
    _alloc_free_public(allocator, WARMUP)  # warm cache + page pools

    impl, disabled, enabled, enabled_full = [], [], [], []
    for _ in range(ROUNDS):
        # Interleave the variants inside every round so drift (thermal,
        # scheduler) hits all four alike.
        obs.reset()
        impl.append(_alloc_free_impl(allocator, LOOPS))
        disabled.append(_alloc_free_public(allocator, LOOPS))
        obs.reset()
        obs.enable(sample_every=SAMPLE_EVERY, ring_capacity=RING_CAPACITY)
        enabled.append(_alloc_free_public(allocator, LOOPS))
        obs.reset()
        obs.enable()
        enabled_full.append(_alloc_free_public(allocator, LOOPS))
        obs.reset()

    impl_aps = statistics.median(impl)
    disabled_aps = statistics.median(disabled)
    enabled_aps = statistics.median(enabled)
    enabled_full_aps = statistics.median(enabled_full)
    return {
        "loops_per_round": LOOPS,
        "rounds": ROUNDS,
        "sample_every": SAMPLE_EVERY,
        "ring_capacity": RING_CAPACITY,
        "impl_aps": round(impl_aps),
        "disabled_aps": round(disabled_aps),
        "enabled_aps": round(enabled_aps),
        "enabled_full_aps": round(enabled_full_aps),
        # Positive = slower than the pre-PR body.
        "disabled_overhead_pct": round((impl_aps / disabled_aps - 1) * 100, 2),
        "enabled_overhead_pct": round((impl_aps / enabled_aps - 1) * 100, 2),
        "enabled_full_overhead_pct": round(
            (impl_aps / enabled_full_aps - 1) * 100, 2
        ),
    }


def test_disabled_path_within_2pct_of_pre_pr_baseline(record):
    setup = repro.quick_setup("xeon-cascadelake-1lm")
    result = _measure(setup)
    _results["xeon-cascadelake-1lm"] = result
    record(
        "obs_overhead",
        "\n".join(
            [
                f"pre-PR impl : {result['impl_aps']:>9,} alloc/s",
                f"obs disabled: {result['disabled_aps']:>9,} alloc/s "
                f"({result['disabled_overhead_pct']:+.2f}%)",
                f"obs sampled : {result['enabled_aps']:>9,} alloc/s "
                f"({result['enabled_overhead_pct']:+.2f}%, "
                f"1/{SAMPLE_EVERY} sampled, ring {RING_CAPACITY})",
                f"obs full    : {result['enabled_full_aps']:>9,} alloc/s "
                f"({result['enabled_full_overhead_pct']:+.2f}%)",
            ]
        ),
    )
    assert result["disabled_overhead_pct"] <= MAX_DISABLED_OVERHEAD_PCT, (
        f"disabled-path overhead {result['disabled_overhead_pct']}% exceeds "
        f"{MAX_DISABLED_OVERHEAD_PCT}% budget: {result}"
    )
    assert result["enabled_overhead_pct"] <= MAX_ENABLED_OVERHEAD_PCT, (
        f"sampled enabled-path overhead {result['enabled_overhead_pct']}% "
        f"exceeds {MAX_ENABLED_OVERHEAD_PCT}% budget: {result}"
    )


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


def test_write_json(results_dir):
    assert _results, "overhead bench must run first"
    RESULTS_JSON.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"archived {RESULTS_JSON}")
