"""Steady-state allocation throughput: memoized query engine vs uncached.

The paper's ``mem_alloc(..., attribute)`` flow re-derives local targets,
fallback chains and rankings on every call even though attribute values
change rarely.  This bench measures what the generation-keyed query cache
buys on the two §VI servers: ranking-queries/sec (``rank_for``) and
allocations/sec (``mem_alloc``/``free`` pairs plus ``mem_alloc_many``
batches), cached vs uncached, and verifies the cached answers are
bit-identical to the uncached ones.  "Uncached" turns the query cache
off, so every ``rank_for`` call re-ranks and every allocation rebuilds
its allocation plan (no plan memo, no recycling pool); the placement
route itself is the same.  Results land in
``benchmarks/results/BENCH_alloc_throughput.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import repro
from repro.alloc import AllocRequest

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_alloc_throughput.json"

# REPRO_BENCH_QUICK=1 shrinks the timing loops ~5x for CI smoke runs:
# same workloads, same identity assertions, noisier throughput numbers.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

PRESETS = {
    # Cached loop counts are high enough that the warm path dominates the
    # timing window; uncached loops stay small (each costs ~100x more).
    "xeon-cascadelake-1lm": {
        "rank_loops": 400,
        "alloc_loops": 30000,
        "alloc_loops_uncached": 1500,
        "batch_rounds": 400,
        "batch_rounds_uncached": 20,
    },
    "knl-snc4-flat": {
        "rank_loops": 400,
        "alloc_loops": 30000,
        "alloc_loops_uncached": 1500,
        "batch_rounds": 400,
        "batch_rounds_uncached": 20,
    },
}
if QUICK:
    for _cfg in PRESETS.values():
        _cfg.update(
            rank_loops=100,
            alloc_loops=6000,
            alloc_loops_uncached=300,
            batch_rounds=80,
            batch_rounds_uncached=5,
        )
ATTRS = ("Bandwidth", "Latency", "Capacity", "ReadBandwidth")
SCOPES = ("local", "machine")
ALLOC_SIZE = 1 << 20
BATCH = 64

_results: dict[str, dict] = {}


def _build(preset: str, cached: bool) -> repro.ReproSetup:
    setup = repro.quick_setup(preset)
    setup.memattrs.query_cache.enabled = cached
    return setup


def _initiators(setup: repro.ReproSetup) -> tuple[int, ...]:
    pus = tuple(setup.topology.complete_cpuset)
    picks = {pus[0], pus[len(pus) // 3], pus[2 * len(pus) // 3], pus[-1]}
    return tuple(sorted(picks))


def _rank_signature(setup, initiators):
    """Every ranking answer, flattened to plain comparable data."""
    sig = []
    for attr in ATTRS:
        for init in initiators:
            for scope in SCOPES:
                used, ranked = setup.allocator.rank_for(attr, init, scope=scope)
                sig.append(
                    (
                        attr,
                        init,
                        scope,
                        used,
                        tuple((tv.target.os_index, tv.value) for tv in ranked),
                    )
                )
    return sig


def _alloc_signature(setup, initiators):
    """Placement decisions of a fixed allocation sequence."""
    sig = []
    buffers = []
    for i in range(40):
        buf = setup.allocator.mem_alloc(
            ALLOC_SIZE * (1 + i % 7),
            ATTRS[i % len(ATTRS)],
            initiators[i % len(initiators)],
        )
        buffers.append(buf)
        sig.append(
            (
                buf.used_attribute,
                None if buf.target is None else buf.target.os_index,
                buf.fallback_rank,
                tuple(sorted(buf.allocation.pages_by_node.items())),
            )
        )
    for buf in buffers:
        setup.allocator.free(buf)
    return sig


def _measure_rank_qps(setup, initiators, loops: int) -> float:
    queries = 0
    start = time.perf_counter()
    for _ in range(loops):
        for attr in ATTRS:
            for init in initiators:
                setup.allocator.rank_for(attr, init)
                queries += 1
    return queries / (time.perf_counter() - start)


def _measure_alloc_aps(setup, loops: int) -> float:
    # Steady-state measurement: bind the entry points once (we measure
    # the allocator, not the attribute lookup) and warm the plan cache
    # and recycling pool before the clock starts.
    mem_alloc = setup.allocator.mem_alloc
    free = setup.allocator.free
    for _ in range(min(loops, 200)):
        free(mem_alloc(ALLOC_SIZE, "Bandwidth", 0))
    start = time.perf_counter()
    for _ in range(loops):
        free(mem_alloc(ALLOC_SIZE, "Bandwidth", 0))
    return loops / (time.perf_counter() - start)


def _measure_batch_aps(setup, rounds: int = 20, *, mixed: bool = False) -> float:
    # The headline batch number uses the same workload as
    # ``_measure_alloc_aps`` (one attribute, one plan) so batch-vs-single
    # compares dispatch cost on identical work; ``mixed=True`` cycles all
    # four attributes to exercise multi-plan batching.
    if mixed:
        requests = [
            AllocRequest(size=ALLOC_SIZE, attribute=ATTRS[i % len(ATTRS)], initiator=0)
            for i in range(BATCH)
        ]
    else:
        requests = [
            AllocRequest(size=ALLOC_SIZE, attribute="Bandwidth", initiator=0)
        ] * BATCH
    mem_alloc_many = setup.allocator.mem_alloc_many
    free = setup.allocator.free
    for buf in mem_alloc_many(requests):
        free(buf)
    start = time.perf_counter()
    for _ in range(rounds):
        buffers = mem_alloc_many(requests)
        for buf in buffers:
            free(buf)
    return rounds * BATCH / (time.perf_counter() - start)


def _run_preset(preset: str) -> dict:
    loops = PRESETS[preset]
    cached = _build(preset, cached=True)
    uncached = _build(preset, cached=False)
    initiators = _initiators(cached)

    # Identity first (also warms the cache): cached answers must be
    # bit-identical to uncached ones, including on a warm second pass.
    rank_cold = _rank_signature(cached, initiators)
    rank_warm = _rank_signature(cached, initiators)
    rank_plain = _rank_signature(uncached, initiators)
    assert rank_cold == rank_plain, f"{preset}: cached ranking diverged"
    assert rank_warm == rank_plain, f"{preset}: warm ranking diverged"
    alloc_cached = _alloc_signature(cached, initiators)
    alloc_plain = _alloc_signature(uncached, initiators)
    assert alloc_cached == alloc_plain, f"{preset}: cached placement diverged"

    rank_qps_cached = _measure_rank_qps(cached, initiators, loops["rank_loops"])
    rank_qps_uncached = _measure_rank_qps(uncached, initiators, loops["rank_loops"])
    alloc_aps_cached = _measure_alloc_aps(cached, loops["alloc_loops"])
    alloc_aps_uncached = _measure_alloc_aps(uncached, loops["alloc_loops_uncached"])
    batch_aps_cached = _measure_batch_aps(cached, loops["batch_rounds"])
    batch_aps_uncached = _measure_batch_aps(uncached, loops["batch_rounds_uncached"])
    batch_mixed_aps = _measure_batch_aps(cached, loops["batch_rounds"], mixed=True)

    stats = cached.allocator.cache_stats()
    return {
        "ranking": {
            "cached_qps": round(rank_qps_cached),
            "uncached_qps": round(rank_qps_uncached),
            "speedup": round(rank_qps_cached / rank_qps_uncached, 2),
        },
        "alloc": {
            "cached_aps": round(alloc_aps_cached),
            "uncached_aps": round(alloc_aps_uncached),
            "speedup": round(alloc_aps_cached / alloc_aps_uncached, 2),
        },
        "batch": {
            "cached_aps": round(batch_aps_cached),
            "uncached_aps": round(batch_aps_uncached),
            "speedup": round(batch_aps_cached / batch_aps_uncached, 2),
            "mixed_attr_aps": round(batch_mixed_aps),
        },
        "bit_identical": True,
        "cache": {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "hit_rate": round(stats["hit_rate"], 4),
            "invalidations": stats["invalidations"],
            "generation": stats["generation"],
        },
    }


def test_xeon_throughput(record):
    _results["xeon-cascadelake-1lm"] = result = _run_preset("xeon-cascadelake-1lm")
    record(
        "alloc_throughput_xeon",
        "\n".join(
            f"{kind:>8}: cached {r['cached_qps' if kind == 'ranking' else 'cached_aps']:>9,}/s"
            f"  uncached {r['uncached_qps' if kind == 'ranking' else 'uncached_aps']:>9,}/s"
            f"  speedup {r['speedup']:.1f}x"
            for kind, r in result.items()
            if kind in ("ranking", "alloc", "batch")
        ),
    )
    # Acceptance: >= 5x with a warm cache on the Xeon preset, and the
    # batch entry point must never lose to the equivalent single loop.
    assert result["ranking"]["speedup"] >= 5.0
    assert result["alloc"]["speedup"] >= 5.0
    assert result["batch"]["cached_aps"] >= result["alloc"]["cached_aps"]


def test_knl_throughput(record):
    _results["knl-snc4-flat"] = result = _run_preset("knl-snc4-flat")
    record(
        "alloc_throughput_knl",
        "\n".join(
            f"{kind:>8}: speedup {r['speedup']:.1f}x"
            for kind, r in result.items()
            if kind in ("ranking", "alloc", "batch")
        ),
    )
    assert result["ranking"]["speedup"] >= 2.0
    assert result["alloc"]["speedup"] >= 2.0
    assert result["batch"]["cached_aps"] >= result["alloc"]["cached_aps"]


def test_write_json(results_dir):
    assert _results, "preset benches must run first"
    RESULTS_JSON.write_text(json.dumps({"presets": _results}, indent=2) + "\n")
    print(f"archived {RESULTS_JSON}")
