"""Steady-state allocation throughput: the allocator's memos vs uncached.

The paper's ``mem_alloc(..., attribute)`` flow re-derives local targets,
fallback chains and rankings on every call even though attribute values
change rarely.  This bench measures what the allocator's memos buy on
the two §VI servers: the generation-keyed ``alloc_rank`` family of the
query cache behind ``rank_for`` (ranking-queries/sec) and the
allocation plan memo with its recycling pool (allocations/sec over
``mem_alloc``/``free`` pairs plus ``mem_alloc_many`` batches), cached
vs uncached, and verifies the cached answers are bit-identical to the
uncached ones.  "Uncached" turns the query cache off, so every
``rank_for`` call re-ranks and every allocation rebuilds its allocation
plan (no plan memo, no recycling pool); the placement route itself is
the same.  Throughputs and speedups are ``wall`` rows
of ``benchmarks/results/bench_alloc_throughput.json``; the query-cache
counters of the fixed loops are exact ``count`` rows.

A batch takes the same per-request route as ``mem_alloc``, so it has no
faster path to show: the bench checks instead that a 64-request
``mem_alloc_many`` places every buffer exactly as 64 ``mem_alloc`` calls
do on an identical fresh setup.
"""

from __future__ import annotations

import time

import repro
from repro.alloc import AllocRequest

# Cached loop counts are high enough that the warm path dominates the
# timing window; uncached loops stay small (each costs ~100x more).
LOOPS = {
    "rank_loops": 400,
    "alloc_loops": 30000,
    "alloc_loops_uncached": 1500,
    "batch_rounds": 400,
    "batch_rounds_uncached": 20,
}
ATTRS = ("Bandwidth", "Latency", "Capacity", "ReadBandwidth")
SCOPES = ("local", "machine")
ALLOC_SIZE = 1 << 20
BATCH = 64
SHAPE = {**LOOPS, "batch": BATCH}


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


def _placement_of(buf) -> tuple:
    """One buffer's placement decision as plain comparable data."""
    return (
        buf.used_attribute,
        None if buf.target is None else buf.target.os_index,
        buf.fallback_rank,
        tuple(sorted(buf.allocation.pages_by_node.items())),
    )


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
        sig.append(_placement_of(buf))
    for buf in buffers:
        setup.allocator.free(buf)
    return sig


def _batch_requests(mixed: bool) -> list[AllocRequest]:
    # The headline batch uses the same workload as ``_measure_alloc_aps``
    # (one attribute, one plan); ``mixed=True`` cycles all four
    # attributes to exercise multi-plan batching.
    return [
        AllocRequest(
            size=ALLOC_SIZE,
            attribute=ATTRS[i % len(ATTRS)] if mixed else "Bandwidth",
            initiator=0,
        )
        for i in range(BATCH)
    ]


def _check_batch_matches_singles(preset: str) -> None:
    """A batch places every buffer as the same requests one at a time do."""
    for mixed in (False, True):
        requests = _batch_requests(mixed)
        batch = _build(preset, cached=True).allocator.mem_alloc_many(requests)
        single = _build(preset, cached=True).allocator
        singles = [single.mem_alloc(r.size, r.attribute, r.initiator) for r in requests]
        assert [_placement_of(b) for b in batch] == [
            _placement_of(b) for b in singles
        ], f"{preset}: mem_alloc_many diverged from mem_alloc (mixed={mixed})"


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


def _measure_batch_aps(setup, rounds: int, *, mixed: bool = False) -> float:
    requests = _batch_requests(mixed)
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


def _run_preset(preset: str, ledger, prefix: str):
    """Check identities, time every path and record the rows; returns the
    speedups and the (cached, uncached) rates per path."""
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
    _check_batch_matches_singles(preset)

    rates = {
        "ranking": (
            _measure_rank_qps(cached, initiators, LOOPS["rank_loops"]),
            _measure_rank_qps(uncached, initiators, LOOPS["rank_loops"]),
        ),
        "alloc": (
            _measure_alloc_aps(cached, LOOPS["alloc_loops"]),
            _measure_alloc_aps(uncached, LOOPS["alloc_loops_uncached"]),
        ),
        "batch": (
            _measure_batch_aps(cached, LOOPS["batch_rounds"]),
            _measure_batch_aps(uncached, LOOPS["batch_rounds_uncached"]),
        ),
    }
    speedups = {}
    for kind, (warm, cold) in rates.items():
        speedups[kind] = warm / cold
        ledger.row(f"{prefix}.{kind}.cached_per_s", warm, "1/s", "higher", "wall")
        ledger.row(f"{prefix}.{kind}.uncached_per_s", cold, "1/s", "higher", "wall")
        ledger.row(f"{prefix}.{kind}.speedup", warm / cold, "ratio", "higher", "wall")
    ledger.row(
        f"{prefix}.batch.mixed_attr_per_s",
        _measure_batch_aps(cached, LOOPS["batch_rounds"], mixed=True),
        "1/s", "higher", "wall",
    )
    stats = cached.allocator.cache_stats()
    ledger.row(f"{prefix}.cache.hits", stats["hits"], "count", "higher", "count")
    ledger.row(f"{prefix}.cache.misses", stats["misses"], "count", "lower", "count")
    ledger.row(
        f"{prefix}.cache.hit_rate", stats["hit_rate"], "ratio", "higher", "count"
    )
    return speedups, rates


def test_xeon_throughput(record, ledger):
    speedups, rates = _run_preset("xeon-cascadelake-1lm", ledger, "xeon")
    record(
        "alloc_throughput_xeon",
        "\n".join(
            f"{kind:>8}: cached {round(warm):>9,}/s"
            f"  uncached {round(cold):>9,}/s"
            f"  speedup {speedups[kind]:.1f}x"
            for kind, (warm, cold) in rates.items()
        ),
    )
    # Acceptance: >= 5x with a warm cache on the Xeon preset.
    assert speedups["ranking"] >= 5.0
    assert speedups["alloc"] >= 5.0


def test_knl_throughput(record, ledger):
    speedups, _ = _run_preset("knl-snc4-flat", ledger, "knl")
    record(
        "alloc_throughput_knl",
        "\n".join(
            f"{kind:>8}: speedup {speedup:.1f}x" for kind, speedup in speedups.items()
        ),
    )
    assert speedups["ranking"] >= 2.0
    assert speedups["alloc"] >= 2.0
