"""§V-A's combinatorial explosion, and the search engine that tames it.

"N buffers lead to 2^N possible placements ... which might be reduced by
identifying buffers that are obviously not performance critical."  PR 1
reproduced the warning literally — a materialized ``itertools.product``
sweep with a hard ``max_candidates`` ceiling.  This bench pits that
reference implementation (inlined below as the serial oracle) against
the branch-and-bound search on the Graph500 Xeon workload:

* ``identity`` tests assert the pruned search returns the serial
  oracle's optimum **exactly** (same assignment, bit-identical seconds),
  at least 5x faster in wall clock, and the unpruned walk's top-8 on 2^16;
* ``scale`` walks a 2^16 space that PR 1's budget refused outright.

The optima and leaf counts are exact ``modeled``/``count`` rows of
``benchmarks/results/bench_search_scaling.json``; the timings are
``wall`` rows there.
"""

from __future__ import annotations

import itertools
import time

import pytest

import repro
from repro.apps.graph500 import Graph500Config, TrafficModel
from repro.sensitivity import PlacementCandidate, search_placements
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement, SimEngine
from repro.units import MiB

XEON_PUS = tuple(range(40))
REPEATS = 3   # best-of-N wall clock
SHAPE = {"repeats": REPEATS}


@pytest.fixture(scope="module")
def setup():
    return repro.quick_setup("xeon-cascadelake-1lm")


@pytest.fixture(scope="module")
def workload():
    """Graph500 scale-20 per-level phases over all four Xeon nodes."""
    model = TrafficModel.analytic(20)
    cfg = Graph500Config(scale=20, nroots=1, threads=16)
    return model.phases(cfg, per_level=True), model.buffer_sizes()


def _pr1_reference(engine, phases, sizes, nodes, pus):
    """PR 1's exhaustive sweep, inlined verbatim as the timing baseline.

    Materialized ``itertools.product`` enumeration, one full pricing per
    candidate behind the per-phase slice memo — exactly the code path
    this PR's search engine replaced.
    """
    buffers = tuple(sorted({a.buffer for ph in phases for a in ph.accesses}))
    phase_buffers = [tuple(a.buffer for a in ph.accesses) for ph in phases]
    memo: dict[tuple, float] = {}
    results = []
    for combo in itertools.product(nodes, repeat=len(buffers)):
        assignment = dict(zip(buffers, combo))
        seconds = 0.0
        for idx, phase in enumerate(phases):
            key = (idx, tuple(assignment[b] for b in phase_buffers[idx]))
            cached = memo.get(key)
            if cached is None:
                placement = Placement(
                    {b: {assignment[b]: 1.0} for b in phase_buffers[idx]}
                )
                cached = engine.price_phase(phase, placement, pus=pus).seconds
                memo[key] = cached
            seconds += cached
        results.append(
            PlacementCandidate(assignment=tuple(zip(buffers, combo)), seconds=seconds)
        )
    results.sort(key=lambda c: c.seconds)  # stable: ties keep product order
    return tuple(results)


def _timed(fn, repeats: int = REPEATS):
    """Best-of-N wall clock; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _large_workload():
    """4 phases x 4 chunk buffers: the 2^16 space PR 1 refused to walk."""
    phases = []
    sizes = {}
    for p in range(4):
        accesses = []
        for i in range(4):
            name = f"chunk{p}_{i}"
            sizes[name] = 32 * MiB
            accesses.append(
                BufferAccess(
                    buffer=name,
                    pattern=PatternKind.RANDOM if i % 2 else PatternKind.STREAM,
                    bytes_read=(8 + 4 * i) * MiB,
                    working_set=32 * MiB,
                )
            )
        phases.append(
            KernelPhase(name=f"ph{p}", threads=16, accesses=tuple(accesses))
        )
    return tuple(phases), sizes


def _search_rows(ledger, prefix, result) -> None:
    ledger.row(
        f"{prefix}.best_seconds", result.best.seconds, "s", "lower", "modeled",
        assignment=result.best.as_dict(),
    )
    for field in ("space_size", "leaves_priced", "bound_pruned", "capacity_pruned"):
        value = getattr(result.stats, field)
        ledger.row(f"{prefix}.{field}", value, "count", "lower", "count")


def test_pruned_identity_vs_serial_oracle(record, ledger, setup, workload):
    """The branch-and-bound optimum IS the serial oracle's optimum, and is
    found at least 5x faster."""
    phases, sizes = workload
    nodes = (0, 1, 2, 3)

    # Fresh engines per contender so neither inherits the other's memos.
    serial_s, oracle = _timed(
        lambda: _pr1_reference(
            SimEngine(setup.machine), phases, sizes, nodes, XEON_PUS
        )
    )
    pruned_s, pruned = _timed(
        lambda: search_placements(
            SimEngine(setup.machine), phases, sizes, nodes,
            default_node=0, pus=XEON_PUS, top_k=1,
        )
    )

    # Equal optimum: identical best assignment AND bit-identical seconds.
    assert pruned.best.assignment == oracle[0].assignment
    assert pruned.best.seconds == oracle[0].seconds

    _search_rows(ledger, "graph500_xeon", pruned)
    ledger.row("graph500_xeon.serial_oracle_ms", serial_s * 1e3, "ms", "lower", "wall")
    ledger.row("graph500_xeon.pruned_ms", pruned_s * 1e3, "ms", "lower", "wall")
    ledger.row(
        "graph500_xeon.speedup_pruned", serial_s / pruned_s, "ratio", "higher", "wall"
    )
    record(
        "search_scaling",
        f"Graph500 scale 20, per-level, 4 nodes -> space {pruned.stats.space_size}\n"
        f"serial oracle (full sweep): {serial_s * 1e3:7.2f} ms\n"
        f"branch-and-bound (top-1):  {pruned_s * 1e3:8.2f} ms "
        f"({serial_s / pruned_s:.1f}x, {pruned.stats.leaves_priced} leaves priced, "
        f"{pruned.stats.bound_pruned} bound-pruned)\n"
        f"optimum identical: {pruned.best.as_dict()} "
        f"@ {pruned.best.seconds * 1e3:.4f} ms",
    )
    assert serial_s / pruned_s >= 5.0


def test_pruned_identity_large_space(ledger, setup):
    """Branch-and-bound keeps the unpruned walk's top-8 on 2^16."""
    phases, sizes = _large_workload()

    pruned_s, pruned = _timed(
        lambda: search_placements(
            SimEngine(setup.machine), phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS, top_k=8,
        )
    )
    unpruned_s, unpruned = _timed(
        lambda: search_placements(
            SimEngine(setup.machine), phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS, top_k=8, prune=False,
        ),
        repeats=1,
    )
    assert pruned.candidates == unpruned.candidates
    assert unpruned.stats.leaves_priced == 2 ** 16

    _search_rows(ledger, "large_space_2to16", pruned)
    ledger.row("large_space_2to16.pruned_ms", pruned_s * 1e3, "ms", "lower", "wall")
    ledger.row("large_space_2to16.unpruned_ms", unpruned_s * 1e3, "ms", "lower", "wall")
    ledger.row(
        "large_space_2to16.speedup_pruned",
        unpruned_s / pruned_s, "ratio", "higher", "wall",
    )


def test_scale_2_to_16_completes(setup):
    """The space PR 1's 4096 budget refused now completes, losslessly."""
    phases, sizes = _large_workload()
    result = search_placements(
        SimEngine(setup.machine), phases, sizes, (0, 2),
        default_node=0, pus=XEON_PUS, top_k=8,
    )
    assert result.stats.space_size == 2 ** 16
    assert not result.stats.truncated
    accounted = (
        result.stats.leaves_priced
        + result.stats.bound_pruned
        + result.stats.capacity_pruned
    )
    assert accounted == 2 ** 16

