"""§V-A's combinatorial explosion, and the search engine that tames it.

"N buffers lead to 2^N possible placements ... which might be reduced by
identifying buffers that are obviously not performance critical."  PR 1
reproduced the warning literally — a materialized ``itertools.product``
sweep with a hard ``max_candidates`` ceiling.  This bench pits that
reference implementation (inlined below as the serial oracle) against
the branch-and-bound search on the Graph500 Xeon workload:

* ``identity`` tests assert the pruned search returns the serial
  oracle's optimum **exactly** (same assignment, bit-identical seconds)
  and the unpruned walk's top-8 on 2^16 — these gate CI;
* ``scale`` walks a 2^16 space that PR 1's budget refused outright;
* ``speedup`` asserts the >= 5x wall-clock win (timing-dependent, run
  with continue-on-error in CI).

Timings land in ``benchmarks/results/BENCH_search_scaling.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import time

import pytest

import repro
from repro.apps.graph500 import Graph500Config, TrafficModel
from repro.sensitivity import PlacementCandidate, search_placements
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement, SimEngine
from repro.units import MiB

XEON_PUS = tuple(range(40))
RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_search_scaling.json"

_results: dict[str, dict] = {}


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


# REPRO_BENCH_QUICK=1: single timing repeat for CI smoke runs.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _timed(fn, repeats: int | None = None):
    """Best-of-N wall clock; returns (seconds, last result)."""
    if repeats is None:
        repeats = 1 if QUICK else 3
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


def test_pruned_identity_vs_serial_oracle(record, setup, workload):
    """Gating: the branch-and-bound optimum IS the serial oracle's optimum."""
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

    _results["graph500_xeon"] = {
        "workload": "graph500 scale 20, per-level phases, nodes (0,1,2,3)",
        "space": pruned.stats.space_size,
        "serial_oracle_ms": round(serial_s * 1e3, 3),
        "pruned_ms": round(pruned_s * 1e3, 3),
        "speedup_pruned": round(serial_s / pruned_s, 2),
        "leaves_priced": pruned.stats.leaves_priced,
        "bound_pruned": pruned.stats.bound_pruned,
        "best_assignment": pruned.best.as_dict(),
        "best_seconds": pruned.best.seconds,
        "identical_optimum": True,
    }
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


def test_pruned_identity_large_space(setup):
    """Gating: branch-and-bound keeps the unpruned walk's top-8 on 2^16."""
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

    _results["large_space_2to16"] = {
        "workload": "4 phases x 4 chunk buffers, 2 nodes",
        "space": pruned.stats.space_size,
        "pruned_ms": round(pruned_s * 1e3, 3),
        "unpruned_ms": round(unpruned_s * 1e3, 3),
        "speedup_pruned": round(unpruned_s / pruned_s, 2),
        "leaves_priced": pruned.stats.leaves_priced,
        "bound_pruned": pruned.stats.bound_pruned,
        "truncated": pruned.stats.truncated,
        "identical_candidates": True,
    }


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


def test_speedup_threshold():
    """>= 5x over the PR 1 serial path at equal optimum (timing-dependent)."""
    if "graph500_xeon" not in _results:
        pytest.skip("identity bench must run first to collect timings")
    assert _results["graph500_xeon"]["speedup_pruned"] >= 5.0


def test_write_json(results_dir):
    assert _results, "search benches must run first"
    RESULTS_JSON.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"archived {RESULTS_JSON}")
