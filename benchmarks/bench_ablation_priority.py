"""Ablation: FCFS vs priority-ordered allocation under capacity pressure
(§VII: "capacity conflicts should be managed by using priorities").

A bandwidth-hungry buffer allocated *late* loses the MCDRAM to an
unimportant early allocation under FCFS; the planner's priority ordering
fixes it.  The measured outcome: the end-to-end time of a two-kernel
workload under both policies.
"""

import pytest

import repro
from repro.alloc import AllocationRequest, PlacementPlanner
from repro.sim import BufferAccess, KernelPhase, PatternKind
from repro.units import GB

KNL_PUS = tuple(range(64))


def _workload(hot_bytes, cold_bytes):
    """A hot streaming kernel over `hot` plus a cold one-touch init of
    `cold` (allocated first in program order)."""
    return (
        KernelPhase(
            name="init_cold",
            threads=16,
            accesses=(
                BufferAccess(
                    buffer="cold",
                    pattern=PatternKind.STREAM,
                    bytes_written=cold_bytes,
                    working_set=cold_bytes,
                ),
            ),
        ),
        KernelPhase(
            name="hot_sweeps",
            threads=16,
            accesses=(
                BufferAccess(
                    buffer="hot",
                    pattern=PatternKind.STREAM,
                    bytes_read=hot_bytes * 50,   # 50 sweeps
                    working_set=hot_bytes,
                ),
            ),
        ),
    )


def _run(policy_fcfs: bool):
    setup = repro.quick_setup("knl-snc4-flat")
    hot, cold = 3 * GB, 3 * GB
    requests = [
        AllocationRequest("cold", cold, "Bandwidth", priority=0),
        AllocationRequest("hot", hot, "Bandwidth", priority=10),
    ]
    report = PlacementPlanner(setup.allocator).plan(requests, 0, fcfs=policy_fcfs)
    assert report.all_placed
    timing = setup.engine.price_run(
        _workload(hot, cold), setup.allocator.placement(), pus=KNL_PUS
    )
    return timing.seconds, report


def test_priority_vs_fcfs(record):
    fcfs_seconds, fcfs_report = _run(policy_fcfs=True)
    prio_seconds, prio_report = _run(policy_fcfs=False)

    speedup = fcfs_seconds / prio_seconds
    record(
        "ablation_priority_vs_fcfs",
        "FCFS placement:\n" + fcfs_report.describe()
        + f"\n  workload time: {fcfs_seconds * 1e3:.1f} ms\n"
        "Priority placement:\n" + prio_report.describe()
        + f"\n  workload time: {prio_seconds * 1e3:.1f} ms\n"
        f"speedup from priorities: {speedup:.2f}x",
    )

    # FCFS wastes the MCDRAM on the cold buffer.
    assert fcfs_report.got_best_target["cold"]
    assert prio_report.got_best_target["hot"]
    # The hot kernel streams 50×3GB: MCDRAM (≈89 GB/s) vs DDR4 (≈30 GB/s)
    # is roughly a 3x difference on the dominant phase.
    assert speedup > 2.0
