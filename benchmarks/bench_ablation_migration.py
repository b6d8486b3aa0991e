"""Ablation: migrate between phases vs stay put (§VII).

"Memory migration could be a solution to avoid capacity issues when
important buffers are not used during the same application phase ...
However, this operation is quite expensive ... it should likely be
avoided unless the application behavior changes significantly between
phases."

We model a two-phase application on KNL whose hot buffer changes between
phases, and compare: (a) static placement, (b) migrating the new hot
buffer into MCDRAM at the phase boundary, counting the migration cost the
kernel model charges.  Sweeping the per-phase work shows the crossover
the paper predicts.
"""

import pytest

import repro
from repro.sim import BufferAccess, KernelPhase, PatternKind
from repro.units import GB

KNL_PUS = tuple(range(64))


def _phase(hot_buffer: str, cold_buffer: str, sweeps: int):
    nbytes = 3 * GB
    return KernelPhase(
        name=f"phase_{hot_buffer}",
        threads=16,
        accesses=(
            BufferAccess(
                buffer=hot_buffer,
                pattern=PatternKind.STREAM,
                bytes_read=nbytes * sweeps,
                working_set=nbytes,
            ),
            BufferAccess(
                buffer=cold_buffer,
                pattern=PatternKind.STREAM,
                bytes_read=nbytes // 64,
                working_set=nbytes,
            ),
        ),
    )


def _run(migrate: bool, sweeps: int) -> float:
    setup = repro.quick_setup("knl-snc4-flat")
    alloc = setup.allocator
    a = alloc.mem_alloc(3 * GB, "Bandwidth", 0, name="a")   # gets MCDRAM
    b = alloc.mem_alloc(3 * GB, "Bandwidth", 0, name="b")   # falls to DDR4

    t1 = setup.engine.price_phase(_phase("a", "b", sweeps), alloc.placement(),
                                  pus=KNL_PUS)
    migration_cost = 0.0
    if migrate:
        # Phase change: b becomes hot. Swap the placements.
        migration_cost += alloc.migrate("a", "Capacity").estimated_seconds
        migration_cost += alloc.migrate("b", "Bandwidth").estimated_seconds
    t2 = setup.engine.price_phase(_phase("b", "a", sweeps), alloc.placement(),
                                  pus=KNL_PUS)
    return t1.seconds + migration_cost + t2.seconds


def test_migration_crossover(record):
    rows = [f"{'sweeps/phase':>12} | {'static':>9} | {'migrate':>9} | winner"]
    crossover_seen = {"static": False, "migrate": False}
    for sweeps in (2, 10, 60, 200):
        static = _run(False, sweeps)
        migrated = _run(True, sweeps)
        winner = "migrate" if migrated < static else "static"
        crossover_seen[winner] = True
        rows.append(
            f"{sweeps:>12} | {static:>8.3f}s | {migrated:>8.3f}s | {winner}"
        )
    record("ablation_migration_crossover", "\n".join(rows))

    # Short phases: the move_pages cost dominates (§VII's warning).
    # Long phases: migration pays for itself.
    assert crossover_seen["static"]
    assert crossover_seen["migrate"]


def test_migration_cost_model_visible(record):
    """The kernel charges a real, inspectable cost for the move."""

    setup = repro.quick_setup("knl-snc4-flat")
    buf = setup.allocator.mem_alloc(3 * GB, "Capacity", 0)
    report = setup.allocator.migrate(buf, "Bandwidth")
    record("ablation_migration_cost", report.describe())
    assert report.estimated_seconds > 0.05  # 3GB over ~10GB/s + per-page
