"""Multi-tenant contention (§III-B3): heterogeneity as isolation.

When two bandwidth-hungry jobs share one node they halve each other's
throughput; attribute-guided placement that puts the second tenant on a
*different kind* of memory trades peak bandwidth for freedom from
contention.  This bench quantifies both effects with the
processor-sharing contention model.
"""

import pytest

from repro.sim import (
    BufferAccess,
    ConcurrentJob,
    KernelPhase,
    PatternKind,
    Placement,
    price_concurrent,
)
from repro.units import GB

XEON_PUS = tuple(range(40))


def _job(name, node, nbytes=8 * GB, threads=10):
    return ConcurrentJob(
        name=name,
        phase=KernelPhase(
            name=name,
            threads=threads,
            accesses=(
                BufferAccess(
                    buffer="b",
                    pattern=PatternKind.STREAM,
                    bytes_read=nbytes,
                    working_set=nbytes,
                ),
            ),
        ),
        placement=Placement.single(b=node),
        pus=XEON_PUS,
    )


def test_contention_vs_isolation(benchmark, record, xeon_setup):
    engine = xeon_setup.engine

    shared = price_concurrent(engine, (_job("app1", 0), _job("app2", 0)))
    isolated = price_concurrent(engine, (_job("app1", 0), _job("app2", 2)))

    def fmt(outs):
        return "\n".join(
            f"    {o.name}: solo {o.solo_seconds * 1e3:6.1f} ms, "
            f"co-run {o.seconds * 1e3:6.1f} ms (x{o.slowdown:.2f})"
            for o in outs
        )

    record(
        "multitenant_contention",
        "both tenants on the DRAM node:\n" + fmt(shared)
        + "\nsecond tenant moved to the NVDIMM node:\n" + fmt(isolated),
    )

    benchmark(
        lambda: price_concurrent(engine, (_job("a", 0), _job("b", 0)))
    )

    app1_shared = next(o for o in shared if o.name == "app1")
    app1_isolated = next(o for o in isolated if o.name == "app1")
    app2_isolated = next(o for o in isolated if o.name == "app2")

    # Sharing one node doubles both finish times.
    assert app1_shared.slowdown == pytest.approx(2.0, rel=0.02)
    # Isolation restores app1 entirely; app2 pays the slower medium but
    # escapes contention.
    assert app1_isolated.slowdown == pytest.approx(1.0, rel=0.02)
    assert app2_isolated.slowdown == pytest.approx(1.0, rel=0.02)
    assert app2_isolated.seconds > app1_isolated.seconds  # NVDIMM is slower


def test_when_isolation_wins(benchmark, record, xeon_setup):
    """Sweep the second tenant's size: the slower-but-private NVDIMM beats
    the shared DRAM once contention outweighs the medium gap... or not —
    DRAM at half rate (38 GB/s) still beats private NVDIMM reads
    (33 GB/s) for reads, so sharing wins narrowly; for *write*-heavy
    tenants the private NVDIMM loses badly.  The bench records the actual
    crossover structure."""
    engine = xeon_setup.engine

    rows = [f"{'app2 GB':>8} | {'shared DRAM':>11} | {'private NVDIMM':>14}"]
    results = {}
    for nbytes in (2 * GB, 8 * GB, 32 * GB):
        shared = price_concurrent(
            engine, (_job("app1", 0), _job("app2", 0, nbytes))
        )
        private = price_concurrent(
            engine, (_job("app1", 0), _job("app2", 2, nbytes))
        )
        s = next(o for o in shared if o.name == "app2").seconds
        p = next(o for o in private if o.name == "app2").seconds
        results[nbytes] = (s, p)
        rows.append(f"{nbytes / GB:>8.0f} | {s * 1e3:>9.1f}ms | {p * 1e3:>12.1f}ms")
    record("multitenant_crossover", "\n".join(rows))

    benchmark(
        lambda: price_concurrent(engine, (_job("a", 0), _job("b", 2, 2 * GB)))
    )
    # Both options complete; the table records which side of the crossover
    # this platform's numbers fall on.
    assert all(s > 0 and p > 0 for s, p in results.values())
