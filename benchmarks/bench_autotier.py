"""Ablation: declarative attributes vs reactive auto-tiering.

The paper's allocator places buffers correctly *at allocation time*
because the application declared its needs.  The reactive alternative
(Linux TPP-style page promotion/demotion, the software sibling of KNL
Cache mode) reaches a similar steady state with **no application
changes** — but pays a convergence tail: the first intervals run at
slow-tier speed and the migrations themselves cost time.  This bench
measures both effects on a hot-streaming workload, as exact ``modeled``
and ``count`` rows of ``benchmarks/results/bench_autotier.json``; the
price-guided step's timing is a ``wall`` row there.
"""

import time

import repro
from repro.kernel import AutoTierDaemon, TierConfig, bind_policy
from repro.kernel.autotier import StepReport
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GB, MiB

KNL_PUS = tuple(range(64))
HOT_BYTES = 3 * GB
SWEEPS_PER_INTERVAL = 10
INTERVALS = 8
PRICED_BUFFERS = 12   # candidates per priced step
PRICED_ROUNDS = 40
SHAPE = {
    "intervals": INTERVALS,
    "sweeps_per_interval": SWEEPS_PER_INTERVAL,
    "priced_buffers": PRICED_BUFFERS,
    "priced_rounds": PRICED_ROUNDS,
}


def _interval_phase() -> KernelPhase:
    return KernelPhase(
        name="interval",
        threads=16,
        accesses=(
            BufferAccess(
                buffer="hot",
                pattern=PatternKind.STREAM,
                bytes_read=HOT_BYTES * SWEEPS_PER_INTERVAL,
                working_set=HOT_BYTES,
            ),
        ),
    )


def _run_declarative() -> float:
    setup = repro.quick_setup("knl-snc4-flat")
    buf = setup.allocator.mem_alloc(HOT_BYTES, "Bandwidth", 0, name="hot")
    total = 0.0
    for _ in range(INTERVALS):
        t = setup.engine.price_phase(
            _interval_phase(), setup.allocator.placement(), pus=KNL_PUS
        )
        total += t.seconds
    setup.allocator.free(buf)
    return total


def _run_reactive() -> tuple[float, int]:
    setup = repro.quick_setup("knl-snc4-flat")
    kernel = setup.kernel
    # Unmodified app: default placement (local DRAM).
    alloc = kernel.allocate(HOT_BYTES, bind_policy(0))
    daemon = AutoTierDaemon(
        kernel,
        TierConfig(
            fast_nodes=(4,),
            slow_nodes=(0,),
            migration_budget_bytes=2 * GB,   # per-interval budget
        ),
    )
    daemon.track("hot", alloc)
    fast, slow = {4}, {0}
    total = 0.0
    converged_at = INTERVALS
    for interval in range(INTERVALS):
        placement = Placement({"hot": {
            n: alloc.fraction_on(n) for n in alloc.nodes
        }})
        t = setup.engine.price_phase(_interval_phase(), placement, pus=KNL_PUS)
        total += t.seconds
        daemon.observe({"hot": HOT_BYTES * SWEEPS_PER_INTERVAL})
        report = daemon.step()
        # Churn guard: every migration crosses the tier boundary.  A
        # demotion pulls only fast-resident pages, a promotion only pages
        # from outside the fast tier — never slow→slow (or fast→fast)
        # shuffling that burns budget without changing the tier mix.
        for m in report.migrations:
            if m.to_node in slow:
                assert set(m.from_nodes) <= fast, f"slow→slow churn: {m}"
            if m.to_node in fast:
                assert not set(m.from_nodes) & fast, f"fast→fast churn: {m}"
        total += report.migration_seconds
        if alloc.fraction_on(4) > 0.999 and converged_at == INTERVALS:
            converged_at = interval + 1
    kernel.free(alloc)
    return total, converged_at


def test_declarative_vs_reactive(record, ledger):
    declarative = _run_declarative()
    reactive, converged_at = _run_reactive()

    ledger.row("declarative_seconds", declarative, "s", "lower", "modeled")
    ledger.row("reactive_seconds", reactive, "s", "lower", "modeled")
    ledger.row("converged_at", converged_at, "intervals", "lower", "count")
    record(
        "autotier_vs_attributes",
        f"hot buffer: {HOT_BYTES / 1e9:.0f} GB, "
        f"{SWEEPS_PER_INTERVAL} sweeps/interval, {INTERVALS} intervals\n"
        f"declarative (mem_alloc Bandwidth): {declarative:7.3f}s total\n"
        f"reactive (auto-tier daemon):       {reactive:7.3f}s total "
        f"(converged after {converged_at} intervals)\n"
        f"reactive overhead: {(reactive / declarative - 1) * 100:.0f}%",
    )

    # The daemon converges — and then matches the declarative placement.
    assert converged_at < INTERVALS
    # But the convergence tail + migration traffic costs real time.
    assert reactive > declarative * 1.1
    # Still far better than never promoting at all (pure DRAM run).
    setup = repro.quick_setup("knl-snc4-flat")
    never = INTERVALS * setup.engine.price_phase(
        _interval_phase(), Placement.single(hot=0), pus=KNL_PUS
    ).seconds
    assert reactive < never * 0.75


def _timed(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_priced_step_cost(record, ledger):
    """The daemon's price-guided step: baseline plus one variant per
    candidate move, each priced on the phase prepared once per
    ``set_phase`` (the probe step prepares it, so the timed steps only
    price)."""
    setup = repro.quick_setup("knl-snc4-flat")
    kernel = setup.kernel
    n_bufs, rounds = PRICED_BUFFERS, PRICED_ROUNDS
    cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
    daemon = AutoTierDaemon(kernel, cfg, engine=setup.engine)
    accesses = []
    for i in range(n_bufs):
        name = f"b{i}"
        node = 4 if i % 2 else 0
        daemon.track(name, kernel.allocate(256 * MiB, bind_policy(node)))
        accesses.append(
            BufferAccess(
                buffer=name,
                pattern=PatternKind.STREAM,
                bytes_read=(8 * GB) if node == 0 else (16 * MiB),
                working_set=256 * MiB,
            )
        )
    phase = KernelPhase(name="tenants", threads=64, accesses=tuple(accesses))
    daemon.set_phase(phase, pus=KNL_PUS)
    # Make every buffer a candidate: slow residents hot, fast ones cold.
    for i in range(n_bufs):
        daemon._tracked[f"b{i}"].hotness = 0.0 if i % 2 else 5.0

    fast, slow = (4,), (0,)
    probe = StepReport()
    daemon._price_guidance(fast, slow, probe)
    assert probe.candidates_priced == n_bufs

    step_s = _timed(
        lambda: [
            daemon._price_guidance(fast, slow, StepReport())
            for _ in range(rounds)
        ]
    ) / rounds
    ledger.row("priced_step.wall_us", step_s * 1e6, "us", "lower", "wall")
    record(
        "autotier_priced_step",
        f"{n_bufs} candidates/step: {step_s * 1e6:8.1f} us per priced step",
    )
