"""Chaos harness: seeded fault schedules replayed against live workloads.

``run_chaos`` drives a full stack (kernel + attributes + resilient
allocator) through a deterministic :class:`~repro.resilience.faults.FaultPlan`
while a workload allocates, accesses, migrates and frees buffers each
tick.  The result records, for **every** buffer the workload attempted:

* ``placed``   — landed on the best target, nothing degraded;
* ``degraded`` — landed somewhere worse, with a recorded typed event;
* ``failed``   — raised a typed :class:`~repro.errors.ReproError`.

There is no fourth state: a buffer that disappears without one of these
outcomes is an invariant violation, which the differential suite (and the
``repro-chaos --verify`` CI gate) turns into a hard failure.  Kernel page
accounting is audited the same way (:func:`check_invariants`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..alloc.allocator import Buffer, HeterogeneousAllocator
from ..errors import ReproError, SpecError
from ..kernel.pagealloc import KernelMemoryManager
from ..sim.access import BufferAccess, KernelPhase, PatternKind
from ..units import GiB, MiB
from .events import EventKind, ResilienceEvent, ResilienceLog
from .faults import FaultClock, FaultPlan
from .resilient import ResilientAllocator

__all__ = [
    "ChaosOutcome",
    "ChaosRunResult",
    "WORKLOADS",
    "run_chaos",
    "check_invariants",
]

#: Fixed per-tick buffer recipes: (base name, size, attribute, lifetime in
#: ticks).  ``triad`` and ``graph500`` mirror the paper's two experiment
#: workloads (streaming triad operands; BFS adjacency stream + random
#: predecessor/queue segments); ``synthetic`` draws a seeded random mix.
WORKLOADS: dict[str, tuple[tuple[str, int, str, int], ...]] = {
    "triad": (
        ("a", 512 * MiB, "Bandwidth", 2),
        ("b", 512 * MiB, "Bandwidth", 2),
        ("c", 512 * MiB, "Bandwidth", 2),
    ),
    "graph500": (
        ("adj", 1 * GiB, "Bandwidth", 3),
        ("pred", 256 * MiB, "Latency", 3),
        ("queue", 64 * MiB, "Latency", 2),
    ),
}

_SYNTHETIC_SIZES = (64 * MiB, 128 * MiB, 256 * MiB, 512 * MiB, 1 * GiB)
_SYNTHETIC_ATTRS = ("Bandwidth", "Latency", "Capacity")


@dataclass(frozen=True)
class ChaosOutcome:
    """What happened to one attempted buffer."""

    buffer: str
    tick: int
    status: str  # "placed" | "degraded" | "failed"
    error: str = ""
    nodes: tuple[int, ...] = ()

    def describe(self) -> str:
        where = (
            f" on nodes {list(self.nodes)}" if self.nodes else ""
        ) + (f" ({self.error})" if self.error else "")
        return f"[t{self.tick:03d}] {self.status:<8} {self.buffer}{where}"


@dataclass(frozen=True)
class ChaosRunResult:
    """Everything one seeded chaos run produced."""

    seed: int
    platform: str
    workload: str
    ticks: int
    plan: FaultPlan
    outcomes: tuple[ChaosOutcome, ...]
    events: tuple[ResilienceEvent, ...]
    #: Live buffers at the end: name -> sorted (node, pages) pairs.
    placements: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    #: Simulated phase seconds per tick (pricing the live working set).
    tick_seconds: tuple[float, ...]
    invariant_violations: tuple[str, ...]

    def fingerprint(self) -> str:
        """SHA-256 over the schedule, outcomes, events and placements.

        Two runs are bit-identical iff their fingerprints match — the
        determinism half of the chaos contract.
        """
        parts = [self.plan.describe()]
        parts.extend(o.describe() for o in self.outcomes)
        parts.extend(e.describe() for e in self.events)
        parts.extend(
            f"{name}: {pages}" for name, pages in self.placements
        )
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {"placed": 0, "degraded": 0, "failed": 0}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    def summary(self) -> str:
        counts = self.outcome_counts()
        lines = [
            f"chaos run: platform={self.platform} workload={self.workload} "
            f"seed={self.seed} ticks={self.ticks}",
            f"fault schedule ({len(self.plan)} faults):",
        ]
        lines.extend(
            f"  {line}" for line in (self.plan.describe() or "(none)").splitlines()
        )
        lines.append(
            f"buffers: {counts['placed']} placed, {counts['degraded']} degraded, "
            f"{counts['failed']} failed (typed) of {len(self.outcomes)} attempted"
        )
        lines.append(f"events recorded: {len(self.events)}")
        lines.extend(f"  {e.describe()}" for e in self.events)
        if self.tick_seconds:
            total = sum(self.tick_seconds)
            lines.append(
                f"simulated workload time: {total:.3f}s over {self.ticks} ticks"
            )
        if self.invariant_violations:
            lines.append("INVARIANT VIOLATIONS:")
            lines.extend(f"  {v}" for v in self.invariant_violations)
        else:
            lines.append("invariants: clean")
        lines.append(f"fingerprint: {self.fingerprint()}")
        return "\n".join(lines)


def _round_requests(
    workload: str, tick: int, rng: random.Random
) -> tuple[tuple[str, int, str, int], ...]:
    """The buffers the workload asks for this tick (names made unique)."""
    if workload in WORKLOADS:
        recipe = WORKLOADS[workload]
    elif workload == "synthetic":
        recipe = tuple(
            (
                f"s{i}",
                rng.choice(_SYNTHETIC_SIZES),
                rng.choice(_SYNTHETIC_ATTRS),
                rng.randint(1, 4),
            )
            for i in range(rng.randint(1, 3))
        )
    else:
        raise SpecError(
            f"unknown chaos workload {workload!r}; "
            f"known: {', '.join(sorted(WORKLOADS))}, synthetic"
        )
    return tuple(
        (f"{base}@t{tick}", size, attr, life) for base, size, attr, life in recipe
    )


def _tick_phase(live: dict[str, Buffer]) -> KernelPhase | None:
    """One simulated access phase over the live working set."""
    accesses = []
    for name in sorted(live):
        buf = live[name]
        random_like = buf.requested_attribute.lower().startswith(
            ("latency", "readlatency", "writelatency")
        )
        accesses.append(
            BufferAccess(
                buffer=name,
                pattern=PatternKind.RANDOM if random_like else PatternKind.STREAM,
                bytes_read=float(buf.size),
                working_set=buf.size,
            )
        )
    if not accesses:
        return None
    return KernelPhase(name="chaos-tick", threads=8, accesses=tuple(accesses))


def check_invariants(
    kernel: KernelMemoryManager,
    allocator: HeterogeneousAllocator | None = None,
) -> tuple[str, ...]:
    """Audit kernel page accounting; returns violations (empty = clean).

    Checks that no allocation lost pages, no pages sit on offline nodes,
    and that every node's used pages are exactly accounted for by the OS
    reservation, co-tenant holdings, and live allocations.
    """
    problems: list[str] = []
    per_node: dict[int, int] = {}
    for alloc in kernel.live_allocations():
        if alloc.freed:
            problems.append(f"alloc#{alloc.allocation_id} live but freed")
        expected = -(-alloc.size_bytes // kernel.page_size)
        if alloc.total_pages != expected:
            problems.append(
                f"alloc#{alloc.allocation_id} holds {alloc.total_pages} pages, "
                f"expected {expected} — pages silently lost"
            )
        for node, pages in alloc.pages_by_node.items():
            if pages <= 0:
                problems.append(
                    f"alloc#{alloc.allocation_id} records {pages} pages on "
                    f"node {node}"
                )
            if not kernel.is_online(node):
                problems.append(
                    f"alloc#{alloc.allocation_id} has {pages} pages resident "
                    f"on offline node {node}"
                )
            per_node[node] = per_node.get(node, 0) + pages
    for node in kernel.node_ids():
        state = kernel.nodes[node]
        accounted = (
            per_node.get(node, 0)
            + kernel.cotenant_pages(node)
            + kernel.os_reserved_pages(node)
        )
        if state.used_pages != accounted:
            problems.append(
                f"node {node}: {state.used_pages} pages used but only "
                f"{accounted} accounted for (live + co-tenant + OS)"
            )
    if allocator is not None:
        live_ids = {a.allocation_id for a in kernel.live_allocations()}
        for name, buf in allocator.buffers.items():
            if buf.allocation.allocation_id not in live_ids:
                problems.append(
                    f"buffer {name!r} references a non-live allocation"
                )
    return tuple(problems)


def run_chaos(
    *,
    seed: int,
    platform: str = "xeon-cascadelake-1lm",
    workload: str = "synthetic",
    ticks: int = 12,
    price_ticks: bool = False,
    setup=None,
) -> ChaosRunResult:
    """Replay a seeded fault schedule against a live workload.

    ``setup`` lets callers (tests, batch drivers) inject a prebuilt
    :class:`repro.ReproSetup`; by default a fresh stack is built for
    ``platform``.  ``price_ticks=True`` additionally prices one simulated
    access phase over the live buffers each tick, so fault impact shows
    up as time, not just placement.
    """
    if setup is None:
        from repro import quick_setup

        setup = quick_setup(platform)
    kernel = setup.kernel
    log = ResilienceLog()
    plan = FaultPlan.random(seed, nodes=kernel.node_ids(), ticks=ticks)
    clock = FaultClock(plan, kernel, memattrs=setup.memattrs, log=log)
    ralloc = ResilientAllocator(setup.allocator, log=log)
    rng = random.Random((seed << 1) ^ 0x9E3779B9)

    live: dict[str, Buffer] = {}
    expiry: dict[str, int] = {}
    outcomes: list[ChaosOutcome] = []
    tick_seconds: list[float] = []

    for tick in range(ticks):
        clock.tick()

        for name in [n for n, exp in sorted(expiry.items()) if exp <= tick]:
            ralloc.free(name)
            del live[name], expiry[name]

        for name, size, attribute, lifetime in _round_requests(
            workload, tick, rng
        ):
            mark = len(log)
            try:
                buf = ralloc.mem_alloc(
                    size,
                    attribute,
                    initiator=0,
                    name=name,
                    allow_partial=rng.random() < 0.25,
                )
            except ReproError as err:
                outcomes.append(
                    ChaosOutcome(
                        name, tick, "failed", error=type(err).__name__
                    )
                )
                continue
            degraded = any(
                e.kind is EventKind.PLACEMENT_DEGRADED
                for e in log.since(mark)
            )
            outcomes.append(
                ChaosOutcome(
                    name,
                    tick,
                    "degraded" if degraded else "placed",
                    nodes=buf.nodes,
                )
            )
            live[name] = buf
            expiry[name] = tick + lifetime

        # Occasionally re-optimize a live buffer (phase change): exercises
        # the retry-with-backoff path under flaky-migration faults.
        if live and rng.random() < 0.4:
            victim = rng.choice(sorted(live))
            try:
                ralloc.migrate(victim, rng.choice(("Bandwidth", "Latency")))
            except ReproError:
                pass  # typed + already event-logged by the wrapper

        if price_ticks:
            phase = _tick_phase(live)
            tick_seconds.append(
                setup.engine.price_phase(phase, ralloc.placement()).seconds
                if phase is not None
                else 0.0
            )

    placements = tuple(
        (name, tuple(sorted(live[name].allocation.pages_by_node.items())))
        for name in sorted(live)
    )
    violations = list(check_invariants(kernel, setup.allocator))
    # The no-silent-drop audit: every attempted buffer has an outcome, and
    # every degraded outcome has its typed event on the log.
    degraded_logged = {
        e.subject for e in log.of_kind(EventKind.PLACEMENT_DEGRADED)
    }
    failed_logged = {
        e.subject for e in log.of_kind(EventKind.ALLOCATION_FAILED)
    }
    for outcome in outcomes:
        if outcome.status == "degraded" and outcome.buffer not in degraded_logged:
            violations.append(
                f"buffer {outcome.buffer!r} degraded without a recorded event"
            )
        if outcome.status == "failed" and outcome.buffer not in failed_logged:
            violations.append(
                f"buffer {outcome.buffer!r} failed without a recorded event"
            )

    return ChaosRunResult(
        seed=seed,
        platform=platform,
        workload=workload,
        ticks=ticks,
        plan=plan,
        outcomes=tuple(outcomes),
        events=log.events,
        placements=placements,
        tick_seconds=tuple(tick_seconds),
        invariant_violations=tuple(violations),
    )
