"""Cross-job bandwidth contention: pricing phases that run *simultaneously*.

The single-phase engine assumes the phase owns the machine.  When several
applications share nodes (§III-B3's multi-tenant scenario), their traffic
contends: we model each NUMA node as a processor-sharing server — while
``k`` jobs have outstanding traffic on a node, each receives ``1/k`` of
its bandwidth.  Latency/CPU components are per-job serial work and do not
contend (they use different resources: the cores running the job).

:func:`price_concurrent` computes each job's finish time under that model
by event-stepping job completions (exact for processor sharing).  Each
job is solo-priced once through the scalar
:meth:`~repro.sim.engine.SimEngine.price_phase` (docs/MODEL.md §7c says
why contention has no batch route).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from .access import KernelPhase, Placement
from .engine import SimEngine

__all__ = [
    "ConcurrentJob",
    "ConcurrentOutcome",
    "price_concurrent",
]


@dataclass(frozen=True)
class ConcurrentJob:
    """One co-running application phase."""

    name: str
    phase: KernelPhase
    placement: Placement
    pus: tuple[int, ...]


@dataclass(frozen=True)
class ConcurrentOutcome:
    """Finish time of one job under contention."""

    name: str
    solo_seconds: float        # what the job would take alone
    seconds: float             # finish time while sharing the machine
    slowdown: float            # seconds / solo_seconds


@dataclass(frozen=True)
class _SoloPrice:
    """The per-job inputs the processor-sharing fixpoint consumes."""

    solo_seconds: float
    serial_seconds: float      # latency + cpu (does not contend)
    work: dict[int, float]     # node -> bandwidth-seconds of demand


def _solo_scalar(engine: SimEngine, job: ConcurrentJob) -> _SoloPrice:
    timing = engine.price_phase(job.phase, job.placement, pus=job.pus)
    return _SoloPrice(
        solo_seconds=timing.seconds,
        serial_seconds=timing.latency_seconds + timing.cpu_seconds,
        work={
            node: traffic.bw_seconds
            for node, traffic in timing.node_traffic.items()
            if traffic.bw_seconds > 0
        },
    )


def _bandwidth_finish(
    names: list[str], work: dict[str, dict[int, float]]
) -> dict[str, float]:
    """Event-driven processor sharing over the union of nodes.

    A job is "active on a node" until its work there is drained; it
    advances on all its nodes in parallel (they are independent
    controllers).
    """
    remaining = {name: dict(node_work) for name, node_work in work.items()}
    bw_finish = {name: 0.0 for name in names}
    now = 0.0
    while any(any(v > 1e-15 for v in r.values()) for r in remaining.values()):
        # Sharers per node at this instant.
        sharers: dict[int, int] = {}
        for r in remaining.values():
            for node, left in r.items():
                if left > 1e-15:
                    sharers[node] = sharers.get(node, 0) + 1
        # Each active (job, node) drains at rate 1/sharers[node] of the
        # node's capacity; time to next completion event:
        dt = min(
            left * sharers[node]
            for r in remaining.values()
            for node, left in r.items()
            if left > 1e-15
        )
        now += dt
        for name, r in remaining.items():
            done = True
            for node, left in list(r.items()):
                if left > 1e-15:
                    r[node] = left - dt / sharers[node]
                    if r[node] > 1e-15:
                        done = False
            if done and bw_finish[name] == 0.0 and work[name]:
                bw_finish[name] = now
    return bw_finish


def price_concurrent(
    engine: SimEngine, jobs: tuple[ConcurrentJob, ...]
) -> tuple[ConcurrentOutcome, ...]:
    """Price co-running jobs with per-node processor-sharing bandwidth.

    Approach: price each job alone to obtain (a) its serial (latency+cpu)
    time and (b) its *bandwidth work* per node (node-seconds of demand).
    Then simulate processor sharing: at any instant, a node serves its
    active jobs at equal rates; a job's bandwidth work completes node by
    node (its finish is governed by its bottleneck node), after which its
    serial work keeps only its own cores busy.

    The serial component overlaps the bandwidth component the same way
    the solo model overlaps them (roofline max), so each job's finish
    time is ``max(shared_bandwidth_finish, serial_time)``.
    """
    if not jobs:
        raise SimulationError("price_concurrent needs at least one job")
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise SimulationError("duplicate job names")
    solo = {job.name: _solo_scalar(engine, job) for job in jobs}
    bw_finish = _bandwidth_finish(
        names, {name: solo[name].work for name in names}
    )
    outcomes = []
    for job in jobs:
        price = solo[job.name]
        finish = max(bw_finish[job.name], price.serial_seconds)
        outcomes.append(
            ConcurrentOutcome(
                name=job.name,
                solo_seconds=price.solo_seconds,
                seconds=finish,
                slowdown=finish / price.solo_seconds,
            )
        )
    return tuple(outcomes)
