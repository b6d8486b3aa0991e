"""Phase-changing workload schedules — where static hints go stale.

The paper's evaluation (and our
``benchmarks/results/bench_static_hints.json``) uses *static* workloads:
one hot set for the whole run, so a placement chosen at allocation time
is optimal forever.  Online guidance only earns its
keep when the hot set **moves** (arxiv 2110.02150 §6: applications with
distinct execution phases).  This module provides deterministic phased
schedules for that scenario:

* :func:`rotating_triad` — N Triad-style stream buffers; the hot buffer
  rotates every ``rotate_every`` intervals while the rest see a cold
  trickle.  A static hint placed for interval 0 is wrong for every
  interval after the first rotation.
* :func:`phased_graph500` — a Graph500-flavoured two-phase alternation:
  *top-down* intervals stream the large adjacency CSR, *bottom-up*
  intervals sweep the distance/frontier arrays linearly (the classic
  direction-optimized BFS shape).  Both hot sets are bandwidth-bound but
  the capacity-constrained fast tier cannot hold them together, so the
  right placement flips with the direction.

A :class:`PhasedWorkload` is a plain schedule: per interval one
:class:`~repro.sim.access.KernelPhase` (what the engine prices) whose
declared traffic doubles as the ground-truth access volumes a
:class:`~repro.profiler.pebs.PebsSampler` thins into estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..sim.access import BufferAccess, KernelPhase, PatternKind
from ..units import GB, MiB

__all__ = [
    "WorkloadInterval",
    "PhasedWorkload",
    "rotating_triad",
    "phased_graph500",
]


@dataclass(frozen=True)
class WorkloadInterval:
    """One interval: the phase the app runs and its true access volumes."""

    phase: KernelPhase

    @property
    def volumes(self) -> dict[str, float]:
        """True per-buffer bytes moved — what a perfect profiler sees."""
        return {a.buffer: a.total_bytes for a in self.phase.accesses}


@dataclass(frozen=True)
class PhasedWorkload:
    """A named schedule of intervals over a fixed buffer set."""

    name: str
    #: allocation size per buffer (what the app mallocs up front).
    buffer_bytes: dict[str, int]
    intervals: tuple[WorkloadInterval, ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise SimulationError(f"workload {self.name!r}: no intervals")
        for interval in self.intervals:
            for access in interval.phase.accesses:
                if access.buffer not in self.buffer_bytes:
                    raise SimulationError(
                        f"workload {self.name!r}: interval touches "
                        f"undeclared buffer {access.buffer!r}"
                    )

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def buffers(self) -> tuple[str, ...]:
        return tuple(sorted(self.buffer_bytes))

    def hot_buffers(self, index: int) -> tuple[str, ...]:
        """Buffers whose interval traffic exceeds their own size."""
        interval = self.intervals[index]
        return tuple(
            sorted(
                a.buffer
                for a in interval.phase.accesses
                if a.total_bytes > self.buffer_bytes[a.buffer]
            )
        )


def _stream(buffer: str, nbytes: float, working_set: int) -> BufferAccess:
    return BufferAccess(
        buffer=buffer,
        pattern=PatternKind.STREAM,
        bytes_read=nbytes,
        working_set=working_set,
    )


def rotating_triad(
    *,
    buffers: int = 4,
    buffer_bytes: int = 1 * GB,
    intervals: int = 12,
    rotate_every: int = 3,
    hot_sweeps: int = 8,
    cold_bytes: int = 16 * MiB,
    threads: int = 16,
) -> PhasedWorkload:
    """Triad-style streams whose hot buffer rotates.

    Interval ``i`` streams ``hot_sweeps`` full sweeps of buffer
    ``t{(i // rotate_every) % buffers}`` while every other buffer sees a
    ``cold_bytes`` trickle (touched, but far below any promotion
    threshold).  With ``intervals > rotate_every`` the initial hint is
    stale for most of the run.
    """
    if buffers < 2:
        raise SimulationError("rotating_triad needs >= 2 buffers")
    if rotate_every < 1 or intervals < 1:
        raise SimulationError("intervals and rotate_every must be >= 1")
    names = [f"t{i}" for i in range(buffers)]
    sizes = {name: buffer_bytes for name in names}
    schedule = []
    for i in range(intervals):
        hot = names[(i // rotate_every) % buffers]
        accesses = tuple(
            _stream(
                name,
                float(hot_sweeps * buffer_bytes) if name == hot
                else float(cold_bytes),
                buffer_bytes,
            )
            for name in names
        )
        schedule.append(
            WorkloadInterval(
                phase=KernelPhase(
                    name=f"rotate[{i}]", threads=threads, accesses=accesses
                )
            )
        )
    return PhasedWorkload(
        name="rotating_triad",
        buffer_bytes=sizes,
        intervals=tuple(schedule),
    )


def phased_graph500(
    *,
    adjacency_bytes: int = 3 * GB,
    frontier_bytes: int = 1 * GB,
    distance_bytes: int = 1 * GB,
    intervals: int = 16,
    rotate_every: int = 4,
    hot_sweeps: int = 24,
    cold_bytes: int = 16 * MiB,
    threads: int = 32,
) -> PhasedWorkload:
    """Direction-optimized-BFS alternation between two hot sets.

    *Top-down* intervals stream the large adjacency CSR (``adj``) with
    only a trickle on the traversal state; *bottom-up* intervals sweep
    the ``dist``/``frontier`` arrays linearly, many times, while ``adj``
    goes quiet.  Both hot sets are bandwidth-bound streams, but with
    default sizes (3 GB vs 1+1 GB) they cannot co-reside in a ~4 GB fast
    tier — the optimal placement flips with the BFS direction, which is
    exactly what a static hint cannot follow.
    """
    if rotate_every < 1 or intervals < 1:
        raise SimulationError("intervals and rotate_every must be >= 1")
    sizes = {
        "adj": adjacency_bytes,
        "frontier": frontier_bytes,
        "dist": distance_bytes,
    }
    schedule = []
    for i in range(intervals):
        top_down = (i // rotate_every) % 2 == 0
        if top_down:
            accesses = (
                _stream(
                    "adj", float(hot_sweeps * adjacency_bytes), adjacency_bytes
                ),
                _stream("frontier", float(cold_bytes), frontier_bytes),
                _stream("dist", float(cold_bytes), distance_bytes),
            )
        else:
            accesses = (
                _stream("adj", float(cold_bytes), adjacency_bytes),
                _stream(
                    "frontier",
                    float(hot_sweeps * frontier_bytes),
                    frontier_bytes,
                ),
                BufferAccess(
                    buffer="dist",
                    pattern=PatternKind.STREAM,
                    bytes_read=float(hot_sweeps * distance_bytes) / 2,
                    bytes_written=float(hot_sweeps * distance_bytes) / 2,
                    working_set=distance_bytes,
                ),
            )
        schedule.append(
            WorkloadInterval(
                phase=KernelPhase(
                    name=f"bfs[{'top-down' if top_down else 'bottom-up'}:{i}]",
                    threads=threads,
                    accesses=accesses,
                )
            )
        )
    return PhasedWorkload(
        name="phased_graph500",
        buffer_bytes=sizes,
        intervals=tuple(schedule),
    )
