"""Access-pattern descriptors: what an application does to its buffers.

A :class:`KernelPhase` is the unit the engine prices: it names the buffers
it touches and, per buffer, a :class:`BufferAccess` describing how much is
read/written and in what pattern.  A :class:`Placement` says which NUMA
node(s) hold each buffer — usually derived from
:class:`~repro.kernel.pagealloc.PageAllocation` records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import SimulationError

__all__ = ["PatternKind", "BufferAccess", "KernelPhase", "Placement"]


class PatternKind(enum.Enum):
    """How a buffer is walked."""

    STREAM = "stream"               # contiguous, prefetchable
    STRIDED = "strided"             # constant stride > line size
    RANDOM = "random"               # independent random accesses
    POINTER_CHASE = "pointer_chase" # each access depends on the previous

    @property
    def is_latency_bound(self) -> bool:
        return self in _LATENCY_BOUND

    @property
    def cpu_mlp(self) -> float:
        """Memory-level parallelism one thread extracts for this pattern."""
        return _CPU_MLP[self]


# Pattern traits as module tables: reading an enum member off its class
# costs more than the lookup itself.
_LATENCY_BOUND = (PatternKind.RANDOM, PatternKind.POINTER_CHASE)
_CPU_MLP = {
    PatternKind.STREAM: 16.0,
    PatternKind.STRIDED: 12.0,
    PatternKind.RANDOM: 8.0,
    PatternKind.POINTER_CHASE: 1.0,
}


@dataclass(frozen=True)
class BufferAccess:
    """One buffer's traffic during a phase.

    ``bytes_read``/``bytes_written`` count *useful* (program-visible)
    bytes; cache-line amplification for sub-line random accesses is the
    engine's job, driven by ``granularity``.
    ``working_set`` is how much of the buffer is actually touched.
    """

    buffer: str
    pattern: PatternKind
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    working_set: int = 0
    granularity: int = 8
    line_size: int = 64
    #: Fraction of random accesses that land in a small, hot subset of the
    #: buffer (power-law workloads: graph hubs, hash-table heads).  Hot
    #: accesses hit the CPU caches regardless of the total working set.
    hot_fraction: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Bytes moved in either direction."""
        return self.bytes_read + self.bytes_written

    def __post_init__(self) -> None:
        if not 0.0 <= self.hot_fraction < 1.0:
            raise SimulationError(
                f"{self.buffer}: hot_fraction must be in [0, 1)"
            )
        if not self.buffer:
            raise SimulationError("buffer name must be non-empty")
        if self.bytes_read < 0 or self.bytes_written < 0:
            raise SimulationError(f"{self.buffer}: negative traffic")
        if self.bytes_read == 0 and self.bytes_written == 0:
            raise SimulationError(f"{self.buffer}: access moves no bytes")
        if self.working_set <= 0:
            raise SimulationError(f"{self.buffer}: working_set must be positive")
        if self.granularity <= 0 or self.line_size <= 0:
            raise SimulationError(f"{self.buffer}: bad granularity/line size")


@dataclass(frozen=True)
class KernelPhase:
    """One timed phase of an application."""

    name: str
    accesses: tuple[BufferAccess, ...]
    threads: int
    cpu_ops: float = 0.0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise SimulationError(f"phase {self.name!r}: needs >= 1 thread")
        if self.cpu_ops < 0:
            raise SimulationError(f"phase {self.name!r}: negative cpu_ops")
        if not self.accesses:
            raise SimulationError(f"phase {self.name!r}: no buffer accesses")
        names = [a.buffer for a in self.accesses]
        if len(set(names)) != len(names):
            raise SimulationError(f"phase {self.name!r}: duplicate buffer names")

    def access(self, buffer: str) -> BufferAccess:
        for a in self.accesses:
            if a.buffer == buffer:
                return a
        raise SimulationError(f"phase {self.name!r}: no buffer {buffer!r}")

    def traffic_shares(self) -> dict[str, float]:
        """Per-buffer fraction of the phase's total bytes moved."""
        total = sum(a.total_bytes for a in self.accesses)
        if total <= 0:
            return {a.buffer: 0.0 for a in self.accesses}
        return {a.buffer: a.total_bytes / total for a in self.accesses}


def _validate_split(buffer: str, split: dict[int, float]) -> None:
    total = sum(split.values())
    if not 0.999 <= total <= 1.001:
        raise SimulationError(
            f"buffer {buffer!r}: placement fractions sum to {total}, not 1"
        )
    # A one-node split that passed the sum check is positive: only
    # multi-node splits need the scan, which keeps placement search
    # (one-node splits, a Placement per memo miss) off it.
    if len(split) > 1 and min(split.values()) < 0.0:
        node, frac = min(split.items(), key=lambda item: item[1])
        raise SimulationError(
            f"buffer {buffer!r}: negative placement fraction {frac} on node {node}"
        )


@dataclass
class Placement:
    """Which node(s) hold each buffer: buffer → {node os index: fraction}.

    Fractions are validated when splits enter the placement
    (construction, :meth:`set`): each is non-negative and they sum to 1.
    So :meth:`of` — the pricing hot path — is a plain dictionary lookup.
    """

    fractions: dict[str, dict[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for buffer, split in self.fractions.items():
            _validate_split(buffer, split)

    @classmethod
    def single(cls, **buffer_to_node: int) -> "Placement":
        """Convenience: every named buffer entirely on one node."""
        return cls({name: {node: 1.0} for name, node in buffer_to_node.items()})

    @classmethod
    def from_allocations(cls, allocations: dict[str, "object"]) -> "Placement":
        """Build from :class:`~repro.kernel.pagealloc.PageAllocation`s."""
        fractions: dict[str, dict[int, float]] = {}
        for name, alloc in allocations.items():
            fractions[name] = {
                node: alloc.fraction_on(node) for node in alloc.nodes
            }
        return cls(fractions)

    def of(self, buffer: str) -> dict[int, float]:
        try:
            return self.fractions[buffer]
        except KeyError:
            raise SimulationError(f"no placement for buffer {buffer!r}") from None

    def set(self, buffer: str, split: dict[int, float]) -> None:
        _validate_split(buffer, split)
        self.fractions[buffer] = dict(split)

    def nodes_used(self) -> tuple[int, ...]:
        out: set[int] = set()
        for split in self.fractions.values():
            out.update(split)
        return tuple(sorted(out))
