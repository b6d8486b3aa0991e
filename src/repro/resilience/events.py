"""Typed resilience events.

The resilience layer's contract is **nothing degrades silently**: every
fault applied, every placement that landed somewhere worse than asked,
every retried or abandoned migration produces exactly one typed
:class:`ResilienceEvent` in a :class:`ResilienceLog`.  The chaos
differential suite audits the log to prove the contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..obs import OBS

__all__ = ["EventKind", "ResilienceEvent", "ResilienceLog"]


class EventKind(enum.Enum):
    """Every way the stack can be hurt — or recover."""

    # Faults applied by the clock.
    NODE_OFFLINE = "node-offline"
    NODE_OFFLINE_FAILED = "node-offline-failed"
    NODE_ONLINE = "node-online"
    CAPACITY_LOSS = "capacity-loss"
    CAPACITY_RESTORED = "capacity-restored"
    ATTRS_DEGRADED = "attrs-degraded"
    MIGRATION_FLAKY_ARMED = "migration-flaky-armed"
    #: A scheduled fault could not apply (node already offline, no
    #: attribute values to degrade, ...) — recorded, never dropped.
    FAULT_SKIPPED = "fault-skipped"

    # Degraded-mode decisions taken by the allocator wrapper.
    PLACEMENT_DEGRADED = "placement-degraded"
    ALLOCATION_FAILED = "allocation-failed"
    MIGRATION_RETRY = "migration-retry"
    MIGRATION_GAVE_UP = "migration-gave-up"

    # Multi-tenant service decisions (``repro.serve``): a request turned
    # away at the door — queue full or per-tenant quota exhausted — with
    # zero state touched.  Typed so "rejected" is never "dropped".
    ADMISSION_REJECTED = "admission-rejected"
    QUOTA_EXCEEDED = "quota-exceeded"


@dataclass(frozen=True)
class ResilienceEvent:
    """One fault, recovery, or degradation; immutable once recorded."""

    tick: int
    kind: EventKind
    #: What the event is about: ``node3``, a buffer name, an attribute.
    subject: str
    detail: str = ""

    def describe(self) -> str:
        tail = f" — {self.detail}" if self.detail else ""
        return f"[t{self.tick:03d}] {self.kind.value:<22} {self.subject}{tail}"


@dataclass
class ResilienceLog:
    """Append-only sink shared by the fault clock and the allocator wrapper.

    ``now`` is the current fault-clock tick; the clock advances it so
    that events recorded by other components (the allocator wrapper, the
    auto-tier daemon) are stamped with the tick they happened in.
    """

    now: int = 0
    _events: list[ResilienceEvent] = field(default_factory=list)
    # Per-kind tally kept by ``record``, so ``counts()`` costs O(kinds),
    # not O(events since start).
    _counts: dict[EventKind, int] = field(default_factory=dict)

    def record(
        self, kind: EventKind, subject: str, detail: str = ""
    ) -> ResilienceEvent:
        event = ResilienceEvent(
            tick=self.now, kind=kind, subject=subject, detail=detail
        )
        self._events.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if OBS.enabled:
            OBS.metrics.counter("resilience.events", kind=kind.value).inc()
        return event

    @property
    def events(self) -> tuple[ResilienceEvent, ...]:
        return tuple(self._events)

    def since(self, mark: int) -> tuple[ResilienceEvent, ...]:
        """The events recorded after the first ``mark`` (a ``len(log)``
        taken earlier), copying only those."""
        return tuple(self._events[mark:])

    def of_kind(self, *kinds: EventKind) -> tuple[ResilienceEvent, ...]:
        wanted = set(kinds)
        return tuple(e for e in self._events if e.kind in wanted)

    def counts(self) -> dict[EventKind, int]:
        """Events recorded per kind, in order of each kind's first event."""
        return dict(self._counts)

    def describe(self) -> str:
        return "\n".join(e.describe() for e in self._events)

    def __len__(self) -> int:
        return len(self._events)
