"""Degradation-aware allocation: the resilient front end to ``mem_alloc``.

:class:`ResilientAllocator` wraps a
:class:`~repro.alloc.allocator.HeterogeneousAllocator` with the paper's
missing production concern: the machine changes underneath you.  It keeps
the same call surface but guarantees that

* every placement that landed anywhere worse than asked — capacity
  fallback, attribute fallback, best target offline, partial spill — is
  recorded as a typed :class:`~repro.resilience.events.ResilienceEvent`;
* every allocation failure is a typed :class:`~repro.errors.ReproError`
  *and* a recorded event (never a silent drop);
* transient migration failures are retried with deterministic
  exponential backoff (simulated — no wall-clock sleeping) before the
  error is allowed to propagate.
"""

from __future__ import annotations

from ..alloc.allocator import Buffer, HeterogeneousAllocator
from ..errors import AllocationError, TransientMigrationError
from ..kernel.migration import MigrationReport
from ..obs import OBS
from ..sim.access import Placement
from .events import EventKind, ResilienceLog

__all__ = ["ResilientAllocator"]


class ResilientAllocator:
    """Same surface as the heterogeneous allocator; nothing degrades silently."""

    def __init__(
        self,
        allocator: HeterogeneousAllocator,
        *,
        log: ResilienceLog | None = None,
        max_migration_retries: int = 4,
        backoff_base_seconds: float = 1e-3,
    ) -> None:
        if max_migration_retries < 0:
            raise AllocationError("max_migration_retries must be non-negative")
        self.allocator = allocator
        self.log = log if log is not None else ResilienceLog()
        self.max_migration_retries = max_migration_retries
        self.backoff_base_seconds = backoff_base_seconds
        #: Total backoff the retry loop *would* have slept (deterministic
        #: stand-in for real sleeping; feeds cost accounting and tests).
        self.simulated_backoff_seconds = 0.0

    @property
    def buffers(self) -> dict[str, Buffer]:
        return self.allocator.buffers

    @property
    def kernel(self):
        return self.allocator.kernel

    # ------------------------------------------------------------------
    def mem_alloc(
        self,
        size: int,
        attribute: str,
        initiator,
        *,
        name: str | None = None,
        allow_partial: bool = False,
        allow_fallback: bool = True,
        scope: str = "local",
        subject: str | None = None,
    ) -> Buffer:
        """``mem_alloc`` with every degradation recorded as a typed event.

        ``subject`` overrides the event subject — callers that track
        buffers by their own handles (the ``repro.serve`` daemon) pass a
        stable handle so event logs stay comparable across replays even
        though auto-minted buffer names are process-global.
        """
        try:
            buffer = self.allocator.mem_alloc(
                size,
                attribute,
                initiator,
                name=name,
                allow_partial=allow_partial,
                allow_fallback=allow_fallback,
                scope=scope,
            )
        except AllocationError as err:
            self.log.record(
                EventKind.ALLOCATION_FAILED,
                subject or name or "<unnamed>",
                f"{type(err).__name__}: {err}",
            )
            raise
        self.record_degradation(
            buffer,
            attribute,
            initiator,
            scope=scope,
            allow_partial=allow_partial,
            subject=subject,
        )
        return buffer

    def record_degradation(
        self,
        buffer: Buffer,
        attribute: str,
        initiator,
        *,
        scope: str = "local",
        allow_partial: bool = False,
        subject: str | None = None,
    ) -> tuple[str, ...]:
        """Audit one placed buffer against its request; log if degraded.

        :meth:`mem_alloc` calls this for every buffer it places.  A
        buffer placed straight through the wrapped allocator can be
        audited afterwards the same way, recording exactly the events
        :meth:`mem_alloc` would have.  Returns the degradation reasons
        (empty tuple = placed as asked).
        """
        reasons = self._degradation_reasons(
            buffer, attribute, initiator, scope, allow_partial
        )
        if reasons:
            self.log.record(
                EventKind.PLACEMENT_DEGRADED,
                subject or buffer.name,
                "; ".join(reasons),
            )
        return tuple(reasons)

    def _degradation_reasons(
        self,
        buffer: Buffer,
        attribute: str,
        initiator,
        scope: str,
        allow_partial: bool,
    ) -> list[str]:
        reasons: list[str] = []
        if buffer.used_attribute.lower() != attribute.lower():
            reasons.append(f"attribute-fallback:{buffer.used_attribute}")
        if buffer.fallback_rank > 0:
            best = self._best_ranked_node(attribute, initiator, scope)
            if best is not None and not self.kernel.is_online(best):
                reasons.append(f"best-target-offline:node{best}")
            else:
                reasons.append(f"capacity-fallback:rank{buffer.fallback_rank}")
        if allow_partial and buffer.is_split:
            reasons.append("partial-spill:" + ",".join(map(str, buffer.nodes)))
        return reasons

    def _best_ranked_node(
        self, attribute: str, initiator, scope: str
    ) -> int | None:
        try:
            _, ranked = self.allocator.rank_for(attribute, initiator, scope=scope)
        except AllocationError:
            return None
        return ranked[0].target.os_index if ranked else None

    def mem_alloc_many(
        self, requests, *, rollback_on_error: bool = True
    ) -> tuple[Buffer, ...]:
        """Batch allocation through the event-recording path."""
        from ..alloc.allocator import AllocRequest

        placed: list[Buffer] = []
        try:
            for req in requests:
                if isinstance(req, AllocRequest):
                    r = req
                elif isinstance(req, dict):
                    r = AllocRequest(**req)
                else:
                    r = AllocRequest(*req)
                placed.append(
                    self.mem_alloc(
                        r.size,
                        r.attribute,
                        r.initiator,
                        name=r.name,
                        allow_partial=r.allow_partial,
                        allow_fallback=r.allow_fallback,
                        scope=r.scope,
                    )
                )
        except Exception:
            if rollback_on_error:
                for buf in reversed(placed):
                    self.free(buf)
            raise
        return tuple(placed)

    # ------------------------------------------------------------------
    def migrate(
        self,
        buffer: Buffer | str,
        attribute: str,
        *,
        subject: str | None = None,
    ) -> MigrationReport:
        """Migrate with retry-with-backoff on transient kernel failures.

        Backoff doubles from :attr:`backoff_base_seconds` per retry and is
        accumulated in :attr:`simulated_backoff_seconds` instead of
        sleeping, keeping chaos runs deterministic and fast.  After
        ``max_migration_retries`` retries the last transient error
        propagates — with a ``MIGRATION_GAVE_UP`` event on the log.
        ``subject`` overrides the event subject (see :meth:`mem_alloc`).
        """
        name = subject or (buffer if isinstance(buffer, str) else buffer.name)
        delay = self.backoff_base_seconds
        attempt = 0
        while True:
            try:
                report = self.allocator.migrate(buffer, attribute)
            except TransientMigrationError as err:
                if attempt >= self.max_migration_retries:
                    self.log.record(
                        EventKind.MIGRATION_GAVE_UP,
                        name,
                        f"after {attempt} retries: {err}",
                    )
                    raise
                attempt += 1
                self.simulated_backoff_seconds += delay
                self.log.record(
                    EventKind.MIGRATION_RETRY,
                    name,
                    f"attempt {attempt}, backoff {delay:.4f}s",
                )
                delay *= 2
                continue
            if attempt and OBS.enabled:
                OBS.metrics.counter("resilience.migrations_recovered").inc()
            return report

    # ------------------------------------------------------------------
    def free(self, buffer: Buffer | str) -> None:
        self.allocator.free(buffer)

    def placement(self) -> Placement:
        return self.allocator.placement()

    def cache_stats(self) -> dict:
        return self.allocator.cache_stats()
