"""Per-tenant sessions and the page-quota ledger.

The daemon multiplexes many tenants over one kernel; two pieces of
bookkeeping keep them honest:

* :class:`QuotaLedger` — per-tenant *used pages* against a fixed quota.
  Pure accounting: it never touches the kernel, so charging and
  releasing are exact mirrors of allocation and free, and the
  "usage never goes negative, rejected charges change nothing"
  invariants are directly property-testable.
* :class:`TenantSession` — the tenant's live handles plus any co-tenant
  headroom *reservation* it holds.  Reservations go through
  :meth:`~repro.kernel.pagealloc.KernelMemoryManager.cotenant_reserve`,
  i.e. they shield free pages from every other tenant for the session's
  lifetime and are handed back on close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ServeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..alloc.allocator import Buffer
    from .protocol import Request

__all__ = ["QuotaLedger", "TenantSession"]


class QuotaLedger:
    """Per-tenant page accounting against optional fixed quotas.

    The ledger is deliberately kernel-free: ``charge`` happens only
    after a kernel allocation succeeded, ``release`` only when a buffer
    is freed.  ``None`` quota means unmetered.
    """

    def __init__(self) -> None:
        self._quota: dict[str, int | None] = {}
        self._usage: dict[str, int] = {}

    def open(self, tenant: str, quota_pages: int | None) -> None:
        if tenant in self._quota:
            raise ServeError(f"ledger already tracks tenant {tenant!r}")
        if quota_pages is not None and quota_pages < 0:
            raise ServeError("quota_pages must be non-negative")
        self._quota[tenant] = quota_pages
        self._usage[tenant] = 0

    def close(self, tenant: str) -> int:
        """Stop tracking a tenant; returns the pages still charged."""
        if tenant not in self._quota:
            raise ServeError(f"ledger does not track tenant {tenant!r}")
        del self._quota[tenant]
        return self._usage.pop(tenant)

    def tracks(self, tenant: str) -> bool:
        return tenant in self._quota

    def usage(self, tenant: str) -> int:
        return self._usage[tenant]

    def quota(self, tenant: str) -> int | None:
        return self._quota[tenant]

    def remaining(self, tenant: str) -> int | None:
        """Pages left under the quota (``None`` = unmetered)."""
        quota = self._quota[tenant]
        if quota is None:
            return None
        return quota - self._usage[tenant]

    def would_exceed(self, tenant: str, pages: int) -> bool:
        remaining = self.remaining(tenant)
        return remaining is not None and pages > remaining

    def charge(self, tenant: str, pages: int) -> None:
        """Add ``pages`` to the tenant's usage; refuses to cross the quota.

        A refused charge raises :class:`~repro.errors.ServeError` and
        leaves the ledger untouched — the property the admission tests
        pin.
        """
        if pages < 0:
            raise ServeError("cannot charge a negative page count")
        if self.would_exceed(tenant, pages):
            raise ServeError(
                f"tenant {tenant!r} quota exceeded: {pages} pages over "
                f"{self.remaining(tenant)} remaining"
            )
        self._usage[tenant] += pages

    def release(self, tenant: str, pages: int) -> None:
        """Return ``pages`` to the tenant's headroom; never goes negative."""
        if pages < 0:
            raise ServeError("cannot release a negative page count")
        held = self._usage[tenant]
        if pages > held:
            raise ServeError(
                f"tenant {tenant!r} releasing {pages} pages but only "
                f"{held} are charged"
            )
        self._usage[tenant] = held - pages

    def snapshot(self) -> dict[str, dict[str, int | None]]:
        """Deterministic per-tenant view for the ``stats`` verb."""
        return {
            tenant: {
                "quota_pages": self._quota[tenant],
                "used_pages": self._usage[tenant],
            }
            for tenant in sorted(self._quota)
        }


@dataclass
class TenantSession:
    """One tenant's live state inside the daemon."""

    tenant: str
    quota_pages: int | None = None
    #: Tenant-chosen handle -> placed buffer (insertion order = free
    #: order on close, which keeps close deterministic).
    buffers: dict[str, Buffer] = field(default_factory=dict)
    #: Co-tenant headroom held for this session: node -> pages actually
    #: taken by ``cotenant_reserve`` at open time.
    reserve_holds: dict[int, int] = field(default_factory=dict)
    allocs: int = 0
    frees: int = 0
    #: The ``open`` request that started this session.  A stream
    #: connection owns the tenant while the live session is one its own
    #: ``open`` started (docs/SERVE.md).
    opened_by: Request | None = None

    def describe(self) -> dict[str, object]:
        return {
            "quota_pages": self.quota_pages,
            "buffers": len(self.buffers),
            "allocs": self.allocs,
            "frees": self.frees,
            "reserved": {str(n): p for n, p in sorted(self.reserve_holds.items())},
        }
