"""Memoized attribute-query engine (generation-based invalidation).

The paper's ``mem_alloc(..., attribute)`` flow re-derives the same answers
on every call — local-target discovery, attribute-fallback resolution,
per-target ``get_value`` with a linear initiator scan, and a full re-sort
of the ranking — even though attribute values change rarely while
allocations happen constantly.  :class:`QueryCache` memoizes each answer
once, where its hot consumer reads it, so the steady-state query path is
O(cache-hit):

* Every cached answer lives in a named **family**, so the observability
  surface (:meth:`stats`) can attribute hits and misses to the query
  kind.  ``"alloc_rank"`` holds the allocator's resolved ranking per
  request (:meth:`~repro.alloc.HeterogeneousAllocator.rank_for`);
  :data:`TOPOLOGY_FAMILIES` hold topology facts.
* ``"alloc_rank"`` keys embed the owning :class:`~repro.core.api.MemAttrs`
  **generation** — a counter bumped on every ``set_value``/``register``.
  A stale entry therefore can never be served: its generation no longer
  matches the key being looked up.  On top of that,
  :meth:`invalidate` drops value-dependent families eagerly so memory
  stays bounded across long value-feeding phases.
* Families that depend only on the (immutable) topology — cpuset
  normalization, local-target discovery, initiator PUs — survive
  invalidation: their answers cannot go stale.

Cached values are immutable (tuples of frozen dataclasses, ``Bitmap``\\ s)
so sharing them between callers is safe; a cached answer is bit-identical
to what the uncached code path would recompute.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from ..errors import ReproError
from ..obs import OBS

__all__ = [
    "MISSING",
    "CacheStats",
    "QueryCache",
    "TOPOLOGY_FAMILIES",
    "consistent_read",
    "render_cache_stats",
]

_T = TypeVar("_T")


def consistent_read(
    read: Callable[[], _T],
    generation: Callable[[], int],
    *,
    max_retries: int = 8,
) -> tuple[_T, int]:
    """Seqlock-style read: retry ``read()`` until the generation is stable.

    A multi-part query (ranking + per-target values + free capacity) is
    only meaningful if the attribute store did not change *between* its
    parts.  This samples ``generation()`` before and after ``read()`` and
    retries on mismatch, returning ``(value, generation)`` — the
    generation tag the ``repro.serve`` query verb stamps on responses so
    clients can correlate answers with attribute epochs.  Raises
    :class:`~repro.errors.ReproError` if the store keeps changing for
    ``max_retries`` attempts (a writer livelock, not a cache bug).
    """
    for _ in range(max_retries):
        before = generation()
        value = read()
        if generation() == before:
            return value, before
    raise ReproError(
        f"attribute store generation kept changing across {max_retries} "
        "read attempts"
    )


class _Missing:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<MISSING>"


MISSING = _Missing()

#: Families keyed purely by topology facts; they never go stale when
#: attribute values change and so survive :meth:`QueryCache.invalidate`.
TOPOLOGY_FAMILIES = frozenset({"as_cpuset", "local_nodes", "initiator_pus"})


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting for one cache family (or the totals)."""

    hits: int = 0
    misses: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class QueryCache:
    """Family-partitioned memo store with FIFO bounding per family.

    ``enabled=False`` turns every lookup into a miss-without-accounting
    and every store into a no-op — the uncached baseline the throughput
    benchmark compares against.
    """

    def __init__(self, *, enabled: bool = True, max_entries_per_family: int = 4096) -> None:
        self.enabled = enabled
        self.max_entries_per_family = max_entries_per_family
        self._families: dict[str, dict] = {}
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self.invalidations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, family: str, key, default=MISSING):
        """The cached value, or ``default`` (also when disabled).

        ``default`` lets callers that cannot import :data:`MISSING`
        (e.g. :mod:`repro.topology.traversal`, which must not depend on
        ``core``) supply their own sentinel.
        """
        if not self.enabled:
            return default
        value = self._families.get(family, {}).get(key, MISSING)
        if value is MISSING:
            self._misses[family] = self._misses.get(family, 0) + 1
            if OBS.enabled:
                OBS.metrics.counter("querycache.misses", family=family).inc()
            return default
        self._hits[family] = self._hits.get(family, 0) + 1
        if OBS.enabled:
            OBS.metrics.counter("querycache.hits", family=family).inc()
        return value

    def store(self, family: str, key, value) -> None:
        if not self.enabled:
            return
        entries = self._families.setdefault(family, {})
        if key not in entries and len(entries) >= self.max_entries_per_family:
            # FIFO: dicts preserve insertion order, so the oldest goes first.
            entries.pop(next(iter(entries)))
            self.evictions += 1
        entries[key] = value

    def invalidate(self, *, keep_topology_families: bool = True) -> None:
        """Drop value-dependent entries (generation keys already shield
        correctness; this bounds memory and feeds the counter)."""
        self.invalidations += 1
        if OBS.enabled:
            OBS.metrics.counter("querycache.invalidations").inc()
        for family in list(self._families):
            if keep_topology_families and family in TOPOLOGY_FAMILIES:
                continue
            del self._families[family]

    def clear(self) -> None:
        """Drop everything, counters included (for test isolation)."""
        self._families.clear()
        self._hits.clear()
        self._misses.clear()
        self.invalidations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def family_stats(self, family: str) -> CacheStats:
        return CacheStats(
            hits=self._hits.get(family, 0),
            misses=self._misses.get(family, 0),
            entries=len(self._families.get(family, {})),
        )

    def stats(self) -> dict:
        """The observability surface behind ``cache_stats()``."""
        families = sorted(
            set(self._families) | set(self._hits) | set(self._misses)
        )
        per_family = {f: self.family_stats(f) for f in families}
        total = CacheStats(
            hits=sum(s.hits for s in per_family.values()),
            misses=sum(s.misses for s in per_family.values()),
            entries=sum(s.entries for s in per_family.values()),
        )
        return {
            "enabled": self.enabled,
            "hits": total.hits,
            "misses": total.misses,
            "entries": total.entries,
            "hit_rate": total.hit_rate,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "families": {
                f: {
                    "hits": s.hits,
                    "misses": s.misses,
                    "entries": s.entries,
                    "hit_rate": s.hit_rate,
                }
                for f, s in per_family.items()
            },
        }


def render_cache_stats(stats: dict) -> str:
    """Human-readable stats table (used by the CLI's ``--cache-stats``)."""
    lines = [
        f"{'family':<18} {'hits':>8} {'misses':>8} {'entries':>8} {'hit rate':>9}"
    ]
    for family, s in sorted(stats["families"].items()):
        lines.append(
            f"{family:<18} {s['hits']:>8} {s['misses']:>8} "
            f"{s['entries']:>8} {s['hit_rate']:>8.1%}"
        )
    lines.append(
        f"{'total':<18} {stats['hits']:>8} {stats['misses']:>8} "
        f"{stats['entries']:>8} {stats['hit_rate']:>8.1%}"
    )
    lines.append(
        f"invalidations: {stats['invalidations']}   "
        f"evictions: {stats['evictions']}   "
        f"enabled: {stats['enabled']}"
    )
    return "\n".join(lines)
