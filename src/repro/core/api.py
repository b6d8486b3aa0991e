"""The memory-attributes API façade (paper Fig. 4).

:class:`MemAttrs` binds an attribute registry and a value store to one
topology.  Builtin Capacity and Locality values are populated from the
topology itself ("always supported" in the paper's Table I); Bandwidth and
Latency values arrive from firmware discovery or benchmarking.

Initiator semantics follow hwloc: values are stored against the cpuset of
the initiator that measured/reported them (typically a whole SubNUMA
cluster or package).  Queries with a *smaller* cpuset (a single PU of that
cluster) match the smallest stored initiator containing it; exact matches
win.  Queries with a non-matching initiator raise
:class:`~repro.errors.NoValueError`, mirroring hwloc's error return.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

from ..errors import (
    AttributeFlagError,
    NoTargetError,
    NoValueError,
    ReproError,
    UnknownAttributeError,
)
from ..obs import OBS
from ..topology.bitmap import Bitmap
from ..topology.build import Topology
from ..topology.objects import ObjType, TopoObject
from ..topology.traversal import (
    LocalNumanodeFlags,
    as_cpuset,
    get_local_numanode_objs,
)
from .attrs import (
    BUILTIN_ATTRIBUTES,
    CAPACITY,
    LOCALITY,
    MemAttrFlag,
    MemAttribute,
)

__all__ = ["MemAttrs", "TargetValue", "consistent_read"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class TargetValue:
    """One (target, value) answer from a ranking query."""

    target: TopoObject
    value: float
    initiator: Bitmap | None = None


@dataclass
class _Store:
    """Value store: attr id → target os index → initiator cpuset → value."""

    values: dict[int, dict[int, dict[Bitmap | None, float]]] = field(
        default_factory=dict
    )

    def put(
        self, attr_id: int, target: int, initiator: Bitmap | None, value: float
    ) -> None:
        self.values.setdefault(attr_id, {}).setdefault(target, {})[initiator] = value

    def get_map(self, attr_id: int, target: int) -> dict[Bitmap | None, float]:
        return self.values.get(attr_id, {}).get(target, {})

    def targets_with_values(self, attr_id: int) -> tuple[int, ...]:
        return tuple(sorted(self.values.get(attr_id, {})))


def consistent_read(
    read: Callable[[], _T],
    generation: Callable[[], int],
    *,
    max_retries: int = 8,
) -> tuple[_T, int]:
    """Seqlock-style read: retry ``read()`` until the generation is stable.

    A multi-part query (ranking + per-target values + free capacity) is
    only meaningful if the attribute store did not change *between* its
    parts.  This samples ``generation()`` (typically
    :attr:`MemAttrs.generation`) before and after ``read()`` and retries
    on mismatch, returning ``(value, generation)`` — the generation tag
    the ``repro.serve`` query verb stamps on responses so clients can
    correlate answers with attribute epochs.  Raises
    :class:`~repro.errors.ReproError` if the store keeps changing for
    ``max_retries`` attempts (a writer livelock).
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


class MemAttrs:
    """Memory attributes of one topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._attrs: dict[str, MemAttribute] = {}
        self._store = _Store()
        self._next_custom_id = 64  # leave room below for future builtins
        self._generation = 0
        for attr in BUILTIN_ATTRIBUTES:
            self._attrs[attr.name.lower()] = attr
        self._populate_builtin_values()

    @property
    def generation(self) -> int:
        """Bumped on every value or registry change and on every topology
        event; an answer derived from the store (the allocator's plans)
        is valid only while the generation it was derived at is current."""
        return self._generation

    def _bump_generation(self) -> None:
        self._generation += 1
        if OBS.enabled:
            OBS.metrics.counter("core.generation_bumps").inc()

    def notify_topology_event(
        self, event: str = "topology", node: int | None = None
    ) -> None:
        """The machine changed under us (node offline/online, co-tenant
        capacity shift): bump the generation so the allocator's memoized
        rankings and plans are invalidated exactly as an attribute update
        would.

        The kernel layer fires this through a topology listener
        (:meth:`repro.kernel.KernelMemoryManager.add_topology_listener`);
        the heterogeneous allocator wires the two together.
        """
        self._bump_generation()
        if OBS.enabled:
            OBS.metrics.counter("core.topology_events", event=event).inc()

    def degrade_target(
        self, attr: MemAttribute | str, target: TopoObject, factor: float
    ) -> int:
        """Scale every stored value of ``attr`` for one target by ``factor``.

        This is the staleness/degradation fault model of
        :mod:`repro.resilience`: co-tenant interference makes measured
        bandwidth values optimistic (``factor < 1``) or latencies
        pessimistic (``factor > 1``).  Returns how many stored values were
        rescaled; the generation is bumped when any were.
        """
        attr = self._resolve(attr)
        self._check_target(target)
        if factor <= 0:
            raise AttributeFlagError("degradation factor must be positive")
        per_initiator = self._store.get_map(attr.id, target.os_index)
        for key in per_initiator:
            per_initiator[key] *= factor
        if per_initiator:
            self._bump_generation()
            if OBS.enabled:
                OBS.metrics.counter(
                    "core.values_degraded", attribute=attr.name
                ).inc(len(per_initiator))
        return len(per_initiator)

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        flags: MemAttrFlag,
        *,
        unit: str = "",
        description: str = "",
    ) -> MemAttribute:
        """Register a custom attribute (paper §IV, Table I last row).

        Custom metrics let users characterize memories "under specific
        circumstances", e.g. a STREAM-Triad score combining read and write
        bandwidth.
        """
        key = name.lower()
        if key in self._attrs:
            raise AttributeFlagError(f"attribute {name!r} already registered")
        attr = MemAttribute(
            id=self._next_custom_id,
            name=name,
            flags=flags,
            unit=unit,
            description=description,
        )
        self._next_custom_id += 1
        self._attrs[key] = attr
        self._bump_generation()
        return attr

    def get_by_name(self, name: str) -> MemAttribute:
        try:
            return self._attrs[name.lower()]
        except KeyError:
            known = ", ".join(sorted(a.name for a in self._attrs.values()))
            raise UnknownAttributeError(
                f"unknown attribute {name!r}; known: {known}"
            ) from None

    def attributes(self) -> tuple[MemAttribute, ...]:
        return tuple(sorted(self._attrs.values(), key=lambda a: a.id))

    def _resolve(self, attr: MemAttribute | str) -> MemAttribute:
        if isinstance(attr, MemAttribute):
            # Accept only attributes registered here (or builtins).
            return self.get_by_name(attr.name)
        return self.get_by_name(attr)

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def set_value(
        self,
        attr: MemAttribute | str,
        target: TopoObject,
        initiator,
        value: float,
    ) -> None:
        """Record a value (external sources path of the paper's Table I)."""
        attr = self._resolve(attr)
        self._check_target(target)
        if attr.needs_initiator:
            if initiator is None:
                raise AttributeFlagError(
                    f"attribute {attr.name} needs an initiator"
                )
            key: Bitmap | None = as_cpuset(self.topology, initiator)
        else:
            if initiator is not None:
                raise AttributeFlagError(
                    f"attribute {attr.name} takes no initiator"
                )
            key = None
        if value < 0:
            raise AttributeFlagError(f"{attr.name} value must be non-negative")
        self._store.put(attr.id, target.os_index, key, float(value))
        self._bump_generation()

    def get_value(
        self,
        attr: MemAttribute | str,
        target: TopoObject,
        initiator=None,
    ) -> float:
        """``hwloc_memattr_get_value`` (paper Fig. 4, third call)."""
        attr = self._resolve(attr)
        self._check_target(target)
        per_initiator = self._store.get_map(attr.id, target.os_index)
        if not attr.needs_initiator:
            if initiator is not None:
                raise AttributeFlagError(f"attribute {attr.name} takes no initiator")
            if None not in per_initiator:
                raise NoValueError(f"no {attr.name} value for {target.label}")
            return per_initiator[None]
        if initiator is None:
            raise AttributeFlagError(f"attribute {attr.name} needs an initiator")
        cpuset = as_cpuset(self.topology, initiator)
        match = self._match_initiator(per_initiator, cpuset)
        if match is None:
            raise NoValueError(
                f"no {attr.name} value for {target.label} from initiator "
                f"{cpuset.to_list_syntax()!r}"
            )
        return per_initiator[match]

    @staticmethod
    def _match_initiator(
        per_initiator: dict[Bitmap | None, float], cpuset: Bitmap
    ) -> Bitmap | None:
        """Exact match first, else the smallest stored initiator ⊇ query.

        Equal-weight candidates tie-break on the lowest first set bit
        (then remaining bits, lexicographically) — never on dict
        insertion order, so the answer is stable across value-feeding
        orders.
        """
        if cpuset in per_initiator:
            return cpuset
        best: Bitmap | None = None
        best_rank: tuple[int, tuple[int, ...]] | None = None
        for stored in per_initiator:
            if stored is None or not stored.includes(cpuset):
                continue
            rank = (stored.weight(), tuple(stored))
            if best_rank is None or rank < best_rank:
                best, best_rank = stored, rank
        return best

    def has_values(self, attr: MemAttribute | str) -> bool:
        """Whether any target carries a value for this attribute —
        the allocator's attribute-fallback test (§IV-B)."""
        attr = self._resolve(attr)
        return bool(self._store.targets_with_values(attr.id))

    # ------------------------------------------------------------------
    # queries of Fig. 4
    # ------------------------------------------------------------------
    def get_local_numanode_objs(
        self, initiator, flags: LocalNumanodeFlags | None = None
    ) -> tuple[TopoObject, ...]:
        """Memory targets local to an initiator (Fig. 4, first call)."""
        return get_local_numanode_objs(self.topology, initiator, flags)

    def get_best_target(
        self,
        attr: MemAttribute | str,
        initiator=None,
        *,
        local_only: bool = True,
    ) -> TargetValue:
        """``hwloc_memattr_get_best_target`` (Fig. 4, second call).

        Considers the targets local to the initiator (NUMA affinity first,
        then memory-kind affinity — §IV), unless ``local_only=False``.
        Raises :class:`NoTargetError` when no candidate has a value.
        """
        attr = self._resolve(attr)
        if attr.needs_initiator or local_only:
            if initiator is None:
                raise AttributeFlagError(
                    f"get_best_target({attr.name}) requires an initiator"
                )
        if local_only:
            candidates = self.get_local_numanode_objs(initiator)
        else:
            candidates = self.topology.numanodes()
        ranked = self.rank_targets(attr, candidates, initiator)
        if not ranked:
            raise NoTargetError(
                f"no target carries a {attr.name} value "
                f"({'local to initiator' if local_only else 'anywhere'})"
            )
        return ranked[0]

    def get_best_initiator(
        self, attr: MemAttribute | str, target: TopoObject
    ) -> TargetValue:
        """``hwloc_memattr_get_best_initiator``: the initiator with the best
        value for a target (who should run near this memory)."""
        attr = self._resolve(attr)
        if not attr.needs_initiator:
            raise AttributeFlagError(
                f"attribute {attr.name} has no initiators"
            )
        self._check_target(target)
        per_initiator = self._store.get_map(attr.id, target.os_index)
        best_key: Bitmap | None = None
        best_val = 0.0
        for key, value in per_initiator.items():
            if key is None:
                continue
            if best_key is None or attr.better(value, best_val):
                best_key, best_val = key, value
        if best_key is None:
            raise NoValueError(
                f"no {attr.name} values with initiators for {target.label}"
            )
        return TargetValue(target=target, value=best_val, initiator=best_key)

    def rank_targets(
        self,
        attr: MemAttribute | str,
        targets,
        initiator=None,
    ) -> tuple[TargetValue, ...]:
        """Order targets best-first by an attribute, skipping valueless ones.

        This is the ranking the heterogeneous allocator walks on capacity
        fallback (§IV-B).  Ties keep logical order (stable), letting
        callers apply secondary criteria themselves (§III-B2: on KNL,
        latency ties between DRAM and HBM are broken by capacity at a
        higher level).
        """
        attr = self._resolve(attr)
        scored: list[TargetValue] = []
        for target in targets:
            try:
                value = self.get_value(attr, target, initiator if attr.needs_initiator else None)
            except NoValueError:
                continue
            scored.append(TargetValue(target=target, value=value))
        scored.sort(
            key=lambda tv: (-tv.value if attr.higher_is_better else tv.value)
        )
        if OBS.enabled:
            OBS.metrics.counter("core.rankings_computed", attribute=attr.name).inc()
        return tuple(scored)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_target(self, target: TopoObject) -> None:
        if target.type is not ObjType.NUMANODE:
            raise AttributeFlagError(
                f"memory targets must be NUMANode objects, got {target.label}"
            )

    def _populate_builtin_values(self) -> None:
        """Capacity and Locality come straight from the topology
        ("Always supported" row of the paper's Table I)."""
        for node in self.topology.numanodes():
            self._store.put(
                CAPACITY.id, node.os_index, None, float(node.attrs["capacity"])
            )
            self._store.put(
                LOCALITY.id, node.os_index, None, float(node.cpuset.weight())
            )
