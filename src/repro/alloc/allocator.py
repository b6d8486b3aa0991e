"""``mem_alloc(..., attribute)`` — the experimental allocator of §IV-B.

:class:`HeterogeneousAllocator` combines a :class:`~repro.core.api.MemAttrs`
(to *rank* targets) with a :class:`~repro.kernel.pagealloc.KernelMemoryManager`
(to actually *place* pages), giving applications the single-call interface
the paper proposes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..core.api import MemAttrs, TargetValue
from ..core.querycache import MISSING
from ..core.ranking import rank_targets
from ..errors import AllocationError, CapacityError, SpecError, TopologyError
from ..kernel.migration import MigrationReport
from ..kernel.pagealloc import KernelMemoryManager, PageAllocation
from ..kernel.policy import bind_policy
from ..obs import OBS
from ..sim.access import Placement
from ..topology.objects import TopoObject
from ..topology.traversal import as_cpuset
from .fallback import attribute_fallback_chain

__all__ = ["AllocRequest", "Buffer", "HeterogeneousAllocator"]

_buffer_ids = itertools.count(1)


@dataclass(frozen=True)
class AllocRequest:
    """One request of a :meth:`HeterogeneousAllocator.mem_alloc_many` batch.

    Mirrors the keyword surface of :meth:`~HeterogeneousAllocator.mem_alloc`.
    """

    size: int
    attribute: str
    initiator: object
    name: str | None = None
    allow_partial: bool = False
    allow_fallback: bool = True
    scope: str = "local"


@dataclass
class Buffer:
    """A buffer placed by the heterogeneous allocator."""

    name: str
    size: int
    requested_attribute: str
    used_attribute: str
    allocation: PageAllocation
    target: TopoObject | None          # primary target (None if fully split)
    fallback_rank: int                 # 0 = got the best target
    initiator: tuple[int, ...]
    # Memoized plan whose pool this buffer returns to when freed; None
    # for named, spilled or migrated buffers, for buffers off the plan's
    # first online entry, and while the plan memo is off.
    _plan: object = field(default=None, repr=False, compare=False)

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.allocation.nodes

    @property
    def is_split(self) -> bool:
        return self.allocation.is_split

    def placement_fractions(self) -> dict[int, float]:
        return {n: self.allocation.fraction_on(n) for n in self.allocation.nodes}

    def describe(self) -> str:
        where = ", ".join(
            f"node{n}:{f:.0%}" for n, f in sorted(self.placement_fractions().items())
        )
        note = "" if self.fallback_rank == 0 else f" (fallback #{self.fallback_rank})"
        return (
            f"{self.name}[{self.size}B] attr={self.requested_attribute}"
            f"->{self.used_attribute} on {where}{note}"
        )


#: Upper bound on recycled buffers kept per allocation plan.  Large
#: enough that a freed batch can be recycled wholesale, small enough
#: that pools stay negligible next to the page bookkeeping itself.
_POOL_MAX = 256


class _AllocPlan:
    """One resolved allocation plan: the ranking of a ``(attribute,
    initiator, scope)`` triple, flattened for the placement walk.

    A plan is valid only while ``generation`` matches the attribute
    store's — attribute updates *and* topology events (offline/online,
    co-tenant capacity shifts) bump the generation, so a stale plan can
    never place onto a dead node or follow an outdated ranking.

    ``targets`` is the full ranking (best first).  ``entries`` holds its
    online members as ``(node_state, os_index, target, bind_policy,
    rank)`` tuples: everything the first-fit walk needs without touching
    the topology, the policy constructor, or the query cache.
    ``state``/``node`` name the first online entry.  ``pool`` recycles
    freed buffers this plan placed on ``node`` (object + name + kernel
    allocation record), so a warm alloc/free cycle is a handful of
    counter updates.
    """

    __slots__ = (
        "generation",
        "used_attr",
        "targets",
        "entries",
        "state",
        "node",
        "initiator_pus",
        "pool",
    )

    def __init__(self, generation, used_attr, targets, entries, initiator_pus):
        self.generation = generation
        self.used_attr = used_attr
        self.targets = targets
        self.entries = entries
        self.state, self.node = entries[0][:2] if entries else (None, -1)
        self.initiator_pus = initiator_pus
        self.pool: list[Buffer] = []


class HeterogeneousAllocator:
    """The paper's ``mem_alloc`` built on attributes + the kernel."""

    def __init__(
        self,
        memattrs: MemAttrs,
        kernel: KernelMemoryManager,
        *,
        attribute_fallback: dict[str, tuple[str, ...]] | None = None,
        tie_tolerance: float = 0.10,
        tie_attr: str | None = "Capacity",
    ) -> None:
        if memattrs.topology.machine_spec is not kernel.machine:
            raise SpecError("memattrs and kernel manager describe different machines")
        self.memattrs = memattrs
        self.kernel = kernel
        self._attribute_fallback = attribute_fallback
        self._overrides_key = (
            None
            if attribute_fallback is None
            else tuple(sorted((k, tuple(v)) for k, v in attribute_fallback.items()))
        )
        self.tie_tolerance = tie_tolerance
        self.tie_attr = tie_attr
        self.buffers: dict[str, Buffer] = {}
        # Plan memo: (attribute, initiator, scope) -> _AllocPlan.
        # Entries self-invalidate via the generation check; the dict itself
        # only grows with the number of distinct request triples.
        self._plans: dict[tuple, _AllocPlan] = {}
        # Hot-path aliases: one attribute load instead of two per call.
        self._qc = memattrs.query_cache
        self._kernel_live = kernel._live
        self._page_size = kernel.page_size
        # Topology events (node offline/online, co-tenant capacity shifts)
        # must invalidate the memoized rankings exactly like attribute
        # updates do, or mem_alloc would keep placing onto a dead node.
        kernel.add_topology_listener(self._on_topology_event)

    def _on_topology_event(self, event: str, node: int) -> None:
        self.memattrs.notify_topology_event(event=event, node=node)

    # ------------------------------------------------------------------
    def rank_for(
        self, attribute: str, initiator, *, scope: str = "local"
    ) -> tuple[str, tuple[TargetValue, ...]]:
        """Resolve the attribute (with fallback) and rank targets.

        ``scope="local"`` considers the initiator's local targets (the
        paper's default flow); ``scope="machine"`` ranks every node —
        the §VIII question "is it better to allocate in the local NVDIMM
        or in another DRAM?", answerable once benchmarking measured the
        remote pairs.  Returns ``(used_attribute_name, ranked_targets)``.

        The resolved ``(used_attribute, ranking)`` pair is memoized in
        the MemAttrs query cache (family ``"alloc_rank"``) keyed by its
        generation.  ``mem_alloc`` builds its allocation plans from it;
        ``migrate``, the planners, the serve ``query`` verb and the
        resilient allocator call it directly.
        """
        if scope not in ("local", "machine"):
            raise AllocationError(f"unknown scope {scope!r}")
        cache_key = self._rank_for_cache_key(attribute, initiator, scope)
        if cache_key is not None:
            cached = self.memattrs.query_cache.get("alloc_rank", cache_key)
            if cached is not MISSING:
                return cached
        if scope == "local":
            # Memoryless-initiator fallback: a CPU whose package has no
            # memory at all (CPU-only NUMA nodes exist) allocates from the
            # whole machine, like the kernel's zonelist would.
            local = self.memattrs.get_local_numanode_objs(initiator)
            targets = local if local else self.memattrs.topology.numanodes()
        else:
            targets = self.memattrs.topology.numanodes()
        chain = attribute_fallback_chain(
            self.memattrs, attribute, overrides=self._attribute_fallback
        )
        for attr in chain:
            if not self.memattrs.has_values(attr):
                continue
            ranked = rank_targets(
                self.memattrs,
                attr,
                initiator,
                targets=targets,
                tie_attr=self.tie_attr if self.tie_attr != attr.name else None,
                tie_tolerance=self.tie_tolerance,
            )
            if ranked:
                if cache_key is not None:
                    self.memattrs.query_cache.store(
                        "alloc_rank", cache_key, (attr.name, ranked)
                    )
                return attr.name, ranked
        raise AllocationError(
            f"no attribute in the fallback chain of {attribute!r} has values "
            "for any local target"
        )

    def _rank_for_cache_key(self, attribute: str, initiator, scope: str):
        """Key for one resolved ranking, or ``None`` when uncacheable (the
        uncached path then raises exactly as before)."""
        try:
            init_key = as_cpuset(
                self.memattrs.topology, initiator, cache=self.memattrs.query_cache
            )
        except TopologyError:
            return None
        return (
            self.memattrs.generation,
            attribute.lower() if isinstance(attribute, str) else attribute,
            init_key,
            scope,
            self.tie_attr,
            self.tie_tolerance,
            self._overrides_key,
        )

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
    ) -> Buffer:
        """Allocate ``size`` bytes on the best local target for ``attribute``.

        The default reproduces hwloc's allocator: walk the target ranking
        on capacity exhaustion, placing the **whole buffer** on the first
        target that fits.  ``allow_partial=True`` switches to the *hybrid
        allocation* alternative of §VII: fill the best target first and
        spill the remainder down the ranking — more fast-memory use, at
        the price of the irregular performance the paper warns about.
        ``allow_fallback=False`` insists on the best-ranked target
        (strict binding): the request fails when it is full, like the
        whole-process-binding runs of Tables II/III.
        """
        if OBS.enabled:
            # Sampling gate: with obs.enable(sample_every=N) only every
            # N-th request pays for span + metric recording; the rest run
            # the same placement route untraced.
            skip = OBS.hot_countdown
            if skip:
                OBS.hot_countdown = skip - 1
            else:
                OBS.hot_countdown = OBS.sample_every - 1
                return self._mem_alloc_traced(
                    size, attribute, initiator, name,
                    allow_partial, allow_fallback, scope,
                )
        return self._alloc(
            size, attribute, initiator, name, allow_partial, allow_fallback, scope
        )

    def _mem_alloc_traced(
        self, size, attribute, initiator, name,
        allow_partial, allow_fallback, scope,
    ) -> Buffer:
        """The sampled-in branch: record span + metrics around the same
        placement route the untraced path takes."""
        metrics = OBS.metrics
        with OBS.tracer.span(
            "mem_alloc", attribute=attribute, size=size, scope=scope
        ) as span:
            metrics.counter("alloc.requests", attribute=attribute).inc()
            try:
                buffer = self._alloc(
                    size, attribute, initiator, name,
                    allow_partial, allow_fallback, scope,
                )
            except CapacityError:
                metrics.counter("alloc.capacity_errors", attribute=attribute).inc()
                raise
            primary = None if buffer.target is None else buffer.target.os_index
            metrics.counter(
                "alloc.placed",
                attribute=buffer.used_attribute,
                node="split" if primary is None else primary,
            ).inc()
            metrics.histogram("alloc.fallback_rank").observe(buffer.fallback_rank)
            if buffer.fallback_rank > 0:
                metrics.counter("alloc.capacity_fallbacks").inc()
            if buffer.used_attribute.lower() != str(attribute).lower():
                metrics.counter(
                    "alloc.attribute_fallbacks",
                    requested=attribute,
                    used=buffer.used_attribute,
                ).inc()
            span.fields.update(
                buffer=buffer.name,
                used_attribute=buffer.used_attribute,
                fallback_rank=buffer.fallback_rank,
                nodes=list(buffer.nodes),
            )
            return buffer

    def _alloc(
        self, size, attribute, initiator, name,
        allow_partial, allow_fallback, scope,
    ) -> Buffer:
        """The placement route every allocation takes.

        Memo probe, validate, plan, place, fail — in that order.  While
        telemetry is on, a recycled commit counts in the kernel's
        counters, sampled in or not, since it never reaches the kernel.
        """
        try:
            plan = self._plans.get((attribute, initiator, scope))
        except TypeError:      # unhashable initiator: never memoized
            plan = None
        if plan is None:
            pass               # nothing memoized for this triple yet
        elif plan.generation != self.memattrs._generation or not self._qc.enabled:
            plan = None
        elif name is None and allow_fallback and not allow_partial:
            # Memo of the plan's first-fit answer: a pooled buffer of this
            # size back on the first online entry.  A hit implies a valid
            # plan, no name and a positive size, so it may precede the
            # checks below.
            pool = plan.pool
            if pool:
                buf = pool[-1]
                alloc = buf.allocation
                if alloc.size_bytes == size:
                    state = plan.state
                    pages = alloc.pages_by_node[plan.node]
                    if (
                        state.free_pages >= pages
                        and self.buffers.setdefault(buf.name, buf) is buf
                    ):
                        del pool[-1]
                        state.free_pages -= pages
                        alloc.freed = False
                        self._kernel_live[alloc.allocation_id] = alloc
                        if OBS.enabled:
                            self.kernel._count_commit(pages)
                        return buf

        if size <= 0:
            raise AllocationError("allocation size must be positive")
        bufname = name or f"buf{next(_buffer_ids)}"
        if bufname in self.buffers:
            raise AllocationError(f"buffer name {bufname!r} already in use")

        memo = plan is not None
        if not memo:
            plan = self._build_plan(attribute, initiator, scope)
            # Memoize only while the query cache is on: turning it off
            # means "re-derive everything", plans included.
            if self._qc.enabled:
                try:
                    self._plans[(attribute, initiator, scope)] = plan
                    memo = True
                except TypeError:
                    pass

        pages = -(-size // self._page_size)
        entries = plan.entries
        if not allow_fallback:
            # Strict binding: the original best target, while it is online.
            entries = entries[:1] if plan.node == plan.targets[0].os_index else ()
        if allow_partial:
            # Greedy spill down the ranking ("at least partially", §VII).
            if sum(entry[0].free_pages for entry in entries) >= pages:
                allocation = self.kernel.allocate_ordered(
                    size, tuple(entry[1] for entry in entries)
                )
                best = plan.targets[0]
                frac = allocation.fraction_on(best.os_index)
                buffer = Buffer(
                    name=bufname,
                    size=size,
                    requested_attribute=attribute,
                    used_attribute=plan.used_attr,
                    allocation=allocation,
                    target=best if frac > 0 else None,
                    fallback_rank=0 if frac >= 0.999 else 1,
                    initiator=plan.initiator_pus,
                )
                self.buffers[bufname] = buffer
                return buffer
        else:
            # Whole buffer on the first target that fits (hwloc's walk).
            for state, node, target, policy, rank in entries:
                if state.free_pages >= pages:
                    buffer = Buffer(
                        name=bufname,
                        size=size,
                        requested_attribute=attribute,
                        used_attribute=plan.used_attr,
                        allocation=self.kernel.place_pages(node, pages, size, policy),
                        target=target,
                        fallback_rank=rank,
                        initiator=plan.initiator_pus,
                    )
                    if memo and name is None and node == plan.node:
                        # Pool-eligible when freed: unnamed, whole-buffer,
                        # on the plan's first online entry.
                        buffer._plan = plan
                    self.buffers[bufname] = buffer
                    return buffer

        targets = plan.targets if allow_fallback else plan.targets[:1]
        raise CapacityError(
            f"cannot place {size} bytes for attribute {attribute!r}: "
            + "; ".join(
                f"{t.label} free={self.kernel.free_bytes(t.os_index)}"
                for t in targets
            )
        )

    def _build_plan(self, attribute, initiator, scope) -> _AllocPlan:
        """Resolve one request triple into a fresh plan."""
        initiator_pus = self._initiator_pus(initiator)
        used_attr, ranked = self.rank_for(attribute, initiator, scope=scope)
        nodes = self.kernel.nodes
        offline = self.kernel._offline
        targets = tuple(tv.target for tv in ranked)
        entries = tuple(
            (nodes[t.os_index], t.os_index, t, bind_policy(t.os_index), rank)
            for rank, t in enumerate(targets)
            if t.os_index not in offline
        )
        return _AllocPlan(
            self.memattrs._generation, used_attr, targets, entries, initiator_pus
        )

    def mem_alloc_many(
        self,
        requests,
        *,
        rollback_on_error: bool = True,
    ) -> tuple[Buffer, ...]:
        """Allocate a batch of buffers in one call.

        ``requests`` is an iterable of :class:`AllocRequest` (or dicts /
        tuples with the same fields), placed in order by the same route
        as :meth:`mem_alloc`.  Requests sharing an (attribute, initiator,
        scope) share its plan, so the per-buffer cost is only the
        free-capacity walk and the page placement.

        By default the batch is all-or-nothing: when any request fails,
        buffers already placed by this call are freed before the error
        propagates.  ``rollback_on_error=False`` keeps the partial batch
        (the failed request's error still propagates).
        """
        if not OBS.enabled:
            return self._mem_alloc_many_impl(requests, rollback_on_error)
        with OBS.tracer.span("mem_alloc_many") as span:
            OBS.metrics.counter("alloc.batches").inc()
            try:
                placed = self._mem_alloc_many_impl(requests, rollback_on_error)
            except Exception:
                OBS.metrics.counter("alloc.batch_failures").inc()
                raise
            span.fields.update(buffers=len(placed))
            OBS.metrics.histogram("alloc.batch_size").observe(len(placed))
            return placed

    def _mem_alloc_many_impl(
        self, requests, rollback_on_error: bool
    ) -> tuple[Buffer, ...]:
        traced = OBS.enabled
        alloc = self._alloc
        placed: list[Buffer] = []
        try:
            for req in requests:
                if isinstance(req, AllocRequest):
                    r = req
                elif isinstance(req, dict):
                    r = AllocRequest(**req)
                else:
                    r = AllocRequest(*req)
                if traced:
                    # Through mem_alloc: per-request sampling and spans.
                    buf = self.mem_alloc(
                        r.size,
                        r.attribute,
                        r.initiator,
                        name=r.name,
                        allow_partial=r.allow_partial,
                        allow_fallback=r.allow_fallback,
                        scope=r.scope,
                    )
                else:
                    buf = alloc(
                        r.size, r.attribute, r.initiator, r.name,
                        r.allow_partial, r.allow_fallback, r.scope,
                    )
                placed.append(buf)
        except Exception:
            if rollback_on_error:
                for buf in reversed(placed):
                    self.free(buf)
            raise
        return tuple(placed)

    def cache_stats(self) -> dict:
        """Hit/miss/invalidation counters of the shared query cache."""
        return self.memattrs.cache_stats()

    def free(self, buffer: Buffer | str) -> None:
        # Fast release: a live buffer with a plan returns its pages
        # straight to the plan's node counter and parks itself in the
        # plan's pool for recycling.  Everything else (names, split or
        # moved buffers, double frees) goes through the kernel below.
        if buffer.__class__ is Buffer:
            plan = buffer._plan
            if plan is not None:
                alloc = buffer.allocation
                pbn = alloc.pages_by_node
                pages = pbn.get(plan.node)
                if pages is not None and len(pbn) == 1 and not alloc.freed:
                    got = self.buffers.pop(buffer.name, None)
                    if got is buffer:
                        del self._kernel_live[alloc.allocation_id]
                        alloc.freed = True
                        plan.state.free_pages += pages
                        pool = plan.pool
                        if len(pool) < _POOL_MAX:
                            pool.append(buffer)
                        return
                    if got is not None:
                        # A different live buffer owns this name (the
                        # caller's handle is stale): restore and let the
                        # kernel route raise its canonical error.
                        self.buffers[buffer.name] = got
        buffer = self._resolve_buffer(buffer)
        self.kernel.free(buffer.allocation)
        del self.buffers[buffer.name]

    def migrate(self, buffer: Buffer | str, attribute: str) -> MigrationReport:
        """Move a buffer to the (possibly new) best target for ``attribute``.

        Used at phase changes (§VII): expensive, so callers should check
        :attr:`MigrationReport.estimated_seconds` against the expected
        gain.
        """
        if not OBS.enabled:
            return self._migrate_impl(buffer, attribute)
        with OBS.tracer.span("alloc.migrate", attribute=attribute) as span:
            report = self._migrate_impl(buffer, attribute)
            span.fields.update(
                moved_pages=report.moved_pages, to_node=report.to_node
            )
            return report

    def _migrate_impl(self, buffer: Buffer | str, attribute: str) -> MigrationReport:
        buffer = self._resolve_buffer(buffer)
        used_attr, ranked = self.rank_for(attribute, buffer.initiator)
        for tv in ranked:
            node = tv.target.os_index
            already = buffer.allocation.fraction_on(node)
            needed = buffer.size * (1 - already)
            if self.kernel.free_bytes(node) >= needed:
                report = self.kernel.migrate(buffer.allocation, node)
                # Re-placed under another request: no longer the plan's
                # answer, so it must not return to the plan's pool.
                buffer._plan = None
                buffer.target = tv.target
                buffer.used_attribute = used_attr
                buffer.requested_attribute = attribute
                return report
        raise CapacityError(
            f"no target can absorb {buffer.name} for attribute {attribute!r}"
        )

    # ------------------------------------------------------------------
    def placement(self) -> Placement:
        """The live buffers as a simulator placement."""
        return Placement(
            {
                name: buf.placement_fractions()
                for name, buf in self.buffers.items()
            }
        )

    def _resolve_buffer(self, buffer: Buffer | str) -> Buffer:
        if isinstance(buffer, Buffer):
            key = buffer.name
        else:
            key = buffer
        try:
            return self.buffers[key]
        except KeyError:
            raise AllocationError(f"unknown buffer {key!r}") from None

    def _initiator_pus(self, initiator) -> tuple[int, ...]:
        cache = self.memattrs.query_cache
        cpuset = as_cpuset(self.memattrs.topology, initiator, cache=cache)
        pus = cache.get("initiator_pus", cpuset)
        if pus is not MISSING:
            return pus
        if cpuset.is_empty():
            raise AllocationError("initiator has no PUs")
        pus = tuple(cpuset)
        cache.store("initiator_pus", cpuset, pus)
        return pus
