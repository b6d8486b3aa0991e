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
from ..core.ranking import rank_targets
from ..errors import AllocationError, CapacityError, SpecError
from ..kernel.migration import MigrationReport
from ..kernel.pagealloc import KernelMemoryManager, PageAllocation
from ..kernel.policy import bind_policy
from ..obs import OBS
from ..sim.access import Placement
from ..topology.objects import TopoObject
from ..topology.traversal import as_cpuset, get_local_numanode_objs
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


@dataclass(slots=True)
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
    # Plan whose pool this buffer's allocation returns to when freed;
    # None for named, spilled or migrated buffers and for buffers off
    # the plan's first online entry.
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


#: Upper bound on recycled allocations kept per allocation plan.  Large
#: enough that a freed batch can be recycled wholesale, small enough
#: that pools stay negligible next to the page bookkeeping itself.
_POOL_MAX = 256

#: Upper bound on memoized plans.  The memo is keyed by the request's
#: raw spelling (attribute case, initiator form), so a client cycling
#: spellings would otherwise grow it without limit; the oldest plan is
#: dropped first.
_PLANS_MAX = 4096


class _AllocPlan:
    """One request's answer: the ranking of an ``(attribute, initiator,
    scope)`` triple, flattened for the placement walk.

    A plan is valid only while ``generation`` matches the attribute
    store's — attribute updates *and* topology events (offline/online,
    co-tenant capacity shifts) bump the generation, so a stale plan can
    never place onto a dead node or follow an outdated ranking.

    ``used_attr``/``ranked`` are what :meth:`HeterogeneousAllocator.rank_for`
    returns: the attribute after fallback and its ranked targets (best
    first).  ``entries`` holds the online targets as ``(node_state,
    os_index, target, bind_policy, rank)`` tuples: everything the
    first-fit walk needs without touching the topology or the policy
    constructor.  ``state``/``node``/``target``/``rank`` name the first
    online entry.  ``pool`` recycles the kernel allocation records of
    freed buffers this plan placed on ``node``, so a warm alloc/free
    cycle is a handful of counter updates and one new :class:`Buffer`.
    """

    __slots__ = (
        "generation",
        "used_attr",
        "ranked",
        "entries",
        "state",
        "node",
        "target",
        "rank",
        "initiator_pus",
        "pool",
    )

    def __init__(self, generation, used_attr, ranked, entries, initiator_pus):
        self.generation = generation
        self.used_attr = used_attr
        self.ranked = ranked
        self.entries = entries
        if entries:
            self.state, self.node, self.target, _, self.rank = entries[0]
        else:
            self.state, self.node, self.target, self.rank = None, -1, None, -1
        self.initiator_pus = initiator_pus
        self.pool: list[PageAllocation] = []


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
        self.tie_tolerance = tie_tolerance
        self.tie_attr = tie_attr
        self.buffers: dict[str, Buffer] = {}
        # Plan memo: (attribute, initiator, scope) -> _AllocPlan, at most
        # _PLANS_MAX entries.  The one memo of a request's answer:
        # rank_for and mem_alloc read the same entry, and the generation
        # check is its only staleness rule.
        self._plans: dict[tuple, _AllocPlan] = {}
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_evictions = 0
        # Hot-path aliases: one attribute load instead of two per call.
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

        The answer is the request's allocation plan, the same memo entry
        ``mem_alloc`` walks; a plan older than the attribute store's
        generation is rebuilt.  ``migrate``, the planners, the serve
        ``query`` verb and the resilient allocator call this directly,
        and only these calls count in :meth:`cache_stats`.
        """
        try:
            plan = self._plans.get((attribute, initiator, scope))
        except TypeError:      # unhashable initiator: never memoized
            plan = None
        if plan is not None and plan.generation == self.memattrs._generation:
            self._plan_hits += 1
        else:
            self._plan_misses += 1
            plan = self._build_plan(attribute, initiator, scope)
        return plan.used_attr, plan.ranked

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

        Validate, memo probe, plan, place, fail — in that order.  While
        telemetry is on, a recycled commit counts in the kernel's
        counters, sampled in or not, since it never reaches the kernel.
        """
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        bufname = name or f"buf{next(_buffer_ids)}"
        if bufname in self.buffers:
            raise AllocationError(f"buffer name {bufname!r} already in use")
        try:
            plan = self._plans.get((attribute, initiator, scope))
        except TypeError:      # unhashable initiator: never memoized
            plan = None
        if plan is None or plan.generation != self.memattrs._generation:
            plan = self._build_plan(attribute, initiator, scope)
        elif name is None and allow_fallback and not allow_partial:
            # Memo of the plan's first-fit answer: a pooled allocation of
            # this size back on the first online entry, under a new
            # Buffer (a freed handle never comes back as someone else's).
            pool = plan.pool
            if pool:
                alloc = pool[-1]
                if alloc.size_bytes == size:
                    state = plan.state
                    pages = alloc.pages_by_node[plan.node]
                    if state.free_pages >= pages:
                        del pool[-1]
                        state.free_pages -= pages
                        alloc.freed = False
                        self._kernel_live[alloc.allocation_id] = alloc
                        if OBS.enabled:
                            self.kernel._count_commit(pages)
                        buffer = Buffer(
                            bufname, size, attribute, plan.used_attr, alloc,
                            plan.target, plan.rank, plan.initiator_pus, plan,
                        )
                        self.buffers[bufname] = buffer
                        return buffer

        pages = -(-size // self._page_size)
        entries = plan.entries
        if not allow_fallback:
            # Strict binding: the original best target, while it is online.
            best = plan.ranked[0].target
            entries = entries[:1] if plan.node == best.os_index else ()
        if allow_partial:
            # Greedy spill down the ranking ("at least partially", §VII).
            if sum(entry[0].free_pages for entry in entries) >= pages:
                allocation = self.kernel.allocate_ordered(
                    size, tuple(entry[1] for entry in entries)
                )
                best = plan.ranked[0].target
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
                    if name is None and node == plan.node:
                        # Pool-eligible when freed: unnamed, whole-buffer,
                        # on the plan's first online entry.
                        buffer._plan = plan
                    self.buffers[bufname] = buffer
                    return buffer

        ranked = plan.ranked if allow_fallback else plan.ranked[:1]
        raise CapacityError(
            f"cannot place {size} bytes for attribute {attribute!r}: "
            + "; ".join(
                f"{tv.target.label} free={self.kernel.free_bytes(tv.target.os_index)}"
                for tv in ranked
            )
        )

    def _build_plan(self, attribute, initiator, scope) -> _AllocPlan:
        """Resolve one request triple into a fresh plan and memoize it.

        The paper's flow, re-derived from the attribute store: the
        initiator's PUs, its local targets (``scope="local"``) or every
        node (``"machine"``), then the first attribute of the fallback
        chain that ranks any of them.
        """
        topology = self.memattrs.topology
        cpuset = as_cpuset(topology, initiator)
        if cpuset.is_empty():
            raise AllocationError("initiator has no PUs")
        if scope == "local":
            # Memoryless-initiator fallback: a CPU whose package has no
            # memory at all (CPU-only NUMA nodes exist) allocates from the
            # whole machine, like the kernel's zonelist would.
            targets = get_local_numanode_objs(topology, cpuset) or topology.numanodes()
        elif scope == "machine":
            targets = topology.numanodes()
        else:
            raise AllocationError(f"unknown scope {scope!r}")
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
                break
        else:
            raise AllocationError(
                f"no attribute in the fallback chain of {attribute!r} has values "
                "for any local target"
            )
        nodes = self.kernel.nodes
        offline = self.kernel._offline
        entries = tuple(
            (nodes[t.os_index], t.os_index, t, bind_policy(t.os_index), rank)
            for rank, t in enumerate(tv.target for tv in ranked)
            if t.os_index not in offline
        )
        plan = _AllocPlan(
            self.memattrs._generation, attr.name, ranked, entries, tuple(cpuset)
        )
        plans = self._plans
        key = (attribute, initiator, scope)
        try:
            if key not in plans and len(plans) >= _PLANS_MAX:
                # FIFO: dicts keep insertion order, so the oldest goes first.
                del plans[next(iter(plans))]
                self._plan_evictions += 1
            plans[key] = plan
        except TypeError:      # unhashable initiator: never memoized
            pass
        return plan

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
        """Counters of the plan memo as :meth:`rank_for` reads it.

        ``hits``/``misses`` count ``rank_for`` calls answered by a valid
        plan or by a rebuilt one (``mem_alloc``'s own memo reads are not
        counted); ``entries`` is the number of plans held, ``evictions``
        how many the bound dropped.  ``families`` keeps the one family,
        ``alloc_rank``, for readers of the per-family layout.
        """
        lookups = self._plan_hits + self._plan_misses
        memo = {
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "entries": len(self._plans),
            "hit_rate": self._plan_hits / lookups if lookups else 0.0,
        }
        return {
            **memo,
            "evictions": self._plan_evictions,
            "generation": self.memattrs.generation,
            "families": {"alloc_rank": dict(memo)},
        }

    def free(self, buffer: Buffer | str) -> None:
        # Fast release: a live buffer with a plan returns its pages
        # straight to the plan's node counter and parks its allocation
        # record in the plan's pool for recycling.  Everything else
        # (names, split or moved buffers, double frees) goes through the
        # kernel below.
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
                            pool.append(alloc)
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
