"""Page-granularity NUMA allocator (the ``mbind`` layer).

:class:`KernelMemoryManager` owns the :class:`~repro.kernel.nodes.NodeState`
table for one machine and services policy-driven allocations, returning
:class:`PageAllocation` records that say exactly how many pages landed on
each node — which is what makes *partial/hybrid allocations* (paper §VII)
observable to the simulator and the profiler.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from ..errors import (
    CapacityError,
    MigrationError,
    PolicyError,
    SpecError,
    TransientMigrationError,
)
from ..firmware.slit import Slit, build_slit
from ..firmware.srat import Srat, build_srat
from ..hw.spec import MachineSpec
from ..obs import OBS, Counter, MetricsRegistry
from .migration import MigrationReport, estimate_migration
from .nodes import NodeState
from .policy import MemPolicy, PolicyKind, bind_policy

__all__ = ["PageAllocation", "KernelMemoryManager"]

_alloc_ids = itertools.count(1)


@dataclass
class PageAllocation:
    """One serviced allocation: how many pages ended up on which node."""

    allocation_id: int
    size_bytes: int
    page_size: int
    pages_by_node: dict[int, int]
    policy: MemPolicy
    freed: bool = False

    @property
    def total_pages(self) -> int:
        return sum(self.pages_by_node.values())

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.pages_by_node))

    @property
    def is_split(self) -> bool:
        """True when the buffer straddles several nodes (hybrid allocation)."""
        return len(self.pages_by_node) > 1

    def fraction_on(self, node: int) -> float:
        """Fraction of the buffer's pages living on ``node``."""
        total = self.total_pages
        return self.pages_by_node.get(node, 0) / total if total else 0.0

    def describe(self) -> str:
        placement = ", ".join(
            f"node{n}:{p}p" for n, p in sorted(self.pages_by_node.items())
        )
        return (
            f"alloc#{self.allocation_id} {self.size_bytes}B "
            f"[{placement}] policy={self.policy.describe()}"
        )


class KernelMemoryManager:
    """The machine's page allocator.

    Parameters
    ----------
    machine:
        The platform whose NUMA nodes to manage.
    page_size:
        Accounting granularity; 4 KiB by default.
    os_reserved_fraction:
        Fraction of each node the OS keeps for itself (page tables, page
        cache, ...), so that "allocate 192 GB on a 192 GB node" fails just
        like on a real machine.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        page_size: int = 4096,
        os_reserved_fraction: float = 0.03,
        srat: Srat | None = None,
        slit: Slit | None = None,
    ) -> None:
        if page_size <= 0:
            raise SpecError("page_size must be positive")
        if not 0 <= os_reserved_fraction < 1:
            raise SpecError("os_reserved_fraction must be in [0, 1)")
        self.machine = machine
        self.page_size = page_size
        self.srat = srat or build_srat(machine)
        self.slit = slit or build_slit(machine)
        self.nodes: dict[int, NodeState] = {}
        self._os_reserved: dict[int, int] = {}
        for inst in machine.numa_nodes():
            state = NodeState.from_instance(inst, page_size)
            reserved = int(state.total_pages * os_reserved_fraction)
            state.free_pages -= reserved
            self.nodes[inst.os_index] = state
            self._os_reserved[inst.os_index] = reserved
        self._live: dict[int, PageAllocation] = {}
        #: Nodes taken out of service (hot-unplug / co-tenant eviction).
        #: Offline nodes keep their :class:`NodeState` but are skipped by
        #: every allocation path and refused as migration destinations.
        self._offline: set[int] = set()
        #: Pages stolen per node by a co-tenant (capacity-loss faults).
        self._cotenant: dict[int, int] = {}
        #: Called as ``listener(event, node)`` after every topology event
        #: ("offline" / "online" / "capacity_loss" / "capacity_restored") —
        #: how the attribute layer learns its cached rankings went stale.
        self._topology_listeners: list[Callable[[str, int], None]] = []
        #: Fault-injection hook: when set and returning True, the next
        #: public :meth:`migrate` raises :class:`TransientMigrationError`.
        #: Kernel-internal drains (:meth:`offline_node`) bypass it.
        self.migration_fault_hook: Callable[[], bool] | None = None
        # Zonelists and policy candidate orders derive only from the SLIT
        # and the node set, both fixed at construction — memoize them so
        # the allocation hot path stops re-sorting distances per call.
        self._zonelist_cache: dict[int, tuple[int, ...]] = {}
        self._order_cache: dict[tuple[MemPolicy, int], tuple[int, ...]] = {}
        #: ``kernel.allocations`` and ``kernel.pages_allocated`` of the
        #: registry they were looked up in (see :meth:`_count_commit`).
        self._commit_counters: tuple[MetricsRegistry, Counter, Counter] | None = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    def online_node_ids(self) -> tuple[int, ...]:
        return tuple(n for n in sorted(self.nodes) if n not in self._offline)

    def is_online(self, node: int) -> bool:
        self._node(node)
        return node not in self._offline

    def free_bytes(self, node: int) -> int:
        state = self._node(node)
        return 0 if node in self._offline else state.free_bytes

    def os_reserved_pages(self, node: int) -> int:
        """Pages the OS kept for itself on a node (fixed at construction)."""
        self._node(node)
        return self._os_reserved[node]

    def cotenant_pages(self, node: int) -> int:
        """Pages currently stolen from a node by a co-tenant."""
        self._node(node)
        return self._cotenant.get(node, 0)

    def local_node_of_pu(self, pu: int) -> int:
        """The node "default" allocations target for a given CPU."""
        return self.srat.domain_of_pu(pu)

    def zonelist(self, from_node: int) -> tuple[int, ...]:
        """Fallback order from a node: self first, then by SLIT distance."""
        cached = self._zonelist_cache.get(from_node)
        if cached is not None:
            return cached
        if from_node not in self.nodes:
            raise PolicyError(f"unknown node {from_node}")
        others = sorted(
            (n for n in self.nodes if n != from_node),
            key=lambda n: (self.slit.distance(from_node, n), n),
        )
        order = (from_node, *others)
        self._zonelist_cache[from_node] = order
        return order

    def free_pages_array(self) -> list[int]:
        """Per-node free-page counters, in sorted node id order.  Offline
        nodes report 0, matching :meth:`free_bytes`."""
        offline = self._offline
        return [
            0 if n in offline else self.nodes[n].free_pages
            for n in self.node_ids()
        ]

    def _count_commit(self, pages: int) -> None:
        """Count one page commit in ``kernel.allocations`` and
        ``kernel.pages_allocated``; callers check ``OBS.enabled`` first.
        The counters are looked up once per registry, not per commit."""
        metrics = OBS.metrics
        counters = self._commit_counters
        if counters is None or counters[0] is not metrics:
            counters = self._commit_counters = (
                metrics,
                metrics.counter("kernel.allocations"),
                metrics.counter("kernel.pages_allocated"),
            )
        counters[1].value += 1
        counters[2].value += pages

    def _node(self, node: int) -> NodeState:
        try:
            return self.nodes[node]
        except KeyError:
            raise PolicyError(f"unknown node {node}") from None

    def _pages_for(self, size_bytes: int) -> int:
        if size_bytes <= 0:
            raise SpecError("allocation size must be positive")
        return -(-size_bytes // self.page_size)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(
        self, size_bytes: int, policy: MemPolicy, *, initiator_pu: int = 0
    ) -> PageAllocation:
        """Service one allocation under a policy.

        Raises :class:`CapacityError` when the policy's reachable nodes
        cannot hold the request.  Partial placements (first node fills up,
        remainder spills to the next) are recorded per node.
        """
        pages = self._pages_for(size_bytes)
        order = self._candidate_order(policy, initiator_pu)

        placed: dict[int, int] = {}
        if policy.kind is PolicyKind.INTERLEAVE:
            placed = self._interleave(pages, policy.nodes)
        else:
            remaining = pages
            for node in order:
                if remaining == 0:
                    break
                take = min(remaining, self._node(node).free_pages)
                if take > 0:
                    placed[node] = placed.get(node, 0) + take
                    remaining -= take
            if remaining > 0:
                raise CapacityError(
                    f"cannot place {pages} pages under {policy.describe()}: "
                    f"{remaining} pages do not fit "
                    f"(candidates: {', '.join(map(str, order))})"
                )

        for node, count in placed.items():
            self._node(node).reserve(count)
        alloc = PageAllocation(
            allocation_id=next(_alloc_ids),
            size_bytes=size_bytes,
            page_size=self.page_size,
            pages_by_node=placed,
            policy=policy,
        )
        self._live[alloc.allocation_id] = alloc
        if OBS.enabled:
            self._count_commit(alloc.total_pages)
        return alloc

    def allocate_ordered(
        self, size_bytes: int, nodes_in_order: tuple[int, ...]
    ) -> PageAllocation:
        """Place pages greedily following an explicit node order.

        Unlike BIND (whose fallback follows the zonelist), the caller's
        order is authoritative — this is the primitive the heterogeneous
        allocator's ranked spill uses.
        """
        if not nodes_in_order:
            raise PolicyError("allocate_ordered needs at least one node")
        unknown = set(nodes_in_order) - set(self.nodes)
        if unknown:
            raise PolicyError(f"unknown nodes {sorted(unknown)}")
        if self._offline:
            nodes_in_order = tuple(
                n for n in nodes_in_order if n not in self._offline
            )
            if not nodes_in_order:
                raise CapacityError(
                    "ordered placement impossible: every candidate node is offline"
                )
        pages = self._pages_for(size_bytes)
        placed: dict[int, int] = {}
        remaining = pages
        for node in nodes_in_order:
            if remaining == 0:
                break
            take = min(remaining, self._node(node).free_pages)
            if take > 0:
                placed[node] = placed.get(node, 0) + take
                remaining -= take
        if remaining > 0:
            raise CapacityError(
                f"ordered placement over {list(nodes_in_order)} cannot hold "
                f"{pages} pages ({remaining} left over)"
            )
        for node, count in placed.items():
            self._node(node).reserve(count)
        alloc = PageAllocation(
            allocation_id=next(_alloc_ids),
            size_bytes=size_bytes,
            page_size=self.page_size,
            pages_by_node=placed,
            policy=bind_policy(*nodes_in_order),
        )
        self._live[alloc.allocation_id] = alloc
        if OBS.enabled:
            self._count_commit(pages)
        return alloc

    def place_pages(
        self, node: int, pages: int, size_bytes: int, policy: MemPolicy
    ) -> PageAllocation:
        """Commit ``pages`` on one node without a policy walk.

        The allocator's plan walk calls this after it has already
        verified the fit against the node's live free counter; the method
        only performs the commit (reserve + bookkeeping).
        """
        self._node(node).reserve(pages)
        alloc = PageAllocation(
            allocation_id=next(_alloc_ids),
            size_bytes=size_bytes,
            page_size=self.page_size,
            pages_by_node={node: pages},
            policy=policy,
        )
        self._live[alloc.allocation_id] = alloc
        if OBS.enabled:
            self._count_commit(pages)
        return alloc

    def _candidate_order(self, policy: MemPolicy, initiator_pu: int) -> tuple[int, ...]:
        local = self.local_node_of_pu(initiator_pu)
        key = (policy, local)
        cached = self._order_cache.get(key)
        if cached is None:
            cached = self._candidate_order_uncached(policy, local)
            self._order_cache[key] = cached
        if self._offline:
            # The cached order is topology-static; online-ness is not.
            return tuple(n for n in cached if n not in self._offline)
        return cached

    def _candidate_order_uncached(
        self, policy: MemPolicy, local: int
    ) -> tuple[int, ...]:
        if policy.kind is PolicyKind.DEFAULT:
            return self.zonelist(local)
        if policy.kind is PolicyKind.BIND:
            allowed = set(policy.nodes)
            unknown = allowed - set(self.nodes)
            if unknown:
                raise PolicyError(
                    f"bind nodeset contains unknown nodes {sorted(unknown)}"
                )
            start = local if local in allowed else min(allowed)
            return tuple(n for n in self.zonelist(start) if n in allowed)
        if policy.kind is PolicyKind.PREFERRED:
            preferred = policy.nodes[0]
            if preferred not in self.nodes:
                raise PolicyError(f"preferred node {preferred} unknown")
            # Linux restriction (paper §VII fn.21): fallback only to nodes
            # with a HIGHER index than the preferred node.
            fallbacks = [
                n for n in self.zonelist(preferred)[1:] if n > preferred
            ]
            return (preferred, *fallbacks)
        if policy.kind is PolicyKind.INTERLEAVE:
            unknown = set(policy.nodes) - set(self.nodes)
            if unknown:
                raise PolicyError(
                    f"interleave nodeset contains unknown nodes {sorted(unknown)}"
                )
            return tuple(policy.nodes)
        raise PolicyError(f"unhandled policy kind {policy.kind}")

    def _interleave(self, pages: int, nodes: tuple[int, ...]) -> dict[int, int]:
        """Round-robin placement honouring per-node free space."""
        if self._offline:
            nodes = tuple(n for n in nodes if n not in self._offline)
            if not nodes:
                raise CapacityError(
                    "interleave impossible: every node in the set is offline"
                )
        placed = {n: 0 for n in nodes}
        free = {n: self._node(n).free_pages for n in nodes}
        live = [n for n in nodes if free[n] > 0]
        remaining = pages
        while remaining > 0 and live:
            share = max(1, remaining // len(live))
            progress = False
            for n in list(live):
                take = min(share, free[n] - placed[n], remaining)
                if take > 0:
                    placed[n] += take
                    remaining -= take
                    progress = True
                if placed[n] >= free[n]:
                    live.remove(n)
                if remaining == 0:
                    break
            if not progress:
                break
        if remaining > 0:
            raise CapacityError(
                f"interleave over nodes {list(nodes)} cannot hold {pages} pages"
            )
        return {n: c for n, c in placed.items() if c > 0}

    # ------------------------------------------------------------------
    # free / migrate
    # ------------------------------------------------------------------
    def free(self, alloc: PageAllocation) -> None:
        """Release every page of an allocation."""
        if alloc.freed:
            raise SpecError(f"double free of {alloc.describe()}")
        if alloc.allocation_id not in self._live:
            raise SpecError(
                f"allocation #{alloc.allocation_id} not owned by this manager"
            )
        for node, count in alloc.pages_by_node.items():
            self._node(node).release(count)
        alloc.freed = True
        del self._live[alloc.allocation_id]

    def migrate(
        self,
        alloc: PageAllocation,
        to_node: int,
        *,
        pages: int | None = None,
        from_nodes: tuple[int, ...] | None = None,
    ) -> MigrationReport:
        """Move pages of an allocation to another node (``move_pages``).

        Moves up to ``pages`` pages (default: all of them), constrained by
        free space on the destination.  ``from_nodes`` restricts which
        source nodes pages may be pulled from — the auto-tier daemon
        demotes with ``from_nodes=fast_nodes`` so that slow-resident pages
        are never re-moved slow→slow.  Returns a report with the moved
        count and estimated cost.

        Raises :class:`TransientMigrationError` when the installed
        :attr:`migration_fault_hook` fires (fault injection), and
        :class:`MigrationError` when the destination is offline.
        """
        if alloc.freed:
            raise SpecError("cannot migrate a freed allocation")
        hook = self.migration_fault_hook
        if hook is not None and hook():
            if OBS.enabled:
                OBS.metrics.counter("kernel.migration_transient_failures").inc()
            raise TransientMigrationError(
                f"transient failure migrating alloc#{alloc.allocation_id} "
                f"to node {to_node}"
            )
        if to_node in self._offline:
            raise MigrationError(f"destination node {to_node} is offline")
        return self._do_migrate(alloc, to_node, pages=pages, from_nodes=from_nodes)

    def _do_migrate(
        self,
        alloc: PageAllocation,
        to_node: int,
        *,
        pages: int | None,
        from_nodes: tuple[int, ...] | None,
    ) -> MigrationReport:
        """The migration body, shared by :meth:`migrate` and the
        :meth:`offline_node` drain (which bypasses fault injection)."""
        dest = self._node(to_node)
        if pages is not None and pages < 0:
            raise SpecError("cannot migrate a negative page count")
        if from_nodes is None:
            sources = sorted(alloc.pages_by_node)
            want = alloc.total_pages if pages is None else pages
        else:
            unknown = set(from_nodes) - set(self.nodes)
            if unknown:
                raise PolicyError(f"unknown source nodes {sorted(unknown)}")
            allowed = set(from_nodes)
            sources = [n for n in sorted(alloc.pages_by_node) if n in allowed]
            eligible = sum(
                alloc.pages_by_node[n] for n in sources if n != to_node
            )
            want = eligible if pages is None else pages

        moved: dict[int, int] = {}
        remaining = min(want, alloc.total_pages - alloc.pages_by_node.get(to_node, 0))
        for node in sources:
            if node == to_node or remaining == 0:
                continue
            here = alloc.pages_by_node[node]
            take = min(here, remaining, dest.free_pages - sum(moved.values()))
            if take > 0:
                moved[node] = take
                remaining -= take

        report = estimate_migration(
            self.machine, moved, to_node, page_size=self.page_size,
            requested_pages=want,
        )
        if OBS.enabled:
            OBS.metrics.counter("kernel.migrations").inc()
            OBS.metrics.counter("kernel.pages_migrated").inc(report.moved_pages)
            OBS.metrics.counter("kernel.bytes_migrated").inc(report.bytes_moved)
        for node, count in moved.items():
            self._node(node).release(count)
            dest.reserve(count)
            left = alloc.pages_by_node[node] - count
            if left:
                alloc.pages_by_node[node] = left
            else:
                del alloc.pages_by_node[node]
            alloc.pages_by_node[to_node] = alloc.pages_by_node.get(to_node, 0) + count
        return report

    # ------------------------------------------------------------------
    # node lifecycle (hot-unplug / co-tenant pressure)
    # ------------------------------------------------------------------
    def add_topology_listener(
        self, listener: Callable[[str, int], None]
    ) -> None:
        """Register ``listener(event, node)`` for topology events."""
        self._topology_listeners.append(listener)

    def _notify(self, event: str, node: int) -> None:
        if OBS.enabled:
            OBS.metrics.counter("kernel.topology_events", event=event).inc()
        for listener in self._topology_listeners:
            listener(event, node)

    def offline_node(self, node: int) -> tuple[MigrationReport, ...]:
        """Take a node out of service, draining every resident page first.

        All pages of live allocations resident on ``node`` are migrated to
        the remaining online nodes in zonelist (distance) order.  The
        whole drain is checked for capacity *before* any page moves, so
        the call either drains everything or raises
        :class:`CapacityError` leaving all state untouched.
        """
        self._node(node)
        if node in self._offline:
            raise PolicyError(f"node {node} is already offline")
        drains = [
            (alloc, alloc.pages_by_node[node])
            for alloc in sorted(
                self._live.values(), key=lambda a: a.allocation_id
            )
            if node in alloc.pages_by_node
        ]
        resident = sum(p for _, p in drains)
        dests = [n for n in self.zonelist(node)[1:] if n not in self._offline]
        if resident > sum(self._node(d).free_pages for d in dests):
            raise CapacityError(
                f"cannot offline node {node}: {resident} resident pages "
                f"exceed the free capacity of online nodes {dests}"
            )
        reports: list[MigrationReport] = []
        for alloc, pages in drains:
            remaining = pages
            for dest in dests:
                if remaining == 0:
                    break
                take = min(remaining, self._node(dest).free_pages)
                if take == 0:
                    continue
                report = self._do_migrate(
                    alloc, dest, pages=take, from_nodes=(node,)
                )
                remaining -= report.moved_pages
                reports.append(report)
            # The pre-check guarantees the drain completed.
            assert remaining == 0, f"drain of node {node} lost {remaining} pages"
        self._offline.add(node)
        if OBS.enabled:
            OBS.metrics.counter("kernel.nodes_offlined").inc()
            OBS.metrics.counter("kernel.pages_drained").inc(resident)
        self._notify("offline", node)
        return tuple(reports)

    def online_node(self, node: int) -> None:
        """Bring a previously offlined node back into service."""
        self._node(node)
        if node not in self._offline:
            raise PolicyError(f"node {node} is not offline")
        self._offline.discard(node)
        if OBS.enabled:
            OBS.metrics.counter("kernel.nodes_onlined").inc()
        self._notify("online", node)

    def cotenant_reserve(self, node: int, pages: int) -> int:
        """A co-tenant steals up to ``pages`` free pages from a node.

        Returns how many were actually taken (capped at the free pool —
        co-tenants cannot evict our live allocations).
        """
        state = self._node(node)
        if pages < 0:
            raise SpecError("cannot steal a negative page count")
        take = min(pages, state.free_pages)
        if take:
            state.reserve(take)
            self._cotenant[node] = self._cotenant.get(node, 0) + take
        if OBS.enabled:
            OBS.metrics.counter("kernel.cotenant_pages_taken").inc(take)
        self._notify("capacity_loss", node)
        return take

    def cotenant_release(self, node: int, pages: int | None = None) -> int:
        """Return co-tenant-held pages (default: all of them) to the node."""
        state = self._node(node)
        held = self._cotenant.get(node, 0)
        give = held if pages is None else min(pages, held)
        if give:
            state.release(give)
            self._cotenant[node] = held - give
        self._notify("capacity_restored", node)
        return give

    def live_allocations(self) -> tuple[PageAllocation, ...]:
        return tuple(self._live.values())

    def utilization(self) -> dict[int, float]:
        """Fraction used per node (for capacity-pressure reports)."""
        return {
            n: state.used_pages / state.total_pages for n, state in self.nodes.items()
        }
