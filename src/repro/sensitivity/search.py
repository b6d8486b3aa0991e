"""Scalable per-buffer placement search (paper §V-A's combinatorial case).

"In the general case, one should rather compare the performance of all
possible placements of every buffer ... N buffers lead to 2^N possible
placements", pruned "by identifying buffers that are obviously not
performance critical".

PR 1 reproduced the warning literally: a materialized ``itertools.product``
sweep that refused to run past ``max_candidates``.  This module replaces it
with a search *engine* that scales to the spaces the paper only gestures
at:

* **streaming enumeration** — candidates are generated by recursive
  assignment; under branch-and-bound they feed a bounded top-k heap, so
  nothing of size ``kinds^N`` is materialized;
* **prefix capacity pruning** — a node that cannot absorb the buffers
  assigned so far kills the whole subtree, not individual leaves;
* **branch-and-bound** — an admissible per-phase lower bound (each phase
  priced with every undecided buffer on its best node for that phase,
  precomputed once per phase from single-buffer pricings) skips subtrees
  that cannot beat the current k-th best candidate;
* **budgeted pricing** — ``max_candidates`` is a pricing budget with a
  loggable truncation report instead of a hard error.

The search is serial: branch-and-bound leaves too few leaves to price for
process fan-out to pay (docs/MODEL.md §7b has the measurements).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import getitem, itemgetter

from ..errors import ReproError
from ..obs import OBS
from ..sim.access import KernelPhase
from ..sim.engine import SimEngine

__all__ = [
    "PlacementCandidate",
    "SearchStats",
    "SearchResult",
    "search_placements",
]

#: Prune only when the lower bound clears the incumbent by this relative
#: margin: the bound and the true pricing sum floats in different orders,
#: so equality-adjacent comparisons get a safety belt.
_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class PlacementCandidate:
    """One evaluated placement."""

    assignment: tuple[tuple[str, int], ...]   # (buffer, node) pairs
    seconds: float

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)


@dataclass(frozen=True)
class SearchStats:
    """What the search did to the ``kinds^N`` space."""

    space_size: int           # full candidate space (kinds^N)
    leaves_priced: int        # complete assignments actually priced
    kept: int                 # candidates returned
    capacity_pruned: int      # leaves skipped via prefix capacity pruning
    bound_pruned: int         # leaves skipped via branch-and-bound
    truncated: bool           # pricing budget exhausted before completion
    budget: int | None        # the pricing budget (None = unlimited)
    slice_pricings: int       # engine pricings for candidate evaluation
    bound_pricings: int       # engine pricings for the lower-bound tables

    def report(self) -> str:
        """Human-readable (and loggable) account of the search."""
        lines = [
            f"placement search: space {self.space_size}, "
            f"priced {self.leaves_priced} leaves, kept {self.kept}",
            f"  pruned: {self.capacity_pruned} by capacity, "
            f"{self.bound_pruned} by bound",
            f"  engine pricings: {self.slice_pricings} slice + "
            f"{self.bound_pricings} bound",
        ]
        if self.truncated:
            lines.append(
                f"  TRUNCATED: pricing budget {self.budget} exhausted; "
                f"unexplored candidates remain — raise max_candidates or "
                f"prune critical_buffers"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class SearchResult:
    """Candidates (best first) plus the search's accounting."""

    candidates: tuple[PlacementCandidate, ...]
    stats: SearchStats

    @property
    def best(self) -> PlacementCandidate:
        return self.candidates[0]


class _BudgetExhausted(Exception):
    """Internal: the leaf-pricing budget ran out."""


def _slots_getter(slots: list[int]):
    """``combo -> tuple(combo[i] for i in slots)``."""
    if len(slots) == 1:
        (only,) = slots
        return lambda combo: (combo[only],)
    return itemgetter(*slots)


# ----------------------------------------------------------------------
# admissible lower bound
# ----------------------------------------------------------------------
class _BoundModel:
    """Admissible per-phase lower bounds from single-buffer pricings.

    For every (phase, buffer, node) the walk reads — the default node for
    a non-critical buffer, each candidate node for a critical one — the
    engine prices the buffer's prepared access *alone* on the node
    (``SimEngine._price_access_alone``): the access keeps its real
    cache share — its miss counts are exactly those of the full phase —
    while the node carries only this buffer's working set, so its loaded
    latency is at its lowest and its bandwidth at its highest.  Both
    components are therefore lower bounds on the buffer's contribution in
    any complete placement (docs/MODEL.md, "Placement search" has the
    monotonicity argument).

    The phase lower bound under a partial assignment combines:

    * decided buffers at their assigned nodes (latency terms summed; per
      node, bandwidth terms summed),
    * every undecided buffer on its *best* node for that phase
      (``min`` over candidate nodes, precomputed as suffix aggregates),

    as ``max(bw_lb, lat_lb + cpu)`` per phase, summed over phases — the
    same roofline combination the engine applies, on per-term lower
    bounds.
    """

    def __init__(
        self,
        engine: SimEngine,
        prepared: tuple,
        critical: tuple[str, ...],
        candidate_nodes: tuple[int, ...],
        default_node: int,
    ) -> None:
        self.pricings = 0
        crit_index = {b: i for i, b in enumerate(critical)}
        n_phases = len(prepared)
        self._cpu = tuple(p.cpu_seconds for p in prepared)
        # Decided-term state, mutated by apply()/undo() during the walk.
        self._dec_lat = [0.0] * n_phases
        self._dec_bw: list[dict[int, float]] = [{} for _ in range(n_phases)]
        # touch[i]: per critical buffer i, (phase, lat-by-node, bw-by-node).
        self._touch: list[list[tuple[int, dict[int, float], dict[int, float]]]] = [
            [] for _ in critical
        ]
        # Suffix aggregates over undecided critical buffers: per phase,
        # sum of min-latency and max of min-bandwidth for buffers >= i.
        n_crit = len(critical)
        self._suffix_lat = [[0.0] * (n_crit + 1) for _ in range(n_phases)]
        self._suffix_bw = [[0.0] * (n_crit + 1) for _ in range(n_phases)]
        min_lat = [[0.0] * n_crit for _ in range(n_phases)]
        min_bw = [[0.0] * n_crit for _ in range(n_phases)]

        alone = engine._price_access_alone
        for p, prep in enumerate(prepared):
            for index, (access, _) in enumerate(prep.filtered):
                ci = crit_index.get(access.buffer)
                if ci is None:
                    # Non-critical: pinned on the default node from the start.
                    lat, bw = alone(prep, index, default_node)
                    self.pricings += 1
                    self._dec_lat[p] += lat
                    self._dec_bw[p][default_node] = (
                        self._dec_bw[p].get(default_node, 0.0) + bw
                    )
                    continue
                lat_by_node: dict[int, float] = {}
                bw_by_node: dict[int, float] = {}
                for node in candidate_nodes:
                    lat_by_node[node], bw_by_node[node] = alone(prep, index, node)
                self.pricings += len(candidate_nodes)
                self._touch[ci].append((p, lat_by_node, bw_by_node))
                min_lat[p][ci] = min(lat_by_node.values())
                min_bw[p][ci] = min(bw_by_node.values())

        for p in range(n_phases):
            for i in range(n_crit - 1, -1, -1):
                self._suffix_lat[p][i] = self._suffix_lat[p][i + 1] + min_lat[p][i]
                self._suffix_bw[p][i] = max(self._suffix_bw[p][i + 1], min_bw[p][i])
        # Per phase, the running max of the decided per-node bandwidth
        # terms: apply() only ever raises one node's term, and undo()
        # restores the saved floats, so it always equals
        # max(self._dec_bw[p].values(), default=0.0).
        self._dec_bw_max = [max(d.values(), default=0.0) for d in self._dec_bw]

    # -- incremental decided-state maintenance -------------------------
    def apply(self, index: int, node: int) -> list[tuple[int, float, float, float]]:
        """Assign critical buffer ``index`` to ``node``; returns an undo token."""
        undo = []
        dec_lat, dec_bw_max = self._dec_lat, self._dec_bw_max
        for p, lat_by_node, bw_by_node in self._touch[index]:
            dec_bw = self._dec_bw[p]
            bw = dec_bw.get(node, 0.0)
            bw_max = dec_bw_max[p]
            undo.append((p, dec_lat[p], bw, bw_max))
            dec_lat[p] += lat_by_node[node]
            bw += bw_by_node[node]
            dec_bw[node] = bw
            if bw > bw_max:
                dec_bw_max[p] = bw
        return undo

    def undo(self, index: int, node: int, token) -> None:
        # Restore the exact prior floats (re-subtracting would drift).
        for p, lat, bw, bw_max in token:
            self._dec_lat[p] = lat
            self._dec_bw[p][node] = bw
            self._dec_bw_max[p] = bw_max

    def bound(self, depth: int) -> float:
        """Admissible lower bound with critical buffers < depth decided."""
        total = 0.0
        dec_lat, suffix_lat, suffix_bw, cpu = (
            self._dec_lat, self._suffix_lat, self._suffix_bw, self._cpu
        )
        for p, bw_lb in enumerate(self._dec_bw_max):
            undecided_bw = suffix_bw[p][depth]
            if undecided_bw > bw_lb:
                bw_lb = undecided_bw
            lat_lb = dec_lat[p] + suffix_lat[p][depth] + cpu[p]
            total += bw_lb if bw_lb >= lat_lb else lat_lb
        return total


# ----------------------------------------------------------------------
# the search core
# ----------------------------------------------------------------------
class _SearchSpace:
    """One engine's view of the search: prepared phases + pricing memo."""

    def __init__(
        self,
        engine: SimEngine,
        phases: tuple[KernelPhase, ...],
        buffer_sizes: dict[str, int],
        candidate_nodes: tuple[int, ...],
        critical: tuple[str, ...],
        default_node: int,
        node_capacity: dict[int, int] | None,
        pus: tuple[int, ...] | None,
    ) -> None:
        self.engine = engine
        self.candidate_nodes = candidate_nodes
        self.critical = critical
        self.default_node = default_node
        self.capacity = node_capacity
        self.sizes = tuple(buffer_sizes[b] for b in critical)
        # One prepared context per phase: the cache model and per-access
        # cache filtering are shared by every candidate's pricing.
        self.prepared = tuple(engine.prepare_phase(p, pus=pus) for p in phases)
        self.phase_buffers = tuple(
            tuple(a.buffer for a in phase.accesses) for phase in phases
        )
        # Per phase, reads the nodes of its buffers off a combo, in access
        # order.  Combos carry one extra slot, holding the default node,
        # that every non-critical buffer reads.
        slot = {b: i for i, b in enumerate(critical)}
        self.slice_of = tuple(
            _slots_getter([slot.get(b, len(critical)) for b in bufs])
            for bufs in self.phase_buffers
        )
        # (phase index, slice-of-placement-it-reads) -> seconds: phases only
        # look at the nodes of the buffers they access, so assignments
        # differing in other buffers reuse the exact same pricing.
        self.memo: dict[tuple, float] = {}
        self.pricings = 0
        # A leaf puts each buffer wholly on one node: one shared split per
        # node, which the engine only reads.
        self.one_node = {n: {n: 1.0} for n in candidate_nodes + (default_node,)}

    def price_combo(self, combo) -> float:
        """Price one complete assignment: ``combo[i]`` is the node of
        critical buffer ``i``, and one extra last slot holds the default
        node."""
        memo = self.memo
        seconds = 0.0
        for idx, slice_of in enumerate(self.slice_of):
            key = (idx, slice_of(combo))
            cached = memo.get(key)
            if cached is None:
                one_node = self.one_node
                cached = self.engine.price_seconds(
                    self.prepared[idx], [one_node[node] for node in key[1]]
                )
                memo[key] = cached
                self.pricings += 1
            seconds += cached
        return seconds

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        top_k: int | None,
        budget: int | None,
        prune: bool,
    ) -> tuple[list[tuple[float, tuple[int, ...]]], dict]:
        """Walk the space; return sorted ``(seconds, combo)`` + stats.

        With branch-and-bound (``prune`` and ``top_k`` set), each leaf is
        priced as the walk reaches it, because the bound compares against
        the incumbent k-th best.  Otherwise the walk collects every
        priced leaf; sorting them all and slicing ``top_k`` keeps what a
        heap would under the total ``(seconds, combo)`` order.
        """
        nodes = self.candidate_nodes
        n_nodes = len(nodes)
        n_crit = len(self.critical)
        bound_model = None
        if prune and top_k is not None and n_crit > 0:
            bound_model = _BoundModel(
                self.engine,
                self.prepared,
                self.critical,
                nodes,
                self.default_node,
            )

        heap: list[tuple] = []        # max-heap entries (bound model only)
        leaves: list[tuple] = []      # collected leaves (no bound model)
        combo = [0] * n_crit + [self.default_node]
        capacity = self.capacity
        sizes = self.sizes
        used: dict[int, int] = {}
        # Leaves under one node choice made at depth d.
        subtree = [n_nodes ** (n_crit - d - 1) for d in range(n_crit)]
        leaves_priced = capacity_pruned = bound_pruned = 0
        truncated = False
        # Prune threshold: set once the heap holds top_k leaves, and moved
        # whenever its worst entry changes.
        limit = None
        price = self.price_combo
        if bound_model is not None:
            apply, undo, bound = (
                bound_model.apply, bound_model.undo, bound_model.bound
            )

        def walk(depth: int) -> None:
            nonlocal leaves_priced, capacity_pruned, bound_pruned, limit
            if depth == n_crit:
                if budget is not None and leaves_priced >= budget:
                    raise _BudgetExhausted
                leaves_priced += 1
                seconds = price(combo)
                if bound_model is None:
                    leaves.append((seconds, tuple(combo[:n_crit])))
                    return
                if len(heap) < top_k:
                    push = heapq.heappush
                else:
                    # Only a leaf before the worst kept one in the
                    # (seconds, combo) order replaces it.
                    _, worst_seconds, worst = heap[0]
                    if not (
                        seconds < worst_seconds
                        or (
                            seconds == worst_seconds
                            and combo[:n_crit] < list(worst)
                        )
                    ):
                        return
                    push = heapq.heapreplace
                assigned = tuple(combo[:n_crit])
                # Negated sort key: heapq's min-heap keeps the worst on top.
                push(
                    heap,
                    ((-seconds, tuple(-n for n in assigned)), seconds, assigned),
                )
                if len(heap) == top_k:
                    limit = heap[0][1] * (1.0 + _BOUND_SLACK)
                return
            need = sizes[depth]
            for node in nodes:
                if capacity is not None:
                    cap = capacity.get(node)  # missing => unlimited
                    if cap is not None and used.get(node, 0) + need > cap:
                        capacity_pruned += subtree[depth]
                        continue
                    used[node] = used.get(node, 0) + need
                combo[depth] = node
                if bound_model is None:
                    walk(depth + 1)
                else:
                    token = apply(depth, node)
                    if limit is not None and bound(depth + 1) > limit:
                        bound_pruned += subtree[depth]
                    else:
                        walk(depth + 1)
                    undo(depth, node, token)
                if capacity is not None:
                    used[node] -= need

        try:
            walk(0)
        except _BudgetExhausted:
            truncated = True

        if bound_model is None:
            results = sorted(leaves)[:top_k]
        else:
            results = sorted((sec, cmb) for _, sec, cmb in heap)
        stats = {
            "leaves_priced": leaves_priced,
            "capacity_pruned": capacity_pruned,
            "bound_pruned": bound_pruned,
            "truncated": truncated,
            "slice_pricings": self.pricings,
            "bound_pricings": bound_model.pricings if bound_model else 0,
        }
        return results, stats


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def search_placements(
    engine: SimEngine,
    phases: tuple[KernelPhase, ...],
    buffer_sizes: dict[str, int],
    candidate_nodes: tuple[int, ...],
    *,
    default_node: int,
    critical_buffers: tuple[str, ...] | None = None,
    node_capacity: dict[int, int] | None = None,
    pus: tuple[int, ...] | None = None,
    top_k: int | None = None,
    max_candidates: int | None = None,
    prune: bool = True,
    log=None,
) -> SearchResult:
    """Search placements of the critical buffers over the candidate nodes.

    Non-critical buffers stay on ``default_node``.  Returns the
    candidates best-first under the deterministic total order
    ``(seconds, assignment)``.

    ``critical_buffers``
        Distinct buffers to place (default: every buffer the phases
        access); a repeated buffer is rejected.
    ``candidate_nodes``
        Distinct NUMA nodes each critical buffer may go to; a repeated
        node is rejected.
    ``top_k``
        Keep only the k best candidates (streaming heap).  ``None``
        returns every feasible candidate priced, like PR 1's oracle.
    ``max_candidates``
        Pricing *budget*: at most this many complete assignments are
        priced; exceeding it truncates the walk (``stats.truncated``)
        instead of raising.  ``None`` = unlimited.
    ``prune``
        Enable branch-and-bound when ``top_k`` is set: subtrees whose
        admissible lower bound cannot beat the current k-th best are
        skipped.  Lossless — only candidates provably worse than the kept
        set are skipped.
    ``node_capacity``
        Max bytes per node; a node *missing* from the dict is unlimited
        (use an explicit ``0`` to forbid a node).
    ``log``
        Callable receiving ``stats.report()`` when the search finishes
        (notably the truncation report).
    """
    if not OBS.enabled:
        return _search_placements_impl(
            engine,
            phases,
            buffer_sizes,
            candidate_nodes,
            default_node=default_node,
            critical_buffers=critical_buffers,
            node_capacity=node_capacity,
            pus=pus,
            top_k=top_k,
            max_candidates=max_candidates,
            prune=prune,
            log=log,
        )
    with OBS.tracer.span(
        "search.placements",
        nodes=list(candidate_nodes),
        top_k=top_k,
    ) as span:
        result = _search_placements_impl(
            engine,
            phases,
            buffer_sizes,
            candidate_nodes,
            default_node=default_node,
            critical_buffers=critical_buffers,
            node_capacity=node_capacity,
            pus=pus,
            top_k=top_k,
            max_candidates=max_candidates,
            prune=prune,
            log=log,
        )
        stats = result.stats
        metrics = OBS.metrics
        metrics.counter("search.runs").inc()
        metrics.counter("search.leaves_priced").inc(stats.leaves_priced)
        metrics.counter("search.capacity_pruned").inc(stats.capacity_pruned)
        metrics.counter("search.bound_pruned").inc(stats.bound_pruned)
        metrics.counter("search.slice_pricings").inc(stats.slice_pricings)
        metrics.counter("search.bound_pricings").inc(stats.bound_pricings)
        if stats.truncated:
            metrics.counter("search.truncations").inc()
        span.fields.update(
            space_size=stats.space_size,
            leaves_priced=stats.leaves_priced,
            capacity_pruned=stats.capacity_pruned,
            bound_pruned=stats.bound_pruned,
            kept=stats.kept,
            best_seconds=result.best.seconds,
        )
        return result


def _search_placements_impl(
    engine: SimEngine,
    phases: tuple[KernelPhase, ...],
    buffer_sizes: dict[str, int],
    candidate_nodes: tuple[int, ...],
    *,
    default_node: int,
    critical_buffers: tuple[str, ...] | None,
    node_capacity: dict[int, int] | None,
    pus: tuple[int, ...] | None,
    top_k: int | None,
    max_candidates: int | None,
    prune: bool,
    log,
) -> SearchResult:
    if not phases:
        raise ReproError("need at least one phase to search over")
    phases = tuple(phases)
    all_buffers = tuple(
        sorted({a.buffer for phase in phases for a in phase.accesses})
    )
    missing = [b for b in all_buffers if b not in buffer_sizes]
    if missing:
        raise ReproError(f"no sizes for buffers: {missing}")
    critical = tuple(
        critical_buffers if critical_buffers is not None else all_buffers
    )
    unknown = set(critical) - set(all_buffers)
    if unknown:
        raise ReproError(f"critical buffers not in phases: {sorted(unknown)}")
    repeated = sorted({b for b in critical if critical.count(b) > 1})
    if repeated:
        raise ReproError(f"duplicate critical buffers: {repeated}")
    if not candidate_nodes:
        raise ReproError("need at least one candidate node")
    candidate_nodes = tuple(candidate_nodes)
    repeated = sorted(
        {n for n in candidate_nodes if candidate_nodes.count(n) > 1}
    )
    if repeated:
        raise ReproError(f"duplicate candidate nodes: {repeated}")
    # Every path rejects an unknown node here, before any pricing: the
    # pruned walk prices only the bound cells it reads, and an all-critical
    # search never prices the default node at all.
    for node in candidate_nodes + (default_node,):
        engine._instance(node)
    if top_k is not None and top_k < 1:
        raise ReproError(f"top_k must be >= 1, got {top_k}")
    if max_candidates is not None and max_candidates < 1:
        raise ReproError(f"max_candidates must be >= 1, got {max_candidates}")

    space = _SearchSpace(
        engine,
        phases,
        buffer_sizes,
        candidate_nodes,
        critical,
        default_node,
        node_capacity,
        pus,
    )
    entries, raw = space.run(top_k=top_k, budget=max_candidates, prune=prune)
    # One (buffer, node) pair per critical buffer and node, shared by every
    # candidate that makes that choice: results held by callers stay small.
    pairs = [{node: (buffer, node) for node in candidate_nodes} for buffer in critical]
    candidates = tuple(
        PlacementCandidate(assignment=tuple(map(getitem, pairs, cmb)), seconds=sec)
        for sec, cmb in entries
    )
    stats = SearchStats(
        space_size=len(candidate_nodes) ** len(critical),
        leaves_priced=raw["leaves_priced"],
        kept=len(candidates),
        capacity_pruned=raw["capacity_pruned"],
        bound_pruned=raw["bound_pruned"],
        truncated=raw["truncated"],
        budget=max_candidates,
        slice_pricings=raw["slice_pricings"],
        bound_pricings=raw["bound_pricings"],
    )
    if log is not None:
        log(stats.report())
    if not candidates:
        raise ReproError(
            "no feasible placement found"
            + (" within the pricing budget" if stats.truncated else "")
        )
    return SearchResult(candidates=candidates, stats=stats)

