"""Frozen reference for the placement search's walk bookkeeping.

The production walk (``repro.sensitivity.search``) keeps a running max of
each phase's decided bandwidth terms and reads its leaf memo keys straight
off the combo.  This module keeps the bookkeeping that came before, for
differential tests to hold the production walk to:

* :class:`OracleBoundModel` rescans ``max(dec_bw.values())`` for every
  phase on every :meth:`~OracleBoundModel.bound` call;
* :class:`OracleSpace` prices each leaf through a ``{buffer: node}`` dict
  (:meth:`~OracleSpace.price_assignment`), also below the batch threshold.

Both reuse production's table builds and prepared phases, which have
their own reference tests.  :func:`oracle_search` returns what
``search_placements`` would: candidates best first plus every
:class:`~repro.sensitivity.SearchStats` field.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import ReproError
from repro.sensitivity import PlacementCandidate, SearchStats
from repro.sensitivity.search import (
    _BOUND_SLACK,
    _BoundModel,
    _BudgetExhausted,
    _SearchSpace,
)
from repro.sim import Placement

_BATCH_MIN_LEAVES = 32


class OracleBoundModel(_BoundModel):
    """:class:`_BoundModel` with the dict-scanning bound."""

    def apply(self, index: int, node: int) -> list[tuple[int, float, float]]:
        undo = []
        for p, lat_by_node, bw_by_node in self._touch[index]:
            undo.append((p, self._dec_lat[p], self._dec_bw[p].get(node, 0.0)))
            self._dec_lat[p] += lat_by_node[node]
            self._dec_bw[p][node] = (
                self._dec_bw[p].get(node, 0.0) + bw_by_node[node]
            )
        return undo

    def undo(self, index: int, node: int, token) -> None:
        for p, lat, bw in token:
            self._dec_lat[p] = lat
            self._dec_bw[p][node] = bw

    def bound(self, depth: int) -> float:
        total = 0.0
        for p in range(len(self._cpu)):
            dec_bw = self._dec_bw[p]
            bw_lb = max(dec_bw.values(), default=0.0)
            undecided_bw = self._suffix_bw[p][depth]
            if undecided_bw > bw_lb:
                bw_lb = undecided_bw
            lat_lb = self._dec_lat[p] + self._suffix_lat[p][depth] + self._cpu[p]
            total += bw_lb if bw_lb >= lat_lb else lat_lb
        return total


class OracleSpace(_SearchSpace):
    """:class:`_SearchSpace` with dict-keyed leaf pricing and its walk."""

    def _price_combos(self, combos: list[tuple[int, ...]]) -> list[float]:
        if len(combos) < _BATCH_MIN_LEAVES:
            return [
                self.price_assignment(dict(zip(self.critical, cmb)))
                for cmb in combos
            ]
        crit_pos = {b: i for i, b in enumerate(self.critical)}
        totals = [0.0] * len(combos)
        for idx, bufs in enumerate(self.phase_buffers):
            positions = [crit_pos.get(b) for b in bufs]
            keys = [
                tuple(
                    cmb[pos] if pos is not None else self.default_node
                    for pos in positions
                )
                for cmb in combos
            ]
            missing: list[tuple[int, ...]] = []
            seen: set[tuple[int, ...]] = set()
            for key_nodes in keys:
                if key_nodes in seen or (idx, key_nodes) in self.memo:
                    continue
                seen.add(key_nodes)
                missing.append(key_nodes)
            if missing:
                compiled = self._compiled(idx)
                pos = compiled.node_pos
                frac = np.zeros(
                    (len(missing), compiled.n_buffers, compiled.n_nodes)
                )
                for r, key_nodes in enumerate(missing):
                    by_name = dict(zip(bufs, key_nodes))
                    for b, name in enumerate(compiled.buffers):
                        frac[r, b, pos[by_name[name]]] = 1.0
                batch = self.engine.price_placements_batch(compiled, frac)
                for r, secs in enumerate(batch.seconds.tolist()):
                    self.memo[(idx, missing[r])] = secs
                self.pricings += len(missing)
            for i, key_nodes in enumerate(keys):
                totals[i] += self.memo[(idx, key_nodes)]
        return totals

    def price_assignment(self, assignment: dict[str, int]) -> float:
        seconds = 0.0
        for idx, bufs in enumerate(self.phase_buffers):
            key = (
                idx,
                tuple(assignment.get(b, self.default_node) for b in bufs),
            )
            cached = self.memo.get(key)
            if cached is None:
                placement = Placement(
                    {
                        b: {assignment.get(b, self.default_node): 1.0}
                        for b in bufs
                    }
                )
                cached = self.engine.price_prepared(
                    self.prepared[idx], placement
                ).seconds
                self.memo[key] = cached
                self.pricings += 1
            seconds += cached
        return seconds

    def run(self, *, top_k, budget, prune):
        nodes = self.candidate_nodes
        n_nodes = len(nodes)
        n_crit = len(self.critical)
        bound_model = None
        if prune and top_k is not None and n_crit > 0:
            bound_model = OracleBoundModel(
                self.engine,
                self.prepared,
                self.critical,
                nodes,
                self.default_node,
            )

        heap: list[tuple] = []
        combos: list[tuple[int, ...]] = []
        combo = [0] * n_crit
        used: dict[int, int] = {}
        subtree = [n_nodes ** (n_crit - d - 1) for d in range(n_crit)]
        stats = {
            "leaves_priced": 0,
            "capacity_pruned": 0,
            "bound_pruned": 0,
            "truncated": False,
        }

        def leaf() -> None:
            if budget is not None and stats["leaves_priced"] >= budget:
                stats["truncated"] = True
                raise _BudgetExhausted
            stats["leaves_priced"] += 1
            if bound_model is None:
                combos.append(tuple(combo))
                return
            seconds = self.price_assignment(dict(zip(self.critical, combo)))
            entry = (
                (-seconds, tuple(-n for n in combo)),
                seconds,
                tuple(combo),
            )
            if len(heap) < top_k:
                heapq.heappush(heap, entry)
            elif entry[0] > heap[0][0]:
                heapq.heapreplace(heap, entry)

        def walk(depth: int) -> None:
            if depth == n_crit:
                leaf()
                return
            need = self.sizes[depth]
            for node in nodes:
                if self.capacity is not None:
                    limit = self.capacity.get(node)
                    if limit is not None and used.get(node, 0) + need > limit:
                        stats["capacity_pruned"] += subtree[depth]
                        continue
                combo[depth] = node
                used[node] = used.get(node, 0) + need
                token = (
                    bound_model.apply(depth, node)
                    if bound_model is not None
                    else None
                )
                try:
                    if (
                        bound_model is not None
                        and len(heap) == top_k
                        and bound_model.bound(depth + 1)
                        > -heap[0][0][0] * (1.0 + _BOUND_SLACK)
                    ):
                        stats["bound_pruned"] += subtree[depth]
                    else:
                        walk(depth + 1)
                finally:
                    if bound_model is not None:
                        bound_model.undo(depth, node, token)
                    used[node] -= need

        try:
            walk(0)
        except _BudgetExhausted:
            pass

        if bound_model is None:
            results = sorted(zip(self._price_combos(combos), combos))
            if top_k is not None:
                results = results[:top_k]
        else:
            results = sorted((sec, cmb) for _, sec, cmb in heap)
        stats["slice_pricings"] = self.pricings
        stats["bound_pricings"] = bound_model.pricings if bound_model else 0
        return results, stats


def oracle_search(
    engine,
    phases,
    buffer_sizes,
    candidate_nodes,
    *,
    default_node,
    critical_buffers=None,
    node_capacity=None,
    pus=None,
    top_k=None,
    max_candidates=None,
    prune=True,
):
    """``(candidates, stats)`` as ``search_placements`` returns them, for
    valid arguments."""
    all_buffers = tuple(
        sorted({a.buffer for phase in phases for a in phase.accesses})
    )
    critical = tuple(
        critical_buffers if critical_buffers is not None else all_buffers
    )
    space = OracleSpace(
        engine,
        tuple(phases),
        buffer_sizes,
        tuple(candidate_nodes),
        critical,
        default_node,
        node_capacity,
        pus,
    )
    entries, raw = space.run(top_k=top_k, budget=max_candidates, prune=prune)
    candidates = tuple(
        PlacementCandidate(assignment=tuple(zip(critical, cmb)), seconds=sec)
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
    if not candidates:
        raise ReproError(
            "no feasible placement found"
            + (" within the pricing budget" if stats.truncated else "")
        )
    return candidates, stats
