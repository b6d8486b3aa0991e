"""Target ranking helpers.

Thin functional layer over :meth:`MemAttrs.rank_targets` adding the
secondary-criterion composition the paper describes in §III-B2: when the
primary attribute ties (KNL: DRAM and HBM latencies are similar), break
the tie with another attribute (capacity — don't burn scarce HBM when it
buys nothing).

Composed rankings are memoized in the owning :class:`MemAttrs`' query
cache (family ``"rank_tiebreak"``), keyed by its generation — the
heterogeneous allocator's ``rank_for`` lands here whenever it builds an
allocation plan.
"""

from __future__ import annotations

from ..errors import NoTargetError, TopologyError, UnknownAttributeError
from ..topology.traversal import as_cpuset
from .api import MemAttrs, TargetValue
from .attrs import MemAttribute
from .querycache import MISSING

__all__ = ["rank_targets", "best_target_with_tiebreak"]


def rank_targets(
    memattrs: MemAttrs,
    attr: MemAttribute | str,
    initiator=None,
    *,
    targets=None,
    tie_attr: MemAttribute | str | None = None,
    tie_tolerance: float = 0.0,
) -> tuple[TargetValue, ...]:
    """Rank targets by ``attr``; optionally re-rank near-ties by ``tie_attr``.

    Two values tie when they differ by at most ``tie_tolerance`` (relative,
    e.g. ``0.1`` = 10%).  Tied runs are reordered best-first by
    ``tie_attr``.
    """
    if targets is None:
        if initiator is None:
            targets = memattrs.topology.numanodes()
        else:
            targets = memattrs.get_local_numanode_objs(initiator)
    else:
        targets = tuple(targets)
    cache_key = _tiebreak_cache_key(
        memattrs, attr, initiator, targets, tie_attr, tie_tolerance
    )
    if cache_key is not None:
        cached = memattrs.query_cache.get("rank_tiebreak", cache_key)
        if cached is not MISSING:
            return cached

    primary = memattrs.rank_targets(attr, targets, initiator)
    if tie_attr is None or len(primary) < 2:
        result = primary
    else:
        out: list[TargetValue] = []
        i = 0
        while i < len(primary):
            j = i + 1
            while j < len(primary) and _ties(
                primary[i].value, primary[j].value, tie_tolerance
            ):
                j += 1
            run = list(primary[i:j])
            if len(run) > 1:
                rerank = memattrs.rank_targets(
                    tie_attr, [tv.target for tv in run], initiator
                )
                reranked_targets = [tv.target for tv in rerank]
                # Targets lacking the tie attribute keep their primary position
                # at the end of the run.
                missing = [tv for tv in run if tv.target not in reranked_targets]
                by_target = {tv.target: tv for tv in run}
                run = [by_target[t] for t in reranked_targets] + missing
            out.extend(run)
            i = j
        # Re-ranking within tied runs never moves a strictly-better primary
        # value below a strictly-worse one.
        assert len(out) == len(primary)
        result = tuple(out)

    if cache_key is not None:
        memattrs.query_cache.store("rank_tiebreak", cache_key, result)
    return result


def _tiebreak_cache_key(
    memattrs: MemAttrs,
    attr: MemAttribute | str,
    initiator,
    targets: tuple,
    tie_attr: MemAttribute | str | None,
    tie_tolerance: float,
):
    """Key for one composed ranking, or ``None`` when the query is
    malformed / uncacheable — the uncached path then raises exactly as
    it always did."""
    try:
        primary = memattrs.get_by_name(
            attr if isinstance(attr, str) else attr.name
        )
        tie = (
            memattrs.get_by_name(
                tie_attr if isinstance(tie_attr, str) else tie_attr.name
            )
            if tie_attr is not None
            else None
        )
    except UnknownAttributeError:
        return None
    needs_initiator = primary.needs_initiator or (
        tie is not None and tie.needs_initiator
    )
    if initiator is None:
        if needs_initiator:
            return None
        init_key = None
    else:
        try:
            init_key = as_cpuset(
                memattrs.topology, initiator, cache=memattrs.query_cache
            )
        except TopologyError:
            return None
    return (
        memattrs.generation,
        primary.id,
        None if tie is None else tie.id,
        float(tie_tolerance),
        tuple(id(t) for t in targets),
        init_key,
    )


def _ties(a: float, b: float, tolerance: float) -> bool:
    if tolerance <= 0:
        return a == b
    scale = max(abs(a), abs(b))
    return scale == 0 or abs(a - b) <= tolerance * scale


def best_target_with_tiebreak(
    memattrs: MemAttrs,
    attr: MemAttribute | str,
    initiator,
    *,
    tie_attr: MemAttribute | str | None = None,
    tie_tolerance: float = 0.1,
) -> TargetValue:
    """Best local target with near-tie resolution (§III-B2's KNL case)."""
    ranked = rank_targets(
        memattrs,
        attr,
        initiator,
        tie_attr=tie_attr,
        tie_tolerance=tie_tolerance,
    )
    if not ranked:
        raise NoTargetError(
            f"no local target carries a value for {attr!r}"
        )
    return ranked[0]
