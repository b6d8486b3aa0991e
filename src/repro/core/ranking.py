"""Target ranking helpers.

Thin functional layer over :meth:`MemAttrs.rank_targets` adding the
secondary-criterion composition the paper describes in §III-B2: when the
primary attribute ties (KNL: DRAM and HBM latencies are similar), break
the tie with another attribute (capacity — don't burn scarce HBM when it
buys nothing).

Nothing here is memoized: the heterogeneous allocator lands here only
when it builds an allocation plan, the memo of each request's ranking.
"""

from __future__ import annotations

from ..errors import NoTargetError
from .api import MemAttrs, TargetValue
from .attrs import MemAttribute

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

    primary = memattrs.rank_targets(attr, targets, initiator)
    if tie_attr is None or len(primary) < 2:
        return primary
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
    return tuple(out)


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
