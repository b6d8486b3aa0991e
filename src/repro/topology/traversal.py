"""Topology traversal helpers.

Implements the first function of the paper's Fig. 4:
``hwloc_get_local_numanode_objs(topology, initiator, &nr, &targets)`` —
find the memory targets local to an initiator — plus generic helpers used
throughout the library.
"""

from __future__ import annotations

import enum

from ..errors import TopologyError
from .bitmap import Bitmap
from .build import Topology
from .objects import ObjType, TopoObject

__all__ = [
    "LocalNumanodeFlags",
    "as_cpuset",
    "get_local_numanode_objs",
    "objs_by_type",
    "find_covering_object",
]


class LocalNumanodeFlags(enum.Flag):
    """Flags mirroring ``hwloc_local_numanode_flag_e``.

    * ``EXACT`` (no flags in hwloc): nodes whose locality equals the
      initiator's cpuset.
    * ``LARGER``: also nodes whose locality *contains* the initiator
      (a PU finds its Group/Package/Machine-level nodes).
    * ``SMALLER``: also nodes whose locality is *contained in* the
      initiator (a Package finds its SubNUMA-cluster nodes).
    * ``ALL``: every node in the topology.
    """

    EXACT = 0
    LARGER = enum.auto()
    SMALLER = enum.auto()
    ALL = enum.auto()

    @classmethod
    def default(cls) -> "LocalNumanodeFlags":
        """LARGER|SMALLER: what the paper's allocation flow needs — all
        nodes an initiator can consider local (its own cluster's, its
        package's, and machine-wide ones)."""
        return cls.LARGER | cls.SMALLER


#: Each topology memo stops growing at this many answers; later misses
#: are answered uncached.  Hashable initiators include arbitrary PU
#: tuples, so without a bound a long-lived topology could grow without
#: limit.
_MEMO_MAX = 4096


def as_cpuset(topology: Topology, initiator) -> Bitmap:
    """Coerce an initiator (Bitmap, TopoObject, PU index, or iterable of
    PU indices) into a cpuset — initiators in the paper's API are either
    CPU-sets or specific objects.

    The normalization depends only on the immutable topology, so answers
    for hashable initiators are memoized on the :class:`Topology`.
    """
    if isinstance(initiator, Bitmap):
        return initiator
    memo = topology._cpusets
    try:
        cpuset = memo.get(initiator)
    except TypeError:  # unhashable initiator (e.g. a list of PUs)
        return _as_cpuset_uncached(topology, initiator)
    if cpuset is None:
        cpuset = _as_cpuset_uncached(topology, initiator)
        if len(memo) < _MEMO_MAX:
            memo[initiator] = cpuset
    return cpuset


def _as_cpuset_uncached(topology: Topology, initiator) -> Bitmap:
    if isinstance(initiator, TopoObject):
        if initiator.cpuset.is_empty():
            raise TopologyError(f"{initiator.label} has an empty cpuset")
        return initiator.cpuset
    if isinstance(initiator, int):
        if not topology.complete_cpuset.isset(initiator):
            raise TopologyError(f"PU {initiator} not in topology")
        return Bitmap([initiator])
    try:
        return Bitmap(initiator)
    except TypeError:
        raise TopologyError(
            f"cannot interpret initiator {initiator!r} as a cpuset"
        ) from None


def get_local_numanode_objs(
    topology: Topology,
    initiator,
    flags: LocalNumanodeFlags | None = None,
) -> tuple[TopoObject, ...]:
    """Memory targets local to ``initiator`` (paper Fig. 4, first call).

    Results are ordered by logical index, like hwloc.  Locality depends
    only on the immutable topology, so the answer is memoized on the
    :class:`Topology`, keyed by the normalized cpuset and flags.
    """
    cpuset = as_cpuset(topology, initiator)
    if cpuset.is_empty():
        raise TopologyError("initiator cpuset is empty")
    flags = LocalNumanodeFlags.default() if flags is None else flags
    memo = topology._local_nodes
    result = memo.get((cpuset, flags))
    if result is not None:
        return result

    out = []
    for node in topology.numanodes():
        if flags & LocalNumanodeFlags.ALL:
            out.append(node)
            continue
        locality = node.cpuset
        if locality == cpuset:
            out.append(node)
        elif flags & LocalNumanodeFlags.LARGER and locality.includes(cpuset):
            out.append(node)
        elif flags & LocalNumanodeFlags.SMALLER and cpuset.includes(locality):
            out.append(node)
    result = tuple(out)
    if len(memo) < _MEMO_MAX:
        memo[(cpuset, flags)] = result
    return result


def objs_by_type(topology: Topology, type: ObjType) -> tuple[TopoObject, ...]:
    """All objects of one type (thin alias kept for API parity)."""
    return topology.objs(type)


def find_covering_object(
    topology: Topology, cpuset: Bitmap, type: ObjType
) -> TopoObject:
    """Smallest object of ``type`` whose cpuset covers ``cpuset``."""
    best: TopoObject | None = None
    for obj in topology.objs(type):
        if obj.cpuset.includes(cpuset):
            if best is None or best.cpuset.weight() > obj.cpuset.weight():
                best = obj
    if best is None:
        raise TopologyError(
            f"no {type.value} covers cpuset {cpuset.to_list_syntax()!r}"
        )
    return best
