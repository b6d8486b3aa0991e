"""Memory-side cache filtering (KNL Cache/Hybrid, Xeon 2LM).

A memory-side cache sits *in front of* a NUMA node and is transparent to
software: traffic that hits it runs at the cache technology's speed, the
rest pays the backing store (plus a small lookup penalty).  The paper
(§VIII) points out that attribute values do **not** include memory-side
caches — which is exactly why application-observed performance can differ
from the attributes; this module is what creates that observable
difference in our experiments.

The hit model is occupancy-based with a direct-mapped conflict penalty:
``hit = conflict_factor * min(1, size / working_set)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..hw.spec import MemsideCacheSpec, NodeInstance

__all__ = ["MemsideEffect", "memside_filter"]

#: Direct-mapped caches suffer conflict misses even when the working set
#: fits; set-associative ones barely do.
_DIRECT_MAPPED_FACTOR = 0.90
_ASSOCIATIVE_FACTOR = 0.98

#: A memory-side-cache miss costs more than a plain backing access: the
#: line is filled into the cache and a victim may be written back, so the
#: effective backing bandwidth of the miss stream is derated.  This is
#: what makes KNL Cache mode *lose* to tuned Flat mode once the working
#: set exceeds MCDRAM (§II-A).
_MISS_BANDWIDTH_FACTOR = 0.70


@dataclass(frozen=True)
class MemsideEffect:
    """Effective performance of a node seen through its memory-side cache."""

    hit_rate: float
    latency: float          # blended average access latency (seconds)
    read_bandwidth: float   # blended streaming read bandwidth (bytes/s)
    write_bandwidth: float  # blended streaming write bandwidth (bytes/s)


def memside_filter(
    node: NodeInstance,
    working_set: int,
    *,
    base_latency: float,
    base_read_bw: float,
    base_write_bw: float,
) -> MemsideEffect:
    """Blend cache-tier and backing-tier performance for one working set.

    ``base_*`` are the backing node's figures (already adjusted for
    locality and load); nodes without a memory-side cache pass through
    unchanged with ``hit_rate = 0``.
    """
    if working_set < 0:
        raise SimulationError("working_set must be non-negative")
    cache: MemsideCacheSpec | None = node.spec.memside_cache
    if cache is None:
        return MemsideEffect(
            hit_rate=0.0,
            latency=base_latency,
            read_bandwidth=base_read_bw,
            write_bandwidth=base_write_bw,
        )

    factor = (
        _DIRECT_MAPPED_FACTOR if cache.associativity == 1 else _ASSOCIATIVE_FACTOR
    )
    occupancy = min(1.0, cache.size / working_set) if working_set else 1.0
    hit = factor * occupancy

    # A miss pays the cache lookup (tag check in the cache tier) plus the
    # backing access.
    miss_latency = base_latency + 0.15 * cache.hit_latency
    latency = hit * cache.hit_latency + (1.0 - hit) * miss_latency

    def blend_bw(cache_bw: float, backing_bw: float) -> float:
        inv = hit / cache_bw + (1.0 - hit) / (backing_bw * _MISS_BANDWIDTH_FACTOR)
        return 1.0 / inv

    return MemsideEffect(
        hit_rate=hit,
        latency=latency,
        read_bandwidth=blend_bw(cache.hit_bandwidth, base_read_bw),
        write_bandwidth=blend_bw(cache.hit_bandwidth, base_write_bw),
    )
