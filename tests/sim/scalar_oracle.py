"""Frozen scalar references for the pricing engine.

:func:`price_prepared` is the scalar pricer as it was before the
production one stopped building a throwaway ``NodeTraffic`` per (access,
node), read pattern traits once per access and looked ``cpu_mlp`` up in
a module table.  Differential tests compare every :class:`PhaseTiming`
field of the production pricer against it.

:func:`price_access_alone` is the single-access pricing the placement
search's bound tables read; ``SimEngine._price_access_alone`` must equal
it cell by cell.

The node-resolution helpers (``_node_latency``, ``_node_bandwidths``)
are the engine's own.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim import PatternKind
from repro.sim.engine import BufferTiming, NodeTraffic, PhaseTiming


def _cpu_mlp(pattern: PatternKind) -> float:
    return {
        PatternKind.STREAM: 16.0,
        PatternKind.STRIDED: 12.0,
        PatternKind.RANDOM: 8.0,
        PatternKind.POINTER_CHASE: 1.0,
    }[pattern]


def price_prepared(engine, prepared, placement) -> PhaseTiming:
    """``engine.price_prepared(prepared, placement)``, frozen."""
    phase = prepared.phase
    pus = prepared.pus
    threads = phase.threads

    node_traffic: dict[int, NodeTraffic] = {}
    buffer_timings: dict[str, BufferTiming] = {}

    node_ws: dict[int, float] = {}
    node_write_ws: dict[int, float] = {}
    for access in phase.accesses:
        for node, frac in placement.of(access.buffer).items():
            node_ws[node] = node_ws.get(node, 0.0) + access.working_set * frac
            if access.bytes_written > 0:
                node_write_ws[node] = (
                    node_write_ws.get(node, 0.0) + access.working_set * frac
                )

    lat_memo: dict[int, float] = {}

    for access, filtered in prepared.filtered:
        bt = BufferTiming(
            buffer=access.buffer,
            pattern=access.pattern,
            miss_count=filtered.miss_count,
            traffic_bytes=filtered.memory_read_bytes + filtered.memory_write_bytes,
            llc_hit_fraction=filtered.hit_fraction,
        )
        for node, frac in placement.of(access.buffer).items():
            bt.nodes[node] = frac
            nt = node_traffic.setdefault(node, NodeTraffic(node=node))
            if access.pattern.is_latency_bound:
                nt.random_bytes += bt.traffic_bytes * frac
                lat = lat_memo.get(node)
                if lat is None:
                    lat = engine._node_latency(node, pus, node_ws.get(node, 0.0))
                    lat_memo[node] = lat
                inst = engine._nodes[node]
                mlp = threads * min(_cpu_mlp(access.pattern), inst.tech.max_mlp)
                lat_time = filtered.miss_count * frac * lat / mlp
                bt.latency_seconds += lat_time
                nt.stall_seconds += lat_time
            else:
                nt.stream_read_bytes += filtered.memory_read_bytes * frac
                nt.stream_write_bytes += filtered.memory_write_bytes * frac
        buffer_timings[access.buffer] = bt

    for node, nt in node_traffic.items():
        lat, rbw, wbw = engine._node_bandwidths(
            node, pus, node_ws.get(node, 0.0), node_write_ws.get(node, 0.0),
            threads,
        )
        inst = engine._nodes[node]
        random_bw = min(rbw, wbw) * inst.tech.random_bandwidth_fraction
        nt.bw_seconds = (
            nt.stream_read_bytes / rbw
            + nt.stream_write_bytes / wbw
            + nt.random_bytes / random_bw
        )

    cpu_seconds = prepared.cpu_seconds
    latency_seconds = sum(bt.latency_seconds for bt in buffer_timings.values())
    bandwidth_seconds = max(
        (nt.bw_seconds for nt in node_traffic.values()), default=0.0
    )
    seconds = max(bandwidth_seconds, latency_seconds + cpu_seconds)
    if seconds <= 0:
        raise SimulationError(f"phase {phase.name!r} priced to zero time")

    return PhaseTiming(
        name=phase.name,
        threads=threads,
        seconds=seconds,
        cpu_seconds=cpu_seconds,
        latency_seconds=latency_seconds,
        bandwidth_seconds=bandwidth_seconds,
        node_traffic=node_traffic,
        buffer_timings=buffer_timings,
    )


def price_access_alone(engine, prepared, index, node) -> tuple[float, float]:
    """One prepared access priced as if it sat alone on ``node``.

    Returns ``(latency_seconds, bandwidth_seconds)``: the access keeps
    its real cache share while ``node`` sees only its working set.
    """
    access, filtered = prepared.filtered[index]
    pus = prepared.pus
    threads = prepared.phase.threads
    ws = float(access.working_set)
    write_ws = ws if access.bytes_written > 0 else 0.0
    inst = engine._instance(node)
    lat_seconds = 0.0
    if access.pattern.is_latency_bound:
        lat = engine._node_latency(node, pus, ws)
        mlp = threads * min(access.pattern.cpu_mlp, inst.tech.max_mlp)
        lat_seconds = filtered.miss_count * lat / mlp
        random_bytes = filtered.memory_read_bytes + filtered.memory_write_bytes
        stream_read = stream_write = 0.0
    else:
        random_bytes = 0.0
        stream_read = filtered.memory_read_bytes
        stream_write = filtered.memory_write_bytes
    _, rbw, wbw = engine._node_bandwidths(node, pus, ws, write_ws, threads)
    random_bw = min(rbw, wbw) * inst.tech.random_bandwidth_fraction
    bw_seconds = (
        stream_read / rbw + stream_write / wbw + random_bytes / random_bw
    )
    return lat_seconds, bw_seconds
