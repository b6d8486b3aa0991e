"""The phase-pricing engine.

:class:`SimEngine` turns (phase, placement) pairs into time, using the
roofline-style model described in the package docstring.  Everything the
profiler later needs — per-node traffic and stall attribution, per-buffer
miss counts and latency shares — is preserved in the returned
:class:`PhaseTiming`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..hw.spec import MachineSpec, NodeInstance
from ..obs import OBS
from ..topology.build import Topology, build_topology
from .access import KernelPhase, PatternKind, Placement
from .caches import CacheModel, cache_filter
from .memside import memside_filter

__all__ = [
    "NodeTraffic",
    "BufferTiming",
    "PhaseTiming",
    "RunTiming",
    "PreparedPhase",
    "SimEngine",
]


@dataclass
class NodeTraffic:
    """Per-node traffic and time attribution within one phase."""

    node: int
    stream_read_bytes: float = 0.0
    stream_write_bytes: float = 0.0
    random_bytes: float = 0.0
    bw_seconds: float = 0.0       # time this node's traffic needs alone
    stall_seconds: float = 0.0    # latency-chain time paid on this node

    @property
    def total_bytes(self) -> float:
        return self.stream_read_bytes + self.stream_write_bytes + self.random_bytes


@dataclass
class BufferTiming:
    """Per-buffer outcome within one phase."""

    buffer: str
    pattern: PatternKind
    miss_count: float = 0.0
    latency_seconds: float = 0.0
    traffic_bytes: float = 0.0
    nodes: dict[int, float] = field(default_factory=dict)  # node -> fraction
    llc_hit_fraction: float = 0.0


@dataclass
class PhaseTiming:
    """Outcome of pricing one phase."""

    name: str
    threads: int
    seconds: float
    cpu_seconds: float
    latency_seconds: float       # summed serialized-latency component
    bandwidth_seconds: float     # max per-node bandwidth component
    node_traffic: dict[int, NodeTraffic]
    buffer_timings: dict[str, BufferTiming]

    @property
    def bound(self) -> str:
        """What limits this phase: 'bandwidth', 'latency' or 'cpu'."""
        serial = self.latency_seconds + self.cpu_seconds
        if self.bandwidth_seconds >= serial:
            return "bandwidth"
        return "latency" if self.latency_seconds >= self.cpu_seconds else "cpu"


@dataclass
class RunTiming:
    """A sequence of priced phases."""

    phases: list[PhaseTiming] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.phases)

    def merged_node_traffic(self) -> dict[int, NodeTraffic]:
        merged: dict[int, NodeTraffic] = {}
        for phase in self.phases:
            for node, t in phase.node_traffic.items():
                m = merged.setdefault(node, NodeTraffic(node=node))
                m.stream_read_bytes += t.stream_read_bytes
                m.stream_write_bytes += t.stream_write_bytes
                m.random_bytes += t.random_bytes
                m.bw_seconds += t.bw_seconds
                m.stall_seconds += t.stall_seconds
        return merged


@dataclass(frozen=True)
class PreparedPhase:
    """The placement-independent half of pricing one phase.

    :meth:`SimEngine.prepare_phase` hoists everything that does not
    depend on the buffer placement — the cache model for the executing
    PUs, the cache-filtered traffic per access, the CPU term — so a
    search pricing the same phase under thousands of placements pays for
    it once (:meth:`SimEngine.price_prepared` per placement).
    """

    phase: KernelPhase
    pus: tuple[int, ...]
    #: ``(access, cache_filter result)`` per access, in phase order.
    filtered: tuple[tuple, ...]
    cpu_seconds: float


class SimEngine:
    """Prices phases against one machine."""

    def __init__(
        self,
        machine: MachineSpec,
        topology: Topology | None = None,
        *,
        attrs=None,
    ) -> None:
        self.machine = machine
        self.topology = topology or build_topology(machine)
        self._nodes: dict[int, NodeInstance] = {
            n.os_index: n for n in machine.numa_nodes()
        }
        # (node, pus) -> locality-blended (latency, read bw, write bw).
        # Pure in the immutable machine spec; entries are valid for one
        # MemAttrs generation (the watermark below) and evicted wholesale
        # when the generation moves, so a degraded/regenerated attribute
        # store can never serve stale blends.  Unbound engines (attrs is
        # None) keep generation 0 forever — the PR 2 behaviour.
        self._blend_memo: dict[
            tuple[int, tuple[int, ...]], tuple[float, float, float]
        ] = {}
        self._attrs = None
        self._memo_generation = 0
        self._memo_evictions = 0
        if attrs is not None:
            self.bind_attrs(attrs)

    # ------------------------------------------------------------------
    # generation-keyed memo maintenance
    # ------------------------------------------------------------------
    def bind_attrs(self, attrs) -> None:
        """Tie memo validity to a :class:`~repro.core.api.MemAttrs` store.

        Every pricing entry point then checks the store's generation and
        evicts all memoized blends when it moved — e.g. after
        ``degrade_target`` or a topology event.
        """
        self._attrs = attrs
        self._sync_generation()

    def _sync_generation(self) -> int:
        attrs = self._attrs
        if attrs is not None:
            generation = attrs.generation
            if generation != self._memo_generation:
                self._memo_evictions += len(self._blend_memo)
                self._blend_memo.clear()
                self._memo_generation = generation
        return self._memo_generation

    def memo_stats(self) -> dict[str, int]:
        """Memo accounting: current generation, live entries, evictions."""
        return {
            "generation": self._memo_generation,
            "blend_entries": len(self._blend_memo),
            "evictions": self._memo_evictions,
        }

    # ------------------------------------------------------------------
    def prepare_phase(
        self,
        phase: KernelPhase,
        *,
        pus: tuple[int, ...] | None = None,
    ) -> PreparedPhase:
        """Hoist the placement-independent work of pricing ``phase``."""
        if pus is None:
            pus = tuple(range(phase.threads))
        if len(pus) < 1:
            raise SimulationError("phase needs at least one PU")
        cache_model = CacheModel.for_threads(self.topology, pus)
        total_ws = float(sum(a.working_set for a in phase.accesses))
        filtered = tuple(
            (access, cache_filter(
                cache_model, access,
                access.working_set / total_ws if total_ws else 1.0,
            ))
            for access in phase.accesses
        )
        cpu_seconds = (
            phase.cpu_ops / (phase.threads * self.machine.core_ops_per_second)
            if phase.cpu_ops
            else 0.0
        )
        return PreparedPhase(
            phase=phase, pus=pus, filtered=filtered, cpu_seconds=cpu_seconds
        )

    def price_phase(
        self,
        phase: KernelPhase,
        placement: Placement,
        *,
        pus: tuple[int, ...] | None = None,
    ) -> PhaseTiming:
        """Price one phase.

        ``pus`` are the processors executing the phase (used for locality
        and cache capacity); defaults to the first ``phase.threads`` PUs.
        """
        return self.price_prepared(self.prepare_phase(phase, pus=pus), placement)

    def price_prepared(
        self, prepared: PreparedPhase, placement: Placement
    ) -> PhaseTiming:
        """Price a :class:`PreparedPhase` under one placement."""
        self._sync_generation()
        if OBS.enabled:
            OBS.metrics.counter("sim.pricings").inc()
        phase = prepared.phase
        pus = prepared.pus
        threads = phase.threads
        splits = [placement.of(access.buffer) for access, _ in prepared.filtered]

        node_traffic: dict[int, NodeTraffic] = {}
        buffer_timings: dict[str, BufferTiming] = {}

        # Working set landing on each node (for write-buffer / TLB terms).
        node_ws: dict[int, float] = {}
        node_write_ws: dict[int, float] = {}
        for (access, _), split in zip(prepared.filtered, splits):
            ws = access.working_set
            written = access.bytes_written > 0
            for node, frac in split.items():
                node_ws[node] = node_ws.get(node, 0.0) + ws * frac
                if written:
                    node_write_ws[node] = node_write_ws.get(node, 0.0) + ws * frac

        # The loaded latency of a node is fixed for the whole phase (it
        # depends on the node's total working set, not on which access is
        # paying it), so resolve it at most once per node.
        lat_memo: dict[int, float] = {}

        for (access, filtered), split in zip(prepared.filtered, splits):
            pattern = access.pattern
            bt = BufferTiming(
                buffer=access.buffer,
                pattern=pattern,
                miss_count=filtered.miss_count,
                traffic_bytes=filtered.memory_read_bytes + filtered.memory_write_bytes,
                llc_hit_fraction=filtered.hit_fraction,
            )
            latency_bound = pattern.is_latency_bound
            if latency_bound:
                cpu_mlp = pattern.cpu_mlp
            for node, frac in split.items():
                bt.nodes[node] = frac
                nt = node_traffic.get(node)
                if nt is None:
                    nt = node_traffic[node] = NodeTraffic(node=node)
                if latency_bound:
                    nt.random_bytes += bt.traffic_bytes * frac
                    lat = lat_memo.get(node)
                    if lat is None:
                        lat = self._node_latency(node, pus, node_ws[node])
                        lat_memo[node] = lat
                    mlp = threads * min(cpu_mlp, self._nodes[node].tech.max_mlp)
                    lat_time = filtered.miss_count * frac * lat / mlp
                    bt.latency_seconds += lat_time
                    nt.stall_seconds += lat_time
                else:
                    nt.stream_read_bytes += filtered.memory_read_bytes * frac
                    nt.stream_write_bytes += filtered.memory_write_bytes * frac
            buffer_timings[access.buffer] = bt

        # Per-node bandwidth time.
        for node, nt in node_traffic.items():
            _, rbw, wbw = self._node_bandwidths(
                node, pus, node_ws[node], node_write_ws.get(node, 0.0), threads
            )
            inst = self._nodes[node]
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

    def _price_access_alone(
        self, prepared: PreparedPhase, index: int, node: int
    ) -> tuple[float, float]:
        """Price access ``index`` of ``prepared`` as if it sat alone on ``node``.

        Returns ``(latency_seconds, bandwidth_seconds)``: the access's
        contribution to the phase's latency chain and to ``node``'s
        bandwidth time when no other buffer shares the node.  Because the
        access keeps its real cache share (miss counts match the full
        phase) while the node sees only this buffer's working set (its
        loaded latency is lowest, its bandwidth highest), each term is a
        lower bound on the access's contribution in *any* complete
        placement — the building block of the placement search's
        branch-and-bound (docs/MODEL.md §7).
        """
        self._sync_generation()
        access, filtered = prepared.filtered[index]
        pus = prepared.pus
        threads = prepared.phase.threads
        ws = float(access.working_set)
        write_ws = ws if access.bytes_written > 0 else 0.0
        inst = self._instance(node)
        lat_seconds = 0.0
        if access.pattern.is_latency_bound:
            lat = self._node_latency(node, pus, ws)
            mlp = threads * min(access.pattern.cpu_mlp, inst.tech.max_mlp)
            lat_seconds = filtered.miss_count * lat / mlp
            random_bytes = filtered.memory_read_bytes + filtered.memory_write_bytes
            stream_read = stream_write = 0.0
        else:
            random_bytes = 0.0
            stream_read = filtered.memory_read_bytes
            stream_write = filtered.memory_write_bytes
        _, rbw, wbw = self._node_bandwidths(node, pus, ws, write_ws, threads)
        random_bw = min(rbw, wbw) * inst.tech.random_bandwidth_fraction
        bw_seconds = (
            stream_read / rbw + stream_write / wbw + random_bytes / random_bw
        )
        return lat_seconds, bw_seconds

    def price_run(
        self,
        phases,
        placement: Placement,
        *,
        pus: tuple[int, ...] | None = None,
    ) -> RunTiming:
        """Price a sequence of phases under one placement."""
        if not OBS.enabled:
            run = RunTiming()
            for phase in phases:
                run.phases.append(self.price_phase(phase, placement, pus=pus))
            return run
        with OBS.tracer.span("sim.price_run") as span:
            run = RunTiming()
            for phase in phases:
                run.phases.append(self.price_phase(phase, placement, pus=pus))
            span.fields.update(phases=len(run.phases), seconds=run.seconds)
            return run

    # ------------------------------------------------------------------
    # node performance resolution
    # ------------------------------------------------------------------
    def _instance(self, node: int) -> NodeInstance:
        try:
            return self._nodes[node]
        except KeyError:
            raise SimulationError(f"unknown NUMA node {node}") from None

    def _blended_performance(
        self, inst: NodeInstance, pus: tuple[int, ...]
    ) -> tuple[float, float, float]:
        """Locality-weighted performance when the executing PUs straddle
        locality domains (e.g. an interleaved app spanning two packages):
        latency averages arithmetically, bandwidths harmonically, weighted
        by the PU distribution over locality classes.

        Memoized per (node, pus) for the engine's lifetime: the blend is
        pure in the immutable machine spec, and pricing hot loops resolve
        the same (node, pus) pair once per access otherwise."""
        key = (inst.os_index, pus)
        cached = self._blend_memo.get(key)
        if cached is not None:
            return cached
        classes: dict[str, int] = {}
        for pu in pus:
            cls = self.machine.locality_class(pu, inst)
            classes[cls] = classes.get(cls, 0) + 1
        total = len(pus)
        if len(classes) == 1:
            result = self.machine.access_performance(pus[0], inst, loaded=True)
            self._blend_memo[key] = result
            return result
        lat = inv_r = inv_w = 0.0
        for cls, count in classes.items():
            rep = next(
                pu for pu in pus if self.machine.locality_class(pu, inst) == cls
            )
            c_lat, c_rbw, c_wbw = self.machine.access_performance(
                rep, inst, loaded=True
            )
            weight = count / total
            lat += weight * c_lat
            inv_r += weight / c_rbw
            inv_w += weight / c_wbw
        result = (lat, 1.0 / inv_r, 1.0 / inv_w)
        self._blend_memo[key] = result
        return result

    def _node_latency(
        self, node: int, pus: tuple[int, ...], working_set: float
    ) -> float:
        inst = self._instance(node)
        base_lat, base_rbw, base_wbw = self._blended_performance(inst, pus)
        lat = inst.tech.effective_latency(int(working_set)) * (
            base_lat / inst.tech.loaded_latency
        )
        effect = memside_filter(
            inst,
            int(working_set),
            base_latency=lat,
            base_read_bw=base_rbw,
            base_write_bw=base_wbw,
        )
        return effect.latency

    def _node_bandwidths(
        self,
        node: int,
        pus: tuple[int, ...],
        working_set: float,
        write_working_set: float,
        threads: int,
    ) -> tuple[float, float, float]:
        inst = self._instance(node)
        base_lat, base_rbw, base_wbw = self._blended_performance(inst, pus)
        # Write-buffer collapse (NVDIMM) applies to the locality-adjusted
        # write bandwidth proportionally.
        eff_w = inst.tech.effective_write_bandwidth(int(write_working_set))
        base_wbw = base_wbw * (eff_w / inst.tech.peak_write_bandwidth)
        effect = memside_filter(
            inst,
            int(working_set),
            base_latency=base_lat,
            base_read_bw=base_rbw,
            base_write_bw=base_wbw,
        )
        scale = min(1.0, threads / inst.tech.saturation_threads)
        return (
            effect.latency,
            effect.read_bandwidth * scale,
            effect.write_bandwidth * scale,
        )
