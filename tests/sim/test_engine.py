"""Engine pricing tests: roofline behaviour, locality, contention, splits."""

import pytest

from repro.core import native_discovery
from repro.errors import SimulationError
from repro.hw.platforms import xeon_cascadelake_1lm
from repro.sim import (
    BufferAccess,
    KernelPhase,
    PatternKind,
    Placement,
    SimEngine,
)
from repro.topology import build_topology
from repro.units import GB, GiB, MiB


def stream_phase(nbytes, threads=20, name="s"):
    return KernelPhase(
        name=name,
        threads=threads,
        accesses=(
            BufferAccess(
                buffer="buf",
                pattern=PatternKind.STREAM,
                bytes_read=nbytes,
                working_set=nbytes,
            ),
        ),
    )


def chase_phase(ws, accesses=1 << 16, threads=1):
    return KernelPhase(
        name="chase",
        threads=threads,
        accesses=(
            BufferAccess(
                buffer="buf",
                pattern=PatternKind.POINTER_CHASE,
                bytes_read=accesses * 8,
                working_set=ws,
            ),
        ),
    )


class TestRoofline:
    def test_stream_is_bandwidth_bound(self, xeon_engine):
        t = xeon_engine.price_phase(
            stream_phase(4 * GB), Placement.single(buf=0), pus=tuple(range(40))
        )
        assert t.bound == "bandwidth"
        assert t.seconds == pytest.approx(t.bandwidth_seconds)

    def test_chase_is_latency_bound(self, xeon_engine):
        t = xeon_engine.price_phase(
            chase_phase(4 * GB), Placement.single(buf=0), pus=(0,)
        )
        assert t.bound == "latency"

    def test_cpu_bound_phase(self, xeon_engine):
        phase = KernelPhase(
            name="compute",
            threads=1,
            cpu_ops=10**10,
            accesses=(
                BufferAccess(
                    buffer="buf",
                    pattern=PatternKind.STREAM,
                    bytes_read=1 * MiB,
                    working_set=1 * MiB,
                ),
            ),
        )
        t = xeon_engine.price_phase(phase, Placement.single(buf=0), pus=(0,))
        assert t.bound == "cpu"

    def test_chase_latency_matches_tech(self, xeon_engine, xeon):
        """Per-access chase time on a huge DRAM table ≈ loaded latency."""
        n = 1 << 16
        t = xeon_engine.price_phase(
            chase_phase(2 * GB, accesses=n), Placement.single(buf=0), pus=(0,)
        )
        per_access = t.seconds / n
        assert per_access == pytest.approx(285e-9, rel=0.10)


class TestBandwidthBehaviour:
    def test_dram_stream_at_peak(self, xeon_engine):
        nbytes = 8 * GB
        t = xeon_engine.price_phase(
            stream_phase(nbytes), Placement.single(buf=0), pus=tuple(range(40))
        )
        assert nbytes / t.seconds == pytest.approx(76e9, rel=0.05)

    def test_few_threads_cannot_saturate(self, xeon_engine):
        nbytes = 8 * GB
        t1 = xeon_engine.price_phase(
            stream_phase(nbytes, threads=1), Placement.single(buf=0), pus=(0,)
        )
        t20 = xeon_engine.price_phase(
            stream_phase(nbytes, threads=20), Placement.single(buf=0),
            pus=tuple(range(40)),
        )
        assert t1.seconds > t20.seconds * 4

    def test_remote_access_slower(self, xeon_engine):
        nbytes = 8 * GB
        local = xeon_engine.price_phase(
            stream_phase(nbytes), Placement.single(buf=0), pus=tuple(range(40))
        )
        remote = xeon_engine.price_phase(
            stream_phase(nbytes), Placement.single(buf=1), pus=tuple(range(40))
        )
        assert remote.seconds > local.seconds * 1.5

    def test_nvdimm_write_collapse(self, xeon_engine):
        def write_phase(nbytes):
            return KernelPhase(
                name="w",
                threads=20,
                accesses=(
                    BufferAccess(
                        buffer="buf",
                        pattern=PatternKind.STREAM,
                        bytes_written=nbytes,
                        working_set=nbytes,
                    ),
                ),
            )
        small = xeon_engine.price_phase(
            write_phase(4 * GB), Placement.single(buf=2), pus=tuple(range(40))
        )
        large = xeon_engine.price_phase(
            write_phase(64 * GB), Placement.single(buf=2), pus=tuple(range(40))
        )
        bw_small = 4 * GB / small.seconds
        bw_large = 64 * GB / large.seconds
        assert bw_small > bw_large * 3


class TestSplitPlacement:
    def test_split_between_dram_and_nvdimm(self, xeon_engine):
        nbytes = 8 * GB
        phase = stream_phase(nbytes)
        split = Placement({"buf": {0: 0.5, 2: 0.5}})
        t = xeon_engine.price_phase(phase, split, pus=tuple(range(40)))
        t_dram = xeon_engine.price_phase(
            phase, Placement.single(buf=0), pus=tuple(range(40))
        )
        t_nvd = xeon_engine.price_phase(
            phase, Placement.single(buf=2), pus=tuple(range(40))
        )
        # §VII: hybrid allocations run between the two pure placements,
        # dominated by the slower part.
        assert t_dram.seconds < t.seconds <= t_nvd.seconds

    def test_traffic_attributed_per_node(self, xeon_engine):
        phase = stream_phase(8 * GB)
        split = Placement({"buf": {0: 0.25, 2: 0.75}})
        t = xeon_engine.price_phase(phase, split, pus=tuple(range(40)))
        r0 = t.node_traffic[0].stream_read_bytes
        r2 = t.node_traffic[2].stream_read_bytes
        assert r2 == pytest.approx(3 * r0)


class TestMemsideCachedPlatform:
    def test_2lm_fast_when_fits_cache(self):
        from repro.hw import get_platform
        m = get_platform("xeon-cascadelake-2lm")
        eng = SimEngine(m)
        small = eng.price_phase(
            stream_phase(8 * GB), Placement.single(buf=0), pus=tuple(range(40))
        )
        big = eng.price_phase(
            stream_phase(500 * GB), Placement.single(buf=0), pus=tuple(range(40))
        )
        bw_small = 8 * GB / small.seconds
        bw_big = 500 * GB / big.seconds
        assert bw_small > bw_big * 1.5


class TestBookkeeping:
    def test_phase_timing_fields(self, xeon_engine):
        t = xeon_engine.price_phase(
            stream_phase(1 * GB), Placement.single(buf=0), pus=tuple(range(40))
        )
        assert t.name == "s"
        assert t.threads == 20
        assert "buf" in t.buffer_timings
        assert 0 in t.node_traffic

    def test_price_run_sums(self, xeon_engine):
        phases = [stream_phase(1 * GB, name=f"p{i}") for i in range(3)]
        run = xeon_engine.price_run(phases, Placement.single(buf=0), pus=(0,))
        assert run.seconds == pytest.approx(
            sum(p.seconds for p in run.phases)
        )
        merged = run.merged_node_traffic()
        assert merged[0].stream_read_bytes == pytest.approx(3 * GB)

    def test_unknown_node_raises(self, xeon_engine):
        with pytest.raises(SimulationError):
            xeon_engine.price_phase(
                stream_phase(GB), Placement.single(buf=42), pus=(0,)
            )

    def test_empty_pus_raises(self, xeon_engine):
        with pytest.raises(SimulationError):
            xeon_engine.price_phase(stream_phase(GB), Placement.single(buf=0), pus=())


def mixed_phase(threads=16):
    return KernelPhase(
        name="mixed",
        threads=threads,
        accesses=(
            BufferAccess(
                buffer="a", pattern=PatternKind.STREAM,
                bytes_read=512 * MiB, bytes_written=128 * MiB,
                working_set=512 * MiB,
            ),
            BufferAccess(
                buffer="b", pattern=PatternKind.RANDOM,
                bytes_read=64 * MiB, working_set=256 * MiB, hot_fraction=0.4,
            ),
            BufferAccess(
                buffer="c", pattern=PatternKind.POINTER_CHASE,
                bytes_read=8 * MiB, working_set=128 * MiB,
            ),
        ),
    )


class TestBatchPricing:
    """The prepared/batch path must be bit-identical to price_phase."""

    def test_price_phase_many_bit_identical(self, xeon_engine):
        """One phase under many placements: a prepared phase priced in a
        loop equals per-placement price_phase calls."""
        phase = mixed_phase()
        pus = tuple(range(40))
        placements = [
            Placement.single(a=a, b=b, c=c)
            for a in (0, 2) for b in (0, 2) for c in (0, 2)
        ]
        prepared = xeon_engine.prepare_phase(phase, pus=pus)
        for placement in placements:
            timing = xeon_engine.price_prepared(prepared, placement)
            single = xeon_engine.price_phase(phase, placement, pus=pus)
            assert timing.seconds == single.seconds          # exact, not approx
            assert timing.latency_seconds == single.latency_seconds
            assert timing.bandwidth_seconds == single.bandwidth_seconds
            assert timing.cpu_seconds == single.cpu_seconds

    def test_prepared_phase_reusable(self, xeon_engine):
        phase = mixed_phase()
        pus = tuple(range(40))
        prepared = xeon_engine.prepare_phase(phase, pus=pus)
        t1 = xeon_engine.price_prepared(prepared, Placement.single(a=0, b=0, c=0))
        t2 = xeon_engine.price_prepared(prepared, Placement.single(a=2, b=2, c=2))
        t3 = xeon_engine.price_prepared(prepared, Placement.single(a=0, b=0, c=0))
        assert t1.seconds == t3.seconds
        assert t1.seconds != t2.seconds

    def test_prepare_rejects_empty_pus(self, xeon_engine):
        with pytest.raises(SimulationError):
            xeon_engine.prepare_phase(mixed_phase(), pus=())

    def test_price_access_alone_below_full_pricing(self, xeon_engine):
        """The bound building block: an access alone on a node costs no
        more than its share of any full-phase pricing."""
        phase = mixed_phase()
        pus = tuple(range(40))
        prepared = xeon_engine.prepare_phase(phase, pus=pus)
        for node in (0, 2):
            full = xeon_engine.price_phase(
                phase, Placement.single(a=node, b=node, c=node), pus=pus
            )
            lat_sum = 0.0
            bw_sum = 0.0
            for i in range(len(phase.accesses)):
                lat, bw = xeon_engine._price_access_alone(prepared, i, node)
                lat_sum += lat
                bw_sum += bw
            assert lat_sum <= full.latency_seconds * (1 + 1e-9)
            assert bw_sum <= full.bandwidth_seconds * (1 + 1e-9)

    def test_blend_memo_shared_across_pricings(self, xeon_engine):
        pus = tuple(range(40))
        xeon_engine.price_phase(mixed_phase(), Placement.single(a=0, b=2, c=0), pus=pus)
        assert (0, pus) in xeon_engine._blend_memo
        assert (2, pus) in xeon_engine._blend_memo


class TestGenerationMemo:
    """Degraded attrs must never serve stale blends."""

    @staticmethod
    def _phase():
        return KernelPhase(
            name="p", threads=4,
            accesses=(
                BufferAccess(
                    buffer="a", pattern=PatternKind.STREAM,
                    bytes_read=GB, working_set=GB,
                ),
            ),
        )

    def test_blend_memo_evicted_on_generation_bump(self):
        machine = xeon_cascadelake_1lm()
        topo = build_topology(machine)
        attrs = native_discovery(topo)
        engine = SimEngine(machine, topo, attrs=attrs)
        node = min(engine._nodes)
        engine.price_phase(self._phase(), Placement.single(a=node))
        stats = engine.memo_stats()
        assert stats["blend_entries"] > 0
        assert stats["evictions"] == 0

        target = topo.numanodes()[0]
        assert attrs.degrade_target("Bandwidth", target, 0.5) > 0
        engine.price_phase(self._phase(), Placement.single(a=node))
        stats = engine.memo_stats()
        assert stats["generation"] == attrs.generation
        assert stats["evictions"] > 0

    def test_unbound_engine_never_evicts(self):
        engine = SimEngine(xeon_cascadelake_1lm())
        node = min(engine._nodes)
        for _ in range(3):
            engine.price_phase(self._phase(), Placement.single(a=node))
        stats = engine.memo_stats()
        assert stats["generation"] == 0
        assert stats["evictions"] == 0
