"""The instrumentation hooks actually fire — per subsystem.

These tests enable telemetry, drive each instrumented layer through its
public API, and assert the advertised counters/spans appear.  The
disabled-path counterpart (nothing recorded when ``OBS.enabled`` is
false) is asserted once at the end.
"""

import pytest

from repro import obs
from repro.errors import CapacityError
from repro.kernel import AutoTierDaemon, TierConfig, bind_policy
from repro.obs import OBS
from repro.sensitivity import search_placements
from repro.sim import BufferAccess, KernelPhase, PatternKind
from repro.units import GB, MiB
from tests.conftest import XEON_PUS


def _span_names():
    return [r.name for r in OBS.tracer.records]


class TestAllocatorHooks:
    def test_mem_alloc_records_span_and_counters(self, xeon_allocator):
        obs.enable()
        buf = xeon_allocator.mem_alloc(1 * GB, "Latency", 0, name="t")
        assert OBS.metrics.value("alloc.requests", attribute="Latency") == 1
        assert (
            OBS.metrics.value(
                "alloc.placed", attribute="Latency", node=buf.target.os_index
            )
            == 1
        )
        (span,) = OBS.tracer.finished()
        assert span.name == "mem_alloc"
        assert span.fields["buffer"] == "t"
        assert span.fields["used_attribute"] == "Latency"
        assert OBS.metrics.histogram("alloc.fallback_rank").count == 1

    def test_capacity_fallback_counted(self, xeon_allocator):
        obs.enable()
        # Fill DRAM node 0 to within 1 GB: the next allocation spills.
        hog = xeon_allocator.kernel.free_bytes(0) - 1 * GB
        xeon_allocator.mem_alloc(hog, "Latency", 0, name="hog")
        spilled = xeon_allocator.mem_alloc(20 * GB, "Latency", 0, name="spill")
        assert spilled.fallback_rank > 0
        assert OBS.metrics.value("alloc.capacity_fallbacks") == 1

    def test_capacity_error_counted_and_span_errored(self, xeon_allocator):
        obs.enable()
        with pytest.raises(CapacityError):
            xeon_allocator.mem_alloc(
                10**15, "Latency", 0, name="huge", allow_fallback=False
            )
        assert OBS.metrics.value("alloc.capacity_errors", attribute="Latency") == 1
        (span,) = OBS.tracer.finished()
        assert span.status == "error"

    def test_mem_alloc_many_span_and_batch_size(self, xeon_allocator):
        obs.enable()
        reqs = [
            dict(size=64 * MiB, attribute="Capacity", initiator=0, name=f"b{i}")
            for i in range(3)
        ]
        xeon_allocator.mem_alloc_many(reqs)
        assert OBS.metrics.value("alloc.batches") == 1
        assert OBS.metrics.histogram("alloc.batch_size").sum == 3
        assert "mem_alloc_many" in _span_names()

    def test_recycled_commit_counted_by_kernel_counters(self, xeon_allocator):
        """A pool recycle never reaches the kernel; full tracing still
        counts it as a page commit."""
        obs.enable()
        first = xeon_allocator.mem_alloc(64 * MiB, "Latency", 0)
        xeon_allocator.free(first)
        again = xeon_allocator.mem_alloc(64 * MiB, "Latency", 0)
        assert again.allocation is first.allocation
        assert OBS.metrics.value("kernel.allocations") == 2
        assert OBS.metrics.value("kernel.pages_allocated") == 2 * (64 * MiB // 4096)

    def test_migrate_span(self, xeon_allocator):
        obs.enable()
        buf = xeon_allocator.mem_alloc(1 * GB, "Capacity", 0, name="mv")
        xeon_allocator.migrate(buf, "Latency")
        assert "alloc.migrate" in _span_names()
        assert OBS.metrics.value("kernel.migrations") >= 1
        assert OBS.metrics.value("kernel.pages_migrated") > 0


class TestCoreHooks:
    def test_querycache_hits_and_misses(self, xeon_allocator):
        """A repeated query is a memo hit in ``cache_stats()`` (what the
        benchmark's ``querycache.hit_ratio`` reads) and ranks once; the
        memo keeps no metric series of its own."""
        obs.enable()
        xeon_allocator.rank_for("Latency", 0)
        xeon_allocator.rank_for("Latency", 0)
        stats = xeon_allocator.cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert OBS.metrics.value("core.rankings_computed", attribute="Latency") == 1
        assert not [
            i for i in OBS.metrics.instruments() if i.name.startswith("querycache.")
        ]

    def test_generation_bump_counted(self, xeon_attrs, xeon_topo):
        obs.enable()
        before = OBS.metrics.value("core.generation_bumps")
        node = xeon_topo.numanode_by_os_index(0)
        xeon_attrs.set_value("Bandwidth", node, 0, 123.0)
        assert OBS.metrics.value("core.generation_bumps") == before + 1


class TestKernelHooks:
    def test_page_allocation_counters(self, xeon_kernel):
        obs.enable()
        alloc = xeon_kernel.allocate(1 * GB, bind_policy(0))
        assert OBS.metrics.value("kernel.allocations") == 1
        assert (
            OBS.metrics.value("kernel.pages_allocated") == alloc.total_pages
        )
        xeon_kernel.free(alloc)

    def test_ordered_allocation_counters(self, xeon_kernel):
        """A spill commit counts like any other: one ordered plus one
        policy allocation read two allocations."""
        obs.enable()
        spill = xeon_kernel.allocate_ordered(1 * GB, (0, 2))
        whole = xeon_kernel.allocate(1 * GB, bind_policy(0))
        assert OBS.metrics.value("kernel.allocations") == 2
        assert OBS.metrics.value("kernel.pages_allocated") == (
            spill.total_pages + whole.total_pages
        )
        xeon_kernel.free(spill)
        xeon_kernel.free(whole)

    def test_migration_estimate_histogram(self, xeon_kernel):
        obs.enable()
        alloc = xeon_kernel.allocate(1 * GB, bind_policy(0))
        xeon_kernel.migrate(alloc, 2)
        assert OBS.metrics.value("kernel.migration_estimates") >= 1
        assert OBS.metrics.histogram(
            "kernel.migration_seconds",
            bounds=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0),
        ).count >= 1
        # Page-rounded: at least the requested bytes moved.
        assert OBS.metrics.value("kernel.bytes_migrated") >= 1 * GB
        xeon_kernel.free(alloc)

    def test_autotier_step_span_and_counters(self, knl_kernel):
        obs.enable()
        daemon = AutoTierDaemon(
            knl_kernel, TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        )
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("hot", hot)
        daemon.observe({"hot": 100 * GB})
        report = daemon.step()
        assert OBS.metrics.value("autotier.steps") == 1
        assert OBS.metrics.value("autotier.promotions") == len(report.promoted)
        assert "autotier.step" in _span_names()
        knl_kernel.free(hot)


class TestSimAndSearchHooks:
    def test_search_records_stats_counters(self, xeon_engine):
        obs.enable()
        phase = KernelPhase(
            name="p",
            threads=8,
            accesses=(
                BufferAccess(
                    buffer="x",
                    pattern=PatternKind.STREAM,
                    bytes_read=64 * MiB,
                    working_set=64 * MiB,
                ),
            ),
        )
        result = search_placements(
            xeon_engine,
            (phase,),
            {"x": 64 * MiB},
            (0, 2),
            default_node=0,
            pus=XEON_PUS,
        )
        assert OBS.metrics.value("search.runs") == 1
        assert (
            OBS.metrics.value("search.leaves_priced")
            == result.stats.leaves_priced
        )
        # Leaves count through the seconds-only entry, one per memo miss.
        assert result.stats.slice_pricings > 0
        assert OBS.metrics.value("sim.pricings") == result.stats.slice_pricings
        (span,) = [r for r in OBS.tracer.finished() if r.name == "search.placements"]
        assert span.fields["leaves_priced"] == result.stats.leaves_priced
        assert span.fields["best_seconds"] == result.candidates[0].seconds


class TestDisabledPathRecordsNothing:
    def test_nothing_recorded_when_disabled(self, xeon_allocator, xeon_kernel):
        assert not obs.enabled()
        buf = xeon_allocator.mem_alloc(1 * GB, "Latency", 0, name="quiet")
        xeon_allocator.rank_for("Latency", 0)
        alloc = xeon_kernel.allocate(64 * MiB, bind_policy(0))
        xeon_kernel.free(alloc)
        xeon_allocator.free(buf)
        assert OBS.tracer.records == []
        assert OBS.metrics.instruments() == ()
