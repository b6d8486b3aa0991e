"""Heterogeneous-allocator tests — §IV-B and the §VI-A portability claim."""

import pytest

from repro.alloc import AllocRequest
from repro.errors import AllocationError, CapacityError
from repro.units import GB


class TestBasicAllocation:
    def test_latency_request_lands_on_dram_xeon(self, xeon_allocator):
        buf = xeon_allocator.mem_alloc(1 * GB, "Latency", 0)
        assert buf.target.os_index == 0
        xeon_allocator.free(buf)

    def test_capacity_request_lands_on_nvdimm_xeon(self, xeon_allocator):
        buf = xeon_allocator.mem_alloc(1 * GB, "Capacity", 0)
        assert buf.target.os_index == 2
        xeon_allocator.free(buf)

    def test_bandwidth_request_lands_on_mcdram_knl(self, knl_allocator):
        buf = knl_allocator.mem_alloc(1 * GB, "Bandwidth", 0)
        assert buf.target.attrs["kind"] == "HBM"
        knl_allocator.free(buf)

    def test_latency_request_lands_on_dram_knl(self, knl_allocator):
        """§VI-A: on KNL the latency tie + capacity tiebreak keeps DRAM,
        preserving scarce MCDRAM."""
        buf = knl_allocator.mem_alloc(1 * GB, "Latency", 0)
        assert buf.target.attrs["kind"] == "DRAM"
        knl_allocator.free(buf)

    def test_portability_same_code_both_machines(
        self, xeon_allocator, knl_allocator
    ):
        """The paper's headline: one criterion, correct on both servers."""
        for allocator, expected in ((xeon_allocator, "DRAM"), (knl_allocator, "DRAM")):
            buf = allocator.mem_alloc(1 * GB, "Latency", 0)
            assert buf.target.attrs["kind"] == expected
            allocator.free(buf)

    def test_locality_respected(self, knl_allocator):
        buf = knl_allocator.mem_alloc(1 * GB, "Bandwidth", 130)  # cluster 2
        assert buf.target.os_index == 6
        knl_allocator.free(buf)

    def test_named_buffer_registry(self, xeon_allocator):
        buf = xeon_allocator.mem_alloc(1 * GB, "Latency", 0, name="mine")
        assert xeon_allocator.buffers["mine"] is buf
        with pytest.raises(AllocationError):
            xeon_allocator.mem_alloc(1 * GB, "Latency", 0, name="mine")
        xeon_allocator.free("mine")

    def test_freed_handle_never_returns_as_another_buffer(self, xeon_allocator):
        """A recycled allocation comes back under a new Buffer, so a stale
        free of the old handle raises as a named double free does."""
        first = xeon_allocator.mem_alloc(1 << 20, "Bandwidth", 0)
        xeon_allocator.free(first)
        again = xeon_allocator.mem_alloc(1 << 20, "Bandwidth", 0)
        assert again.allocation is first.allocation   # the pool still engages
        assert again is not first and again.name != first.name
        with pytest.raises(AllocationError, match=f"unknown buffer {first.name!r}"):
            xeon_allocator.free(first)
        assert xeon_allocator.buffers == {again.name: again}
        named = xeon_allocator.mem_alloc(1 << 20, "Bandwidth", 0, name="x")
        xeon_allocator.free(named)
        with pytest.raises(AllocationError, match="unknown buffer 'x'"):
            xeon_allocator.free(named)

    def test_invalid_size(self, xeon_allocator):
        with pytest.raises(AllocationError):
            xeon_allocator.mem_alloc(0, "Latency", 0)

    def test_invalid_size_refused_on_a_warm_plan(self, xeon_allocator):
        """A memoized plan (and a pooled buffer) must not let zero or
        negative sizes through, and a refusal leaves the kernel as it was."""
        kernel = xeon_allocator.kernel
        xeon_allocator.free(xeon_allocator.mem_alloc(1 * GB, "Bandwidth", 0))
        before = kernel.free_pages_array()
        for size in (0, -4096):
            with pytest.raises(AllocationError, match="must be positive"):
                xeon_allocator.mem_alloc(size, "Bandwidth", 0)
            with pytest.raises(AllocationError, match="must be positive"):
                xeon_allocator.mem_alloc_many(
                    [AllocRequest(size=size, attribute="Bandwidth", initiator=0)]
                )
        assert kernel.free_pages_array() == before
        assert not kernel.live_allocations()
        assert not xeon_allocator.buffers


class TestTargetFallback:
    def test_whole_buffer_fallback_when_best_full(self, knl_allocator):
        first = knl_allocator.mem_alloc(3 * GB, "Bandwidth", 0)
        assert first.target.attrs["kind"] == "HBM"
        second = knl_allocator.mem_alloc(3 * GB, "Bandwidth", 0)
        # 4 GB MCDRAM cannot hold another 3 GB: whole-buffer fallback.
        assert second.fallback_rank > 0
        assert second.target.attrs["kind"] == "DRAM"
        assert not second.is_split
        knl_allocator.free(first)
        knl_allocator.free(second)

    def test_capacity_error_when_nothing_fits(self, knl_allocator):
        with pytest.raises(CapacityError):
            knl_allocator.mem_alloc(200 * GB, "Bandwidth", 0)

    def test_partial_split_when_allowed(self, knl_allocator):
        buf = knl_allocator.mem_alloc(
            6 * GB, "Bandwidth", 0, allow_partial=True
        )
        assert buf.is_split
        fr = buf.placement_fractions()
        assert len(fr) >= 2
        assert sum(fr.values()) == pytest.approx(1.0)
        knl_allocator.free(buf)

    def test_freeing_restores_best_target(self, knl_allocator):
        a = knl_allocator.mem_alloc(3 * GB, "Bandwidth", 0)
        knl_allocator.free(a)
        b = knl_allocator.mem_alloc(3 * GB, "Bandwidth", 0)
        assert b.fallback_rank == 0
        knl_allocator.free(b)


class TestAttributeFallback:
    def test_read_bandwidth_falls_back_when_absent(self, knl_topo, knl_kernel):
        """Feed only the combined Bandwidth attribute; ReadBandwidth
        requests must transparently use it (§IV-B)."""
        from repro.alloc import HeterogeneousAllocator
        from repro.core import BANDWIDTH, MemAttrs
        ma = MemAttrs(knl_topo)
        for node in knl_topo.numanodes():
            if node.cpuset.isset(0):
                ma.set_value(
                    BANDWIDTH,
                    node,
                    node.cpuset,
                    9e10 if node.attrs["kind"] == "HBM" else 3e10,
                )
        allocator = HeterogeneousAllocator(ma, knl_kernel)
        buf = allocator.mem_alloc(1 * GB, "ReadBandwidth", 0)
        assert buf.used_attribute == "Bandwidth"
        assert buf.target.attrs["kind"] == "HBM"
        allocator.free(buf)

    def test_everything_falls_back_to_capacity(self, knl_topo, knl_kernel):
        """With no performance values at all, Capacity still ranks."""
        from repro.alloc import HeterogeneousAllocator
        from repro.core import MemAttrs
        allocator = HeterogeneousAllocator(MemAttrs(knl_topo), knl_kernel)
        buf = allocator.mem_alloc(1 * GB, "Bandwidth", 0)
        assert buf.used_attribute == "Capacity"
        assert buf.target.attrs["kind"] == "DRAM"  # 24GB beats 4GB
        allocator.free(buf)


class TestMigrate:
    def test_migrate_to_new_criterion(self, knl_allocator):
        buf = knl_allocator.mem_alloc(1 * GB, "Capacity", 0)
        assert buf.target.attrs["kind"] == "DRAM"
        report = knl_allocator.migrate(buf, "Bandwidth")
        assert report.moved_pages > 0
        assert buf.target.attrs["kind"] == "HBM"
        assert buf.requested_attribute == "Bandwidth"
        knl_allocator.free(buf)

    def test_migrate_cost_positive(self, knl_allocator):
        buf = knl_allocator.mem_alloc(1 * GB, "Capacity", 0)
        report = knl_allocator.migrate(buf, "Bandwidth")
        assert report.estimated_seconds > 0
        knl_allocator.free(buf)

    def test_migrate_unknown_buffer(self, knl_allocator):
        with pytest.raises(AllocationError):
            knl_allocator.migrate("ghost", "Latency")

    def test_migrated_buffer_leaves_its_plan(self, xeon_allocator):
        """Bandwidth and Latency both pick DRAM node 0 on the Xeon, so the
        migrate moves nothing but re-labels the buffer.  Freed, it must
        not come back from the Bandwidth plan's pool."""
        first = xeon_allocator.mem_alloc(1 * GB, "Bandwidth", 0)
        report = xeon_allocator.migrate(first, "Latency")
        assert report.moved_pages == 0
        assert first.used_attribute == "Latency"
        xeon_allocator.free(first)
        again = xeon_allocator.mem_alloc(1 * GB, "Bandwidth", 0)
        assert again is not first
        assert again.requested_attribute == again.used_attribute == "Bandwidth"
        assert again.target.os_index == 0
        xeon_allocator.free(again)


class TestPlacementExport:
    def test_placement_reflects_buffers(self, xeon_allocator):
        a = xeon_allocator.mem_alloc(1 * GB, "Latency", 0, name="a")
        b = xeon_allocator.mem_alloc(1 * GB, "Capacity", 0, name="b")
        placement = xeon_allocator.placement()
        assert placement.of("a") == {0: pytest.approx(1.0)}
        assert placement.of("b") == {2: pytest.approx(1.0)}
        xeon_allocator.free(a)
        xeon_allocator.free(b)

    def test_mismatched_machines_rejected(self, xeon_attrs, knl_kernel):
        from repro.alloc import HeterogeneousAllocator
        from repro.errors import SpecError
        with pytest.raises(SpecError):
            HeterogeneousAllocator(xeon_attrs, knl_kernel)
