"""Kernel page-allocator tests, including property-based conservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError, PolicyError, SpecError
from repro.hw import get_platform
from repro.kernel import (
    KernelMemoryManager,
    bind_policy,
    default_policy,
    interleave_policy,
    preferred_policy,
)
from repro.units import GB, MiB


@pytest.fixture()
def km(knl):
    return KernelMemoryManager(knl)


class TestBasics:
    def test_nodes_registered(self, km):
        assert km.node_ids() == tuple(range(8))

    def test_os_reservation_applied(self, km):
        # 3% of each node is kept for the OS.
        state = km.nodes[0]
        assert state.free_pages == state.total_pages - int(state.total_pages * 0.03)

    def test_local_node_of_pu(self, km):
        assert km.local_node_of_pu(0) == 0
        assert km.local_node_of_pu(255) == 3

    def test_zonelist_starts_local(self, km):
        zl = km.zonelist(0)
        assert zl[0] == 0
        assert set(zl) == set(km.node_ids())

    def test_free_pages_array_is_a_list_of_ints(self, km):
        before = km.free_pages_array()
        km.allocate(64 * MiB, bind_policy(1))
        km.offline_node(2)
        free = km.free_pages_array()
        assert type(free) is list
        assert all(type(pages) is int for pages in free)
        assert free == [km.free_bytes(n) // km.page_size for n in km.node_ids()]
        assert free[1] == before[1] - 64 * MiB // km.page_size
        assert free[2] == 0

    def test_bad_page_size(self, knl):
        with pytest.raises(SpecError):
            KernelMemoryManager(knl, page_size=0)

    def test_bad_reservation(self, knl):
        with pytest.raises(SpecError):
            KernelMemoryManager(knl, os_reserved_fraction=1.5)


class TestAllocate:
    def test_default_policy_lands_local(self, km):
        a = km.allocate(1 * GB, default_policy(), initiator_pu=70)
        assert a.nodes == (1,)  # cluster 1 DRAM
        km.free(a)

    def test_bind_respects_nodeset(self, km):
        a = km.allocate(1 * GB, bind_policy(5))
        assert a.nodes == (5,)
        km.free(a)

    def test_bind_strict_fails_when_full(self, km):
        with pytest.raises(CapacityError):
            km.allocate(100 * GB, bind_policy(4))  # 4 GB MCDRAM

    def test_bind_spills_within_nodeset(self, km):
        a = km.allocate(6 * GB, bind_policy(4, 5))
        assert set(a.nodes) == {4, 5}
        assert a.is_split
        km.free(a)

    def test_preferred_falls_back_to_higher_indices_only(self, km):
        """§VII footnote 21: preferred MCDRAM cannot fall back to DRAM."""
        a = km.allocate(3 * GB, preferred_policy(4))
        assert a.nodes == (4,)
        km.free(a)
        big = 30 * GB  # larger than all MCDRAM combined
        with pytest.raises(CapacityError):
            km.allocate(big, preferred_policy(4))
        # Preferring DRAM node 0 can spill into every higher node.
        a = km.allocate(30 * GB, preferred_policy(0))
        assert min(a.nodes) == 0
        km.free(a)

    def test_interleave_spreads_evenly(self, km):
        a = km.allocate(8 * GB, interleave_policy(0, 1, 2, 3))
        counts = list(a.pages_by_node.values())
        assert len(counts) == 4
        assert max(counts) - min(counts) <= len(counts)
        km.free(a)

    def test_interleave_respects_capacity(self, km):
        a = km.allocate(7 * GB, interleave_policy(4, 5))  # 2x ~3.88GB free
        assert set(a.nodes) == {4, 5}
        km.free(a)
        with pytest.raises(CapacityError):
            km.allocate(9 * GB, interleave_policy(4, 5))

    def test_zero_size_rejected(self, km):
        with pytest.raises(SpecError):
            km.allocate(0, default_policy())

    def test_unknown_nodes_rejected(self, km):
        with pytest.raises(PolicyError):
            km.allocate(GB, bind_policy(42))
        with pytest.raises(PolicyError):
            km.allocate(GB, preferred_policy(42))
        with pytest.raises(PolicyError):
            km.allocate(GB, interleave_policy(0, 42))

    def test_fraction_on(self, km):
        a = km.allocate(2 * GB, bind_policy(0))
        assert a.fraction_on(0) == pytest.approx(1.0)
        assert a.fraction_on(1) == 0.0
        km.free(a)


class TestFree:
    def test_free_restores_pages(self, km):
        before = km.free_bytes(0)
        a = km.allocate(1 * GB, bind_policy(0))
        assert km.free_bytes(0) < before
        km.free(a)
        assert km.free_bytes(0) == before

    def test_double_free_rejected(self, km):
        a = km.allocate(1 * GB, bind_policy(0))
        km.free(a)
        with pytest.raises(SpecError):
            km.free(a)

    def test_foreign_allocation_rejected(self, km, knl):
        other = KernelMemoryManager(knl)
        a = other.allocate(1 * GB, bind_policy(0))
        with pytest.raises(SpecError):
            km.free(a)

    def test_live_allocations_tracking(self, km):
        a = km.allocate(1 * GB, bind_policy(0))
        b = km.allocate(1 * GB, bind_policy(1))
        assert len(km.live_allocations()) == 2
        km.free(a)
        assert len(km.live_allocations()) == 1
        km.free(b)


class TestMigrate:
    def test_full_migration(self, km):
        a = km.allocate(2 * GB, bind_policy(4))
        report = km.migrate(a, 0)
        assert report.complete
        assert a.nodes == (0,)
        assert report.estimated_seconds > 0
        km.free(a)

    def test_partial_page_count(self, km):
        a = km.allocate(2 * GB, bind_policy(4))
        pages = a.total_pages
        report = km.migrate(a, 0, pages=pages // 2)
        assert report.moved_pages == pages // 2
        assert set(a.nodes) == {0, 4}
        assert a.total_pages == pages
        km.free(a)

    def test_migration_to_same_node_moves_nothing(self, km):
        a = km.allocate(1 * GB, bind_policy(0))
        report = km.migrate(a, 0)
        assert report.moved_pages == 0
        km.free(a)

    def test_destination_capacity_limits_move(self, km):
        filler = km.allocate(3 * GB, bind_policy(4))
        a = km.allocate(5 * GB, bind_policy(0))
        report = km.migrate(a, 4)  # < 1 GB free on node 4
        assert report.moved_pages < a.total_pages + report.moved_pages
        assert 4 in a.nodes or report.moved_pages == 0
        km.free(a)
        km.free(filler)

    def test_migrate_freed_rejected(self, km):
        a = km.allocate(1 * GB, bind_policy(0))
        km.free(a)
        with pytest.raises(SpecError):
            km.migrate(a, 1)

    def test_from_nodes_restricts_sources(self, km):
        a = km.allocate(2 * GB, interleave_policy(0, 1))
        on_node1 = a.pages_by_node[1]
        report = km.migrate(a, 4, from_nodes=(1,))
        assert report.moved_pages == on_node1
        assert report.from_nodes == (1,)
        assert a.pages_by_node.get(1, 0) == 0
        assert a.pages_by_node[0] > 0  # untouched: not in from_nodes
        km.free(a)

    def test_from_nodes_no_eligible_pages_moves_nothing(self, km):
        a = km.allocate(1 * GB, bind_policy(0))
        report = km.migrate(a, 4, from_nodes=(2, 3))
        assert report.moved_pages == 0
        assert a.nodes == (0,)
        km.free(a)

    def test_from_nodes_with_pages_cap(self, km):
        a = km.allocate(2 * GB, interleave_policy(0, 1))
        report = km.migrate(a, 4, pages=10, from_nodes=(0,))
        assert report.moved_pages == 10
        assert report.from_nodes == (0,)
        km.free(a)

    def test_from_nodes_unknown_node_rejected(self, km):
        a = km.allocate(1 * GB, bind_policy(0))
        with pytest.raises(PolicyError):
            km.migrate(a, 4, from_nodes=(99,))
        km.free(a)

    def test_from_nodes_excludes_destination(self, km):
        # Destination pages never count as sources even if listed.
        a = km.allocate(1 * GB, bind_policy(0))
        report = km.migrate(a, 0, from_nodes=(0,))
        assert report.moved_pages == 0
        km.free(a)


class TestConservation:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=512 * MiB), min_size=1, max_size=8
        ),
        nodes=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    )
    def test_alloc_free_conserves_pages(self, sizes, nodes):
        km = KernelMemoryManager(get_platform("knl-snc4-flat"))
        baseline = {n: s.free_pages for n, s in km.nodes.items()}
        allocs = []
        for size, node in zip(sizes, nodes):
            try:
                allocs.append(km.allocate(size, preferred_policy(node)))
            except CapacityError:
                pass
        # Invariant: used pages equal the sum of live allocation pages.
        for n, state in km.nodes.items():
            placed = sum(a.pages_by_node.get(n, 0) for a in allocs)
            assert baseline[n] - state.free_pages == placed
        for a in allocs:
            km.free(a)
        for n, state in km.nodes.items():
            assert state.free_pages == baseline[n]
