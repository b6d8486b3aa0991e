"""Query-cache correctness: stale answers must never be served.

Covers the memoized attribute-query engine — generation-based
invalidation on ``set_value``/``register``, hit/miss/invalidation
accounting, deterministic initiator matching, one memo per answer, and
the query surfaces (``rank_targets``, ``get_local_numanode_objs``,
fallback chains, ``rank_for``) agreeing bit-for-bit with a cache-disabled
twin.
"""

import pytest

from repro.alloc import HeterogeneousAllocator, attribute_fallback_chain
from repro.core import BANDWIDTH, MemAttrFlag, MemAttrs, QueryCache
from repro.core.querycache import MISSING, TOPOLOGY_FAMILIES
from repro.core.ranking import rank_targets
from repro.kernel import KernelMemoryManager
from repro.topology import Bitmap


class TestQueryCacheStore:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get("f", "k") is MISSING
        cache.store("f", "k", 42)
        assert cache.get("f", "k") == 42
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cached_none_is_a_hit(self):
        """Negative answers (no matching initiator) are cacheable."""
        cache = QueryCache()
        cache.store("f", "k", None)
        assert cache.get("f", "k") is None
        assert cache.stats()["hits"] == 1

    def test_custom_default_sentinel(self):
        cache = QueryCache()
        marker = object()
        assert cache.get("f", "k", marker) is marker

    def test_disabled_cache_never_serves(self):
        cache = QueryCache(enabled=False)
        cache.store("f", "k", 42)
        assert cache.get("f", "k") is MISSING
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_invalidate_keeps_topology_families(self):
        cache = QueryCache()
        topo_family = next(iter(TOPOLOGY_FAMILIES))
        cache.store(topo_family, "k", 1)
        cache.store("alloc_rank", "k", 2)
        cache.invalidate()
        assert cache.get(topo_family, "k") == 1
        assert cache.get("alloc_rank", "k") is MISSING
        assert cache.invalidations == 1

    def test_fifo_eviction_bounds_entries(self):
        cache = QueryCache(max_entries_per_family=2)
        cache.store("f", "a", 1)
        cache.store("f", "b", 2)
        cache.store("f", "c", 3)
        assert cache.get("f", "a") is MISSING   # oldest evicted
        assert cache.get("f", "c") == 3
        assert cache.evictions == 1


class TestGenerationInvalidation:
    def test_set_value_bumps_generation(self, xeon_attrs, xeon_topo):
        node = xeon_topo.numanode_by_os_index(0)
        before = xeon_attrs.generation
        xeon_attrs.set_value(BANDWIDTH, node, 0, 123e9)
        assert xeon_attrs.generation == before + 1

    def test_register_bumps_generation(self, xeon_attrs):
        before = xeon_attrs.generation
        xeon_attrs.register("Wearout", MemAttrFlag.LOWER_FIRST)
        assert xeon_attrs.generation == before + 1

    def test_stale_ranking_never_served(self, xeon_attrs, xeon_topo):
        """The core guarantee: a set_value between two identical queries
        changes the answer — the cache must not echo the old ranking."""
        nodes = xeon_topo.numanodes()
        first = xeon_attrs.rank_targets(BANDWIDTH, nodes, 0)
        again = xeon_attrs.rank_targets(BANDWIDTH, nodes, 0)
        assert first == again  # warm hit, identical
        # Make the currently-worst target the best.
        worst = first[-1].target
        xeon_attrs.set_value(
            BANDWIDTH, worst, Bitmap([0]), first[0].value * 10
        )
        updated = xeon_attrs.rank_targets(BANDWIDTH, nodes, Bitmap([0]))
        assert updated[0].target is worst
        assert updated != first

    def test_stale_fallback_chain_never_served(self, xeon_attrs):
        xeon_attrs.register("Score", MemAttrFlag.HIGHER_FIRST)
        chain = attribute_fallback_chain(xeon_attrs, "Score")
        assert [a.name for a in chain] == ["Score", "Capacity"]
        # Cached now; a later register bumps the generation so the key
        # changes; re-resolution still yields a correct chain.
        assert attribute_fallback_chain(xeon_attrs, "Score") == chain

    def test_match_initiator_cache_invalidated(self, xeon_attrs, xeon_topo):
        node = xeon_topo.numanode_by_os_index(0)
        whole = node.cpuset
        xeon_attrs.set_value(BANDWIDTH, node, whole, 10e9)
        assert xeon_attrs.get_value(BANDWIDTH, node, 0) == 10e9
        # Store a more specific initiator: the query must now prefer it.
        xeon_attrs.set_value(BANDWIDTH, node, Bitmap([0]), 99e9)
        assert xeon_attrs.get_value(BANDWIDTH, node, 0) == 99e9


class TestCounters:
    def test_rank_hit_miss_accounting(self, xeon_allocator):
        xeon_attrs = xeon_allocator.memattrs
        xeon_attrs.query_cache.clear()
        xeon_allocator.rank_for("Latency", 0)
        misses = xeon_attrs.cache_stats()["families"]["alloc_rank"]["misses"]
        assert misses == 1
        xeon_allocator.rank_for("Latency", 0)
        fam = xeon_attrs.cache_stats()["families"]["alloc_rank"]
        assert fam["hits"] == 1 and fam["misses"] == 1
        assert fam["entries"] == 1

    def test_one_memo_per_answer(self, xeon_allocator):
        """Rankings, initiator matches and fallback chains are memoized
        only as the allocator's ``alloc_rank`` answer."""
        memattrs = xeon_allocator.memattrs
        node = memattrs.topology.numanode_by_os_index(0)
        for attr in ("Bandwidth", "Latency", "Capacity", "ReadBandwidth"):
            for scope in ("local", "machine"):
                xeon_allocator.rank_for(attr, 0, scope=scope)
            xeon_allocator.free(xeon_allocator.mem_alloc(1 << 20, attr, 0))
            if memattrs.has_values(attr):
                memattrs.get_best_target(attr, 0)
                rank_targets(memattrs, attr, 0, tie_attr="Capacity",
                             tie_tolerance=0.1)
            attribute_fallback_chain(memattrs, attr)
        memattrs.set_value(BANDWIDTH, node, 0, 1e9)
        assert memattrs.get_value(BANDWIDTH, node, 0) == 1e9
        xeon_allocator.rank_for("Bandwidth", 0)
        assert set(memattrs.cache_stats()["families"]) == {
            "alloc_rank", "as_cpuset", "local_nodes", "initiator_pus"
        }

    def test_invalidation_counter(self, xeon_attrs, xeon_topo):
        node = xeon_topo.numanode_by_os_index(0)
        before = xeon_attrs.query_cache.invalidations
        xeon_attrs.set_value(BANDWIDTH, node, 0, 1e9)
        xeon_attrs.set_value(BANDWIDTH, node, 1, 2e9)
        assert xeon_attrs.query_cache.invalidations == before + 2

    def test_cache_stats_shape(self, xeon_attrs):
        stats = xeon_attrs.cache_stats()
        for key in ("hits", "misses", "hit_rate", "invalidations",
                    "generation", "families", "enabled"):
            assert key in stats


class TestDeterministicInitiatorMatch:
    def test_equal_weight_tie_lowest_first_bit_wins(self):
        """Satellite: ties must not depend on dict insertion order."""
        a, b = Bitmap([0, 1]), Bitmap([2, 3])
        query = Bitmap([])  # included in both — force the tie
        # Both stored orders must give the same winner.
        assert MemAttrs._match_initiator({b: 2.0, a: 1.0}, query) == a
        assert MemAttrs._match_initiator({a: 1.0, b: 2.0}, query) == a

    def test_same_first_bit_breaks_on_remaining_bits(self):
        a, b = Bitmap([0, 2]), Bitmap([0, 3])
        query = Bitmap([0])
        assert MemAttrs._match_initiator({b: 2.0, a: 1.0}, query) == a

    def test_exact_match_still_wins(self):
        exact, superset = Bitmap([0]), Bitmap([0, 1])
        per = {superset: 2.0, exact: 1.0}
        assert MemAttrs._match_initiator(per, exact) == exact

    def test_smallest_superset_still_wins_over_order(self):
        small, big = Bitmap([0, 1]), Bitmap([0, 1, 2, 3])
        per = {big: 2.0, small: 1.0}
        assert MemAttrs._match_initiator(per, Bitmap([0])) == small


class TestCachedEqualsUncached:
    """Bit-identity of every cached surface against a cache-disabled twin."""

    @pytest.fixture()
    def twins(self, xeon, xeon_topo):
        from repro.core import native_discovery

        warm = native_discovery(xeon_topo)
        cold = native_discovery(xeon_topo)
        cold.query_cache.enabled = False
        warm_alloc = HeterogeneousAllocator(warm, KernelMemoryManager(xeon))
        cold_alloc = HeterogeneousAllocator(cold, KernelMemoryManager(xeon))
        return warm_alloc, cold_alloc

    def _signature(self, ranked):
        return [(tv.target.os_index, tv.value) for tv in ranked]

    def test_rank_for_identical(self, twins):
        warm, cold = twins
        for attr in ("Bandwidth", "Latency", "Capacity", "ReadBandwidth"):
            for init in (0, 1, 40):
                for scope in ("local", "machine"):
                    for _ in range(2):  # second pass = warm hit
                        wu, wr = warm.rank_for(attr, init, scope=scope)
                        cu, cr = cold.rank_for(attr, init, scope=scope)
                        assert wu == cu
                        assert self._signature(wr) == self._signature(cr)

    def test_composed_ranking_identical(self, twins):
        warm, cold = twins
        for _ in range(2):
            w = rank_targets(
                warm.memattrs, "Latency", 0,
                tie_attr="Capacity", tie_tolerance=0.1,
            )
            c = rank_targets(
                cold.memattrs, "Latency", 0,
                tie_attr="Capacity", tie_tolerance=0.1,
            )
            assert self._signature(w) == self._signature(c)

    def test_local_nodes_identical(self, twins):
        warm, cold = twins
        for init in (0, 1, 40, Bitmap([0, 40])):
            for _ in range(2):
                w = warm.memattrs.get_local_numanode_objs(init)
                c = cold.memattrs.get_local_numanode_objs(init)
                assert [n.os_index for n in w] == [n.os_index for n in c]

    def test_allocation_sequence_identical(self, twins):
        warm, cold = twins
        for i in range(20):
            attr = ("Bandwidth", "Latency", "Capacity")[i % 3]
            wb = warm.mem_alloc((i + 1) << 20, attr, i % 2, name=f"w{i}")
            cb = cold.mem_alloc((i + 1) << 20, attr, i % 2, name=f"c{i}")
            assert wb.used_attribute == cb.used_attribute
            assert wb.fallback_rank == cb.fallback_rank
            assert wb.allocation.pages_by_node == cb.allocation.pages_by_node
