"""Memoized query answers: stale answers must never be served.

A request's answer (the attribute after fallback and its ranked
targets) is memoized once, as the allocator's plan, which ``rank_for``
and ``mem_alloc`` both read; topology facts (initiator cpusets, local
NUMA nodes) are memoized on the immutable :class:`Topology`.  Covers
generation-based invalidation on ``set_value``/``register``, the plan
memo's bound and counters, deterministic initiator matching, and the
query surfaces agreeing bit-for-bit with the memo-free oracle.
"""

import pytest

from repro.alloc import HeterogeneousAllocator, attribute_fallback_chain
from repro.alloc import allocator as allocator_module
from repro.core import BANDWIDTH, MemAttrFlag, MemAttrs
from repro.core.ranking import rank_targets
from repro.kernel import KernelMemoryManager
from repro.topology import Bitmap, build_topology
from repro.topology.traversal import (
    LocalNumanodeFlags,
    as_cpuset,
    get_local_numanode_objs,
)
from tests.alloc import legacy_oracle


def _signature(ranked):
    return [(tv.target.os_index, tv.value) for tv in ranked]


class TestQueryCacheStore:
    """The plan memo as ``rank_for`` reads it, and the topology memos."""

    def test_miss_then_hit(self, xeon_allocator):
        used, ranked = xeon_allocator.rank_for("Latency", 0)
        again = xeon_allocator.rank_for("Latency", 0)
        assert again == (used, ranked)
        assert again[1] is ranked   # served from the memo, not re-ranked
        stats = xeon_allocator.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cached_none_is_a_hit(self, xeon, monkeypatch):
        """Falsy answers (an empty cpuset, no local node) are memoized
        like any other: a repeat must not recompute them."""
        topo = build_topology(xeon)
        empty = as_cpuset(topo, ())
        exact = get_local_numanode_objs(topo, 0, LocalNumanodeFlags.EXACT)
        assert not empty and exact == ()

        def recompute(*args):
            raise AssertionError("a memoized answer was recomputed")

        monkeypatch.setattr(Bitmap, "__init__", recompute)
        monkeypatch.setattr(type(topo), "numanodes", recompute)
        assert as_cpuset(topo, ()) is empty
        assert get_local_numanode_objs(topo, 0, LocalNumanodeFlags.EXACT) is exact

    def test_invalidate_keeps_topology_families(self, xeon_allocator):
        """A generation bump drops nothing eagerly: the topology memos
        stay, and a stale plan is rebuilt when next read."""
        memattrs = xeon_allocator.memattrs
        topo = memattrs.topology
        _, first = xeon_allocator.rank_for("Bandwidth", 0)
        cpusets, local_nodes = dict(topo._cpusets), dict(topo._local_nodes)
        worst = first[-1].target
        memattrs.set_value(BANDWIDTH, worst, 0, first[0].value * 10)
        assert topo._cpusets == cpusets and topo._local_nodes == local_nodes
        assert xeon_allocator._plans[("Bandwidth", 0, "local")].ranked is first
        _, updated = xeon_allocator.rank_for("Bandwidth", 0)
        assert updated[0].target is worst
        assert xeon_allocator.cache_stats()["misses"] == 2

    def test_fifo_eviction_bounds_entries(self, xeon_allocator, monkeypatch):
        monkeypatch.setattr(allocator_module, "_PLANS_MAX", 2)
        for attr in ("Bandwidth", "Latency", "Capacity"):
            xeon_allocator.rank_for(attr, 0)
        assert list(xeon_allocator._plans) == [
            ("Latency", 0, "local"), ("Capacity", 0, "local")
        ]   # oldest evicted
        stats = xeon_allocator.cache_stats()
        assert stats["entries"] == 2 and stats["evictions"] == 1

    def test_spellings_leave_a_bounded_memo(self, xeon_allocator):
        """512 spellings of one attribute on 64 PUs are 32,768 distinct
        requests; the memo keeps at most 4,096 plans for them, and every
        answer still equals the oracle's."""
        word = "bandwidth"
        spellings = [
            "".join(c.upper() if mask >> i & 1 else c for i, c in enumerate(word))
            for mask in range(1 << len(word))
        ]
        pus = [pu.os_index for pu in xeon_allocator.memattrs.topology.pus()][:64]
        for spelling in spellings:
            for pu in pus:
                xeon_allocator.free(xeon_allocator.mem_alloc(4096, spelling, pu))
                assert xeon_allocator.rank_for(spelling, pu) == legacy_oracle.rank_for(
                    xeon_allocator, spelling, pu
                )
        assert len(xeon_allocator._plans) <= 4096
        assert xeon_allocator.cache_stats()["evictions"] == 512 * 64 - 4096


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
        # A later register bumps the generation; re-resolution still
        # yields a correct chain.
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
        xeon_allocator.rank_for("Latency", 0)
        fam = xeon_allocator.cache_stats()["families"]["alloc_rank"]
        assert fam["misses"] == 1
        xeon_allocator.rank_for("Latency", 0)
        fam = xeon_allocator.cache_stats()["families"]["alloc_rank"]
        assert fam["hits"] == 1 and fam["misses"] == 1
        assert fam["entries"] == 1

    def test_one_memo_per_answer(self, xeon_allocator):
        """``rank_for`` and ``mem_alloc`` read one plan per request;
        rankings, initiator matches and fallback chains have no memo of
        their own."""
        memattrs = xeon_allocator.memattrs
        node = memattrs.topology.numanode_by_os_index(0)
        attrs = ("Bandwidth", "Latency", "Capacity", "ReadBandwidth")
        for attr in attrs:
            for scope in ("local", "machine"):
                xeon_allocator.rank_for(attr, 0, scope=scope)
            xeon_allocator.free(xeon_allocator.mem_alloc(1 << 20, attr, 0))
            assert (
                xeon_allocator._plans[(attr, 0, "local")].ranked
                is xeon_allocator.rank_for(attr, 0)[1]
            )
            if memattrs.has_values(attr):
                memattrs.get_best_target(attr, 0)
                rank_targets(memattrs, attr, 0, tie_attr="Capacity",
                             tie_tolerance=0.1)
            attribute_fallback_chain(memattrs, attr)
        assert len(xeon_allocator._plans) == 2 * len(attrs)
        memattrs.set_value(BANDWIDTH, node, 0, 1e9)
        assert memattrs.get_value(BANDWIDTH, node, 0) == 1e9
        xeon_allocator.rank_for("Bandwidth", 0)
        assert set(xeon_allocator.cache_stats()["families"]) == {"alloc_rank"}

    def test_invalidation_counter(self, xeon_allocator):
        """Invalidation is the generation: each ``set_value`` bumps it
        once, and a plan built before is rebuilt once."""
        memattrs = xeon_allocator.memattrs
        node = memattrs.topology.numanode_by_os_index(0)
        xeon_allocator.rank_for("Bandwidth", 0)
        before = xeon_allocator.cache_stats()["generation"]
        memattrs.set_value(BANDWIDTH, node, 0, 1e9)
        memattrs.set_value(BANDWIDTH, node, 1, 2e9)
        assert xeon_allocator.cache_stats()["generation"] == before + 2
        xeon_allocator.rank_for("Bandwidth", 0)
        xeon_allocator.rank_for("Bandwidth", 0)
        stats = xeon_allocator.cache_stats()
        assert (stats["misses"], stats["hits"]) == (2, 1)

    def test_cache_stats_shape(self, xeon_allocator):
        stats = xeon_allocator.cache_stats()
        assert set(stats) == {
            "hits", "misses", "entries", "hit_rate", "evictions",
            "generation", "families",
        }
        assert set(stats["families"]["alloc_rank"]) == {
            "hits", "misses", "entries", "hit_rate"
        }


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
    """Bit-identity of every memoized surface against the memo-free oracle."""

    @pytest.fixture()
    def twins(self, xeon, xeon_topo):
        from repro.core import native_discovery

        warm = native_discovery(xeon_topo)
        cold = native_discovery(xeon_topo)
        warm_alloc = HeterogeneousAllocator(warm, KernelMemoryManager(xeon))
        cold_alloc = HeterogeneousAllocator(cold, KernelMemoryManager(xeon))
        return warm_alloc, cold_alloc

    def test_rank_for_identical(self, twins):
        warm, cold = twins
        for attr in ("Bandwidth", "Latency", "Capacity", "ReadBandwidth"):
            for init in (0, 1, 40):
                for scope in ("local", "machine"):
                    for _ in range(2):  # second pass = warm hit
                        wu, wr = warm.rank_for(attr, init, scope=scope)
                        cu, cr = legacy_oracle.rank_for(cold, attr, init, scope=scope)
                        assert wu == cu
                        assert _signature(wr) == _signature(cr)

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
            assert _signature(w) == _signature(c)

    def test_local_nodes_identical(self, twins, xeon):
        """Memoized local nodes equal a fresh topology's first answer."""
        warm, _ = twins
        for init in (0, 1, 40, Bitmap([0, 40])):
            for _ in range(2):
                w = warm.memattrs.get_local_numanode_objs(init)
                c = get_local_numanode_objs(build_topology(xeon), init)
                assert [n.os_index for n in w] == [n.os_index for n in c]

    def test_allocation_sequence_identical(self, twins):
        warm, cold = twins
        for i in range(20):
            attr = ("Bandwidth", "Latency", "Capacity")[i % 3]
            wb = warm.mem_alloc((i + 1) << 20, attr, i % 2, name=f"w{i}")
            cb = legacy_oracle.mem_alloc(
                cold, (i + 1) << 20, attr, i % 2, name=f"c{i}"
            )
            assert wb.used_attribute == cb.used_attribute
            assert wb.fallback_rank == cb.fallback_rank
            assert wb.allocation.pages_by_node == cb.allocation.pages_by_node
