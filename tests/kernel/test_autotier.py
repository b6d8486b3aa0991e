"""Auto-tiering daemon tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, TransientMigrationError
from repro.hw import get_platform
from repro.kernel import (
    AutoTierDaemon,
    KernelMemoryManager,
    TierConfig,
    bind_policy,
    interleave_policy,
)
from repro.units import GB, KiB, MiB


@pytest.fixture()
def daemon(knl_kernel):
    cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
    return AutoTierDaemon(knl_kernel, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            TierConfig(fast_nodes=(), slow_nodes=(0,))
        with pytest.raises(ReproError):
            TierConfig(fast_nodes=(0,), slow_nodes=(0,))
        with pytest.raises(ReproError):
            TierConfig(fast_nodes=(4,), slow_nodes=(0,), decay=1.5)
        with pytest.raises(ReproError):
            TierConfig(
                fast_nodes=(4,), slow_nodes=(0,),
                promotion_threshold=0.1, demotion_threshold=0.5,
            )

    def test_unknown_nodes_rejected(self, knl_kernel):
        with pytest.raises(ReproError):
            AutoTierDaemon(
                knl_kernel, TierConfig(fast_nodes=(42,), slow_nodes=(0,))
            )


class TestTracking:
    def test_observe_unknown_buffer_rejected(self, daemon):
        with pytest.raises(ReproError):
            daemon.observe({"ghost": 1.0})

    def test_untracked_hotness_typed_error(self, daemon):
        # Regression: used to escape as a bare KeyError, which callers
        # catching ReproError (the documented contract) never saw.
        with pytest.raises(ReproError, match="ghost"):
            daemon.hotness("ghost")

    def test_double_track_rejected(self, daemon, knl_kernel):
        a = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("a", a)
        with pytest.raises(ReproError):
            daemon.track("a", a)
        knl_kernel.free(a)

    def test_negative_volume_rejected(self, daemon, knl_kernel):
        a = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("a", a)
        with pytest.raises(ReproError):
            daemon.observe({"a": -1.0})
        knl_kernel.free(a)


class TestTiering:
    def test_hot_buffer_promoted(self, daemon, knl_kernel):
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("hot", hot)
        daemon.observe({"hot": 20 * GB})
        report = daemon.step()
        assert "hot" in report.promoted
        assert hot.fraction_on(4) == pytest.approx(1.0)
        knl_kernel.free(hot)

    def test_cold_squatter_demoted(self, daemon, knl_kernel):
        cold = knl_kernel.allocate(1 * GB, bind_policy(4))
        daemon.track("cold", cold)
        daemon.observe({"cold": 0.0})
        report = daemon.step()
        assert "cold" in report.demoted
        assert cold.fraction_on(4) == 0.0
        knl_kernel.free(cold)

    def test_demotion_makes_room_for_promotion(self, knl_kernel):
        cfg = TierConfig(
            fast_nodes=(4,), slow_nodes=(0,),
            migration_budget_bytes=16 * GB,
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        cold = knl_kernel.allocate(3 * GB, bind_policy(4))  # fills MCDRAM
        hot = knl_kernel.allocate(3 * GB, bind_policy(0))
        daemon.track("cold", cold)
        daemon.track("hot", hot)
        daemon.observe({"hot": 30 * GB, "cold": 0.0})
        report = daemon.step()
        assert "cold" in report.demoted and "hot" in report.promoted
        assert hot.fraction_on(4) > 0.9
        knl_kernel.free(cold)
        knl_kernel.free(hot)

    def test_migration_budget_bounds_movement(self, knl_kernel):
        cfg = TierConfig(
            fast_nodes=(4,), slow_nodes=(0,),
            migration_budget_bytes=256 * MiB,
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        hot = knl_kernel.allocate(2 * GB, bind_policy(0))
        daemon.track("hot", hot)
        daemon.observe({"hot": 40 * GB})
        report = daemon.step()
        assert 0 < report.bytes_moved <= 256 * MiB + knl_kernel.page_size
        # Convergence takes several steps under a tight budget.
        for _ in range(12):
            daemon.observe({"hot": 40 * GB})
            daemon.step()
        assert hot.fraction_on(4) > 0.9
        knl_kernel.free(hot)

    def test_hotness_decays(self, daemon, knl_kernel):
        a = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("a", a)
        daemon.observe({"a": 20 * GB})
        daemon.step()
        h1 = daemon.hotness("a")
        daemon.step()  # no new accesses
        assert daemon.hotness("a") < h1
        knl_kernel.free(a)

    def test_stable_when_converged(self, daemon, knl_kernel):
        hot = knl_kernel.allocate(1 * GB, bind_policy(4))
        daemon.track("hot", hot)
        for _ in range(3):
            daemon.observe({"hot": 20 * GB})
            report = daemon.step()
        assert not report.promoted and not report.demoted
        assert report.bytes_moved == 0
        knl_kernel.free(hot)


class TestDemotionChurn:
    """Regression: demotion must only move pages resident in the fast tier."""

    def test_slow_resident_buffer_not_churned(self, knl_kernel):
        # Cold buffer split across TWO slow nodes, zero pages in the fast
        # tier.  The old daemon requested ``total_pages`` and let migrate
        # pull from any node, shuffling pages slow→slow and burning the
        # whole budget on a buffer already in the right tier.
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0, 1))
        daemon = AutoTierDaemon(knl_kernel, cfg)
        cold = knl_kernel.allocate(2 * GB, interleave_policy(0, 1))
        before = dict(cold.pages_by_node)
        assert len(before) == 2
        daemon.track("cold", cold)
        daemon.observe({"cold": 0.0})
        report = daemon.step()
        assert "cold" not in report.demoted
        assert report.bytes_moved == 0
        assert dict(cold.pages_by_node) == before
        knl_kernel.free(cold)

    def test_partially_fast_buffer_demotes_only_fast_pages(self, knl_kernel):
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        daemon = AutoTierDaemon(knl_kernel, cfg)
        cold = knl_kernel.allocate(2 * GB, interleave_policy(0, 4))
        slow_before = cold.pages_by_node[0]
        fast_before = cold.pages_by_node[4]
        daemon.track("cold", cold)
        daemon.observe({"cold": 0.0})
        report = daemon.step()
        assert "cold" in report.demoted
        assert cold.pages_by_node.get(4, 0) == 0
        assert cold.pages_by_node[0] == slow_before + fast_before
        # Exactly the fast-resident pages moved — nothing slow→slow.
        assert report.bytes_moved == fast_before * knl_kernel.page_size
        knl_kernel.free(cold)

    def test_promotion_ignores_fast_resident_pages(self, knl_kernel):
        # A hot buffer already split across two fast nodes must not have
        # its pages shuffled fast→fast in the name of promotion.
        cfg = TierConfig(fast_nodes=(4, 5), slow_nodes=(0,))
        daemon = AutoTierDaemon(knl_kernel, cfg)
        hot = knl_kernel.allocate(2 * GB, interleave_policy(4, 5))
        before = dict(hot.pages_by_node)
        daemon.track("hot", hot)
        daemon.observe({"hot": 40 * GB})
        report = daemon.step()
        assert report.bytes_moved == 0
        assert dict(hot.pages_by_node) == before
        knl_kernel.free(hot)


class TestEdgeCases:
    def test_zero_budget_moves_nothing(self, knl_kernel):
        cfg = TierConfig(
            fast_nodes=(4,), slow_nodes=(0,), migration_budget_bytes=0
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        cold = knl_kernel.allocate(1 * GB, bind_policy(4))
        daemon.track("hot", hot)
        daemon.track("cold", cold)
        daemon.observe({"hot": 20 * GB, "cold": 0.0})
        report = daemon.step()
        assert report.bytes_moved == 0
        assert not report.promoted and not report.demoted
        assert hot.fraction_on(0) == pytest.approx(1.0)
        assert cold.fraction_on(4) == pytest.approx(1.0)
        knl_kernel.free(hot)
        knl_kernel.free(cold)

    def test_fast_tier_full_promotion_skipped(self, knl_kernel):
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        daemon = AutoTierDaemon(knl_kernel, cfg)
        # An untracked squatter fills MCDRAM; the daemon may not demote it.
        squatter = knl_kernel.allocate(
            knl_kernel.free_bytes(4), bind_policy(4)
        )
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("hot", hot)
        daemon.observe({"hot": 20 * GB})
        report = daemon.step()
        assert "hot" not in report.promoted
        assert report.bytes_moved == 0
        assert hot.fraction_on(0) == pytest.approx(1.0)
        knl_kernel.free(squatter)
        knl_kernel.free(hot)

    def test_promotion_and_demotion_same_step(self, knl_kernel):
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        daemon = AutoTierDaemon(knl_kernel, cfg)
        cold = knl_kernel.allocate(1 * GB, bind_policy(4))
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("cold", cold)
        daemon.track("hot", hot)
        daemon.observe({"cold": 0.0, "hot": 20 * GB})
        report = daemon.step()
        assert "cold" in report.demoted and "hot" in report.promoted
        assert cold.fraction_on(4) == 0.0
        assert hot.fraction_on(4) == pytest.approx(1.0)
        knl_kernel.free(cold)
        knl_kernel.free(hot)

    def test_untrack_mid_schedule(self, daemon, knl_kernel):
        a = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("a", a)
        daemon.observe({"a": 20 * GB})
        daemon.untrack("a")
        report = daemon.step()
        assert not report.promoted and report.bytes_moved == 0
        assert a.fraction_on(0) == pytest.approx(1.0)
        with pytest.raises(ReproError):
            daemon.observe({"a": 1.0})
        daemon.untrack("a")  # idempotent
        knl_kernel.free(a)

    def test_observe_is_atomic(self, daemon, knl_kernel):
        # One bad entry must leave ALL hotness state untouched, including
        # entries validated before the bad one was reached.
        a = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("a", a)
        with pytest.raises(ReproError):
            daemon.observe({"a": 20 * GB, "ghost": 1.0})
        with pytest.raises(ReproError):
            daemon.observe({"a": 20 * GB, "ghost": -1.0})
        daemon.step()
        assert daemon.hotness("a") == 0.0
        knl_kernel.free(a)

    def test_negative_budget_rejected(self):
        with pytest.raises(ReproError):
            TierConfig(
                fast_nodes=(4,), slow_nodes=(0,), migration_budget_bytes=-1
            )


class TestResilience:
    def test_offline_fast_tier_skips_promotion(self, knl_kernel):
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        daemon = AutoTierDaemon(knl_kernel, cfg)
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("hot", hot)
        knl_kernel.offline_node(4)
        daemon.observe({"hot": 20 * GB})
        report = daemon.step()
        assert report.offline_tier_nodes == 1
        assert not report.promoted
        assert hot.fraction_on(0) == pytest.approx(1.0)
        # The tier comes back; the daemon resumes promoting.
        knl_kernel.online_node(4)
        daemon.observe({"hot": 20 * GB})
        report = daemon.step()
        assert "hot" in report.promoted
        knl_kernel.free(hot)

    def test_transient_failure_counted_and_retried_next_step(self, knl_kernel):
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        daemon = AutoTierDaemon(knl_kernel, cfg)
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("hot", hot)
        failures = [True]  # fail exactly the first migration attempt
        knl_kernel.migration_fault_hook = lambda: failures.pop() if failures else False
        daemon.observe({"hot": 20 * GB})
        report = daemon.step()
        assert report.transient_failures == 1
        assert not report.promoted
        daemon.observe({"hot": 20 * GB})
        report = daemon.step()
        assert "hot" in report.promoted
        assert report.transient_failures == 0
        knl_kernel.free(hot)


class TestPriceGuidance:
    """engine= + set_phase turns on priced move vetoes."""

    @staticmethod
    def _engine(knl_kernel):
        from repro.sim import SimEngine
        return SimEngine(knl_kernel.machine)

    @staticmethod
    def _phase(**traffic):
        from repro.sim import BufferAccess, KernelPhase, PatternKind
        return KernelPhase(
            name="guided",
            threads=64,
            accesses=tuple(
                BufferAccess(
                    buffer=name,
                    pattern=PatternKind.STREAM,
                    bytes_read=nbytes,
                    working_set=1 * GB,
                )
                for name, nbytes in traffic.items()
            ),
        )

    def test_set_phase_requires_engine(self, knl_kernel):
        d = AutoTierDaemon(
            knl_kernel, TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        )
        with pytest.raises(ReproError):
            d.set_phase(self._phase(a=1 * GB))

    def test_plain_daemon_prices_nothing(self, daemon, knl_kernel):
        a = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("a", a)
        daemon.observe({"a": 8 * GB})
        report = daemon.step()
        assert report.candidates_priced == 0
        assert report.price_vetoed == []

    def test_demotion_vetoed_when_phase_disagrees(self, knl_kernel):
        """Sampler-cold but phase-hot: the pricing predicts a big hit
        from demotion, so the move is vetoed."""
        engine = self._engine(knl_kernel)
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        d = AutoTierDaemon(knl_kernel, cfg, engine=engine)
        busy = knl_kernel.allocate(1 * GB, bind_policy(4))
        d.track("busy", busy)
        d.set_phase(self._phase(busy=64 * GB))
        d.observe({"busy": 1 * MiB})  # sampler saw almost nothing
        report = d.step()
        assert report.price_vetoed == ["busy"]
        assert report.demoted == []
        assert report.candidates_priced == 1

    def test_useful_moves_not_vetoed(self, knl_kernel):
        engine = self._engine(knl_kernel)
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        d = AutoTierDaemon(knl_kernel, cfg, engine=engine)
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        cold = knl_kernel.allocate(1 * GB, bind_policy(4))
        d.track("hot", hot)
        d.track("cold", cold)
        d.set_phase(self._phase(hot=64 * GB, cold=16 * MiB))
        d.observe({"hot": 8 * GB, "cold": 1 * MiB})
        report = d.step()
        assert report.promoted == ["hot"]
        assert report.demoted == ["cold"]
        assert report.price_vetoed == []
        assert report.candidates_priced == 2

    def test_untracked_phase_buffer_stands_down(self, knl_kernel):
        engine = self._engine(knl_kernel)
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        d = AutoTierDaemon(knl_kernel, cfg, engine=engine)
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        d.track("hot", hot)
        d.set_phase(self._phase(hot=64 * GB, ghost=64 * GB))
        d.observe({"hot": 8 * GB})
        report = d.step()
        # Guidance silently off: the plain heuristic still promotes.
        assert report.promoted == ["hot"]
        assert report.candidates_priced == 0

    def test_recompiles_after_attr_generation_bump(self, knl):
        from repro.core import MemAttrs
        from repro.kernel import KernelMemoryManager
        from repro.sim import SimEngine
        from repro.topology import build_topology

        topo = build_topology(knl)
        attrs = MemAttrs(topo)
        engine = SimEngine(knl, topo, attrs=attrs)
        kern = KernelMemoryManager(knl)
        cfg = TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        d = AutoTierDaemon(kern, cfg, engine=engine)
        hot = kern.allocate(1 * GB, bind_policy(0))
        d.track("hot", hot)
        d.set_phase(self._phase(hot=64 * GB))
        d.observe({"hot": 8 * GB})
        assert d.step().promoted == ["hot"]
        # Move the attribute generation: the next step prices under the
        # new attribute values, on the phase prepared before the bump.
        node = topo.numanodes()[0]
        attrs.set_value("Bandwidth", node, (0,), 1e9)
        kern.migrate(hot, 0)  # push it back out of the fast tier
        d.observe({"hot": 8 * GB})
        report = d.step()
        assert report.promoted == ["hot"]
        assert report.candidates_priced == 1


class TestPromotionSpill:
    """Regression: promotion must spill across fast nodes, not stall on one.

    The old loop picked the single roomiest fast node and gave up when the
    buffer outgrew its headroom — a hot buffer larger than any one MCDRAM
    node never promoted fully even with the whole tier half empty.
    """

    def test_spills_across_two_fast_nodes(self, knl_kernel):
        cfg = TierConfig(
            fast_nodes=(4, 5), slow_nodes=(0,),
            migration_budget_bytes=16 * GB,
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        # Larger than either MCDRAM node's ~3.97 GB free, smaller than both.
        hot = knl_kernel.allocate(6 * GB, bind_policy(0))
        daemon.track("hot", hot)
        daemon.observe({"hot": 60 * GB})
        report = daemon.step()
        assert report.promoted == ["hot"]  # one entry despite two moves
        assert hot.pages_by_node.get(4, 0) > 0
        assert hot.pages_by_node.get(5, 0) > 0
        assert hot.pages_by_node.get(0, 0) == 0
        assert hot.fraction_on(4) + hot.fraction_on(5) == pytest.approx(1.0)
        assert report.bytes_moved == hot.total_pages * knl_kernel.page_size
        knl_kernel.free(hot)

    def test_spill_respects_budget(self, knl_kernel):
        cfg = TierConfig(
            fast_nodes=(4, 5), slow_nodes=(0,),
            migration_budget_bytes=5 * GB,
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        hot = knl_kernel.allocate(6 * GB, bind_policy(0))
        daemon.track("hot", hot)
        daemon.observe({"hot": 60 * GB})
        report = daemon.step()
        # Budget caps the move mid-spill; the rest promotes next step.
        assert 0 < report.bytes_moved <= 5 * GB + knl_kernel.page_size
        assert hot.pages_by_node.get(0, 0) > 0
        daemon.observe({"hot": 60 * GB})
        daemon.step()
        assert hot.pages_by_node.get(0, 0) == 0
        knl_kernel.free(hot)


class TestBudgetBoundaries:
    """Budget smaller than one page: both loops must stop, not spin."""

    def test_subpage_budget_blocks_demotion(self, knl_kernel):
        cfg = TierConfig(
            fast_nodes=(4,), slow_nodes=(0,),
            migration_budget_bytes=knl_kernel.page_size - 1,
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        cold = knl_kernel.allocate(1 * GB, bind_policy(4))
        daemon.track("cold", cold)
        daemon.observe({"cold": 0.0})
        report = daemon.step()
        assert not report.demoted and report.bytes_moved == 0
        assert cold.fraction_on(4) == pytest.approx(1.0)
        knl_kernel.free(cold)

    def test_subpage_budget_blocks_promotion(self, knl_kernel):
        cfg = TierConfig(
            fast_nodes=(4,), slow_nodes=(0,),
            migration_budget_bytes=knl_kernel.page_size - 1,
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("hot", hot)
        daemon.observe({"hot": 20 * GB})
        report = daemon.step()
        assert not report.promoted and report.bytes_moved == 0
        assert hot.fraction_on(0) == pytest.approx(1.0)
        knl_kernel.free(hot)

    def test_demotion_consumes_budget_to_subpage(self, knl_kernel):
        # Demotion spends all but a sub-page sliver; the promotion loop
        # must break cleanly instead of attempting a zero-page migrate.
        cfg = TierConfig(
            fast_nodes=(4,), slow_nodes=(0,),
            migration_budget_bytes=1 * GB + 2 * KiB,
        )
        daemon = AutoTierDaemon(knl_kernel, cfg)
        cold = knl_kernel.allocate(1 * GB, bind_policy(4))
        hot = knl_kernel.allocate(1 * GB, bind_policy(0))
        daemon.track("cold", cold)
        daemon.track("hot", hot)
        daemon.observe({"cold": 0.0, "hot": 20 * GB})
        report = daemon.step()
        assert report.demoted == ["cold"]
        assert not report.promoted
        assert report.bytes_moved == cold.total_pages * knl_kernel.page_size
        assert hot.fraction_on(0) == pytest.approx(1.0)
        knl_kernel.free(cold)
        knl_kernel.free(hot)


class TestObserveAtomicityProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        good=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=0,
            max_size=3,
        ),
        bad_kind=st.sampled_from(["unknown", "negative"]),
        prior=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    )
    def test_failed_observe_changes_nothing(self, good, bad_kind, prior):
        """All-or-nothing: any invalid entry leaves hotness AND the pending
        interval volumes exactly as they were — for every tracked buffer,
        wherever the bad entry lands in the dict."""
        km = KernelMemoryManager(get_platform("knl-snc4-flat"))
        daemon = AutoTierDaemon(
            km, TierConfig(fast_nodes=(4,), slow_nodes=(0,))
        )
        for name in ("a", "b", "c"):
            daemon.track(name, km.allocate(64 * MiB, bind_policy(0)))
        daemon.observe({"a": prior})  # pending, un-stepped state
        before = {
            name: (t.hotness, t.bytes_this_interval)
            for name, t in daemon._tracked.items()
        }
        bad = dict(good)
        if bad_kind == "unknown":
            bad["ghost"] = 1.0
        else:
            bad["b"] = -1.0
        with pytest.raises(ReproError):
            daemon.observe(bad)
        after = {
            name: (t.hotness, t.bytes_this_interval)
            for name, t in daemon._tracked.items()
        }
        assert after == before
