"""Reactive page auto-tiering (Linux TPP / AutoNUMA-demotion style).

The paper's approach is *declarative*: the application states each
buffer's needs up front.  The competing school is *reactive*: the kernel
watches access frequencies and migrates hot pages to the fast tier and
cold pages down, with no application changes — the software sibling of
KNL's hardware Cache mode, carrying the same trade-off (§II-A:
productivity vs tuned performance; plus convergence lag and migration
churn).

:class:`AutoTierDaemon` implements the reactive loop over our kernel:
callers feed per-buffer access volumes each interval (`observe`), and
`step()` promotes the hottest buffers into the fast tier / demotes the
coldest out, within a migration budget.  The ablation benchmark compares
its convergence against the attribute allocator's immediate placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError, TransientMigrationError
from ..obs import OBS
from ..sim.access import Placement
from .migration import MigrationReport
from .pagealloc import KernelMemoryManager, PageAllocation

__all__ = ["TierConfig", "AutoTierDaemon"]


@dataclass(frozen=True)
class TierConfig:
    """Which nodes form the fast tier, and the daemon's knobs."""

    fast_nodes: tuple[int, ...]
    slow_nodes: tuple[int, ...]
    #: hotness (bytes accessed per byte of buffer per interval) above which
    #: a buffer is a promotion candidate.
    promotion_threshold: float = 1.0
    #: hotness below which a resident buffer is a demotion candidate.
    demotion_threshold: float = 0.1
    #: max bytes migrated per step (migration bandwidth budget).
    migration_budget_bytes: int = 4 << 30
    #: exponential decay applied to hotness each step (history smoothing).
    decay: float = 0.5
    #: price-guided mode only: a demotion is vetoed when its predicted
    #: phase time exceeds the current placement's by more than this
    #: relative slack (freeing fast-tier room is worth a small hit, but
    #: not a large one).
    demotion_price_slack: float = 0.05

    def __post_init__(self) -> None:
        if not self.fast_nodes or not self.slow_nodes:
            raise ReproError("both tiers need at least one node")
        if set(self.fast_nodes) & set(self.slow_nodes):
            raise ReproError("a node cannot be in both tiers")
        if not 0 <= self.decay <= 1:
            raise ReproError("decay must be in [0, 1]")
        if self.migration_budget_bytes < 0:
            raise ReproError("migration budget must be non-negative")
        if self.promotion_threshold <= self.demotion_threshold:
            raise ReproError("promotion threshold must exceed demotion threshold")
        if self.demotion_price_slack < 0:
            raise ReproError("demotion price slack must be non-negative")


@dataclass
class _Tracked:
    allocation: PageAllocation
    hotness: float = 0.0
    bytes_this_interval: float = 0.0


@dataclass
class StepReport:
    """What one daemon step did."""

    promoted: list[str] = field(default_factory=list)
    demoted: list[str] = field(default_factory=list)
    migrations: list[MigrationReport] = field(default_factory=list)
    bytes_moved: int = 0
    #: migrations skipped because the kernel reported a transient failure
    #: (the buffer stays where it is; next step retries naturally).
    transient_failures: int = 0
    #: tier nodes found offline this step (that tier direction is skipped).
    offline_tier_nodes: int = 0
    #: price-guided mode: moves skipped because the pricing predicts no
    #: gain (promotions) or too large a hit (demotions).
    price_vetoed: list[str] = field(default_factory=list)
    #: placement variants priced this step (0 when price guidance is off).
    candidates_priced: int = 0

    @property
    def migration_seconds(self) -> float:
        return sum(m.estimated_seconds for m in self.migrations)


class AutoTierDaemon:
    """The reactive tiering loop.

    Passing ``engine=`` (a :class:`~repro.sim.engine.SimEngine`) and a
    workload phase via :meth:`set_phase` turns on *price-guided* mode:
    each step prices the current placement plus every candidate
    promotion/demotion variant through
    :meth:`~repro.sim.engine.SimEngine.price_prepared` on the phase
    prepared once per :meth:`set_phase`, vetoing moves the model
    predicts to be useless or harmful.  Without an engine (the default)
    behaviour is byte-identical to the plain hotness heuristic.
    """

    def __init__(
        self,
        kernel: KernelMemoryManager,
        config: TierConfig,
        *,
        engine=None,
    ) -> None:
        unknown = (set(config.fast_nodes) | set(config.slow_nodes)) - set(
            kernel.node_ids()
        )
        if unknown:
            raise ReproError(f"tier config references unknown nodes {sorted(unknown)}")
        self.kernel = kernel
        self.config = config
        self._tracked: dict[str, _Tracked] = {}
        self._engine = engine
        self._phase = None
        self._pus: tuple[int, ...] | None = None
        self._prepared = None

    def set_phase(self, phase, *, pus: tuple[int, ...] | None = None) -> None:
        """Declare the workload phase that price-guided steps simulate.

        ``phase`` is a :class:`~repro.sim.access.KernelPhase` whose
        buffer names match :meth:`track` names (a phase buffer that is
        not tracked disables guidance until it is).  ``None`` switches
        guidance off.
        """
        if phase is not None and self._engine is None:
            raise ReproError("set_phase needs a daemon constructed with engine=")
        self._phase = phase
        self._pus = pus
        self._prepared = None

    # ------------------------------------------------------------------
    def track(self, name: str, allocation: PageAllocation) -> None:
        """Register a buffer for tier management."""
        if name in self._tracked:
            raise ReproError(f"buffer {name!r} already tracked")
        self._tracked[name] = _Tracked(allocation=allocation)

    def untrack(self, name: str) -> None:
        self._tracked.pop(name, None)

    def observe(self, accesses_bytes: dict[str, float]) -> None:
        """Feed one interval's access volumes (bytes touched per buffer).

        Stands in for the page-fault/PMU sampling a real kernel uses.
        Validation is all-or-nothing: a bad entry anywhere in the dict
        raises *before* any hotness state is touched, so a failed call
        leaves the daemon exactly as it was.
        """
        for name, nbytes in accesses_bytes.items():
            if name not in self._tracked:
                raise ReproError(f"unknown buffer {name!r}")
            if nbytes < 0:
                raise ReproError("access volume must be non-negative")
        for name, nbytes in accesses_bytes.items():
            self._tracked[name].bytes_this_interval += nbytes

    # ------------------------------------------------------------------
    def _fraction_fast(self, alloc: PageAllocation) -> float:
        return sum(alloc.fraction_on(n) for n in self.config.fast_nodes)

    def _price_guidance(
        self,
        fast: tuple[int, ...],
        slow: tuple[int, ...],
        report: StepReport,
    ) -> tuple[set[str], set[str]]:
        """Predict this step's candidate moves, one pricing per placement.

        Prices the current placement, then one variant per candidate —
        that buffer's fast-resident share pushed to the roomiest slow node
        (demotions) or its non-fast share pulled to the roomiest fast node
        (promotions) — each through :meth:`SimEngine.price_prepared` on
        the phase prepared once per :meth:`set_phase`.  Returns the
        (demote, promote) veto sets.  Guidance quietly stands down when
        the phase references untracked buffers or a tier is empty.
        """
        cfg = self.config
        if self._engine is None or self._phase is None or not fast or not slow:
            return set(), set()
        demote_cands = [
            name
            for name, t in self._tracked.items()
            if t.hotness < cfg.demotion_threshold
            and any(t.allocation.pages_by_node.get(n, 0) for n in fast)
        ]
        promote_cands = [
            name
            for name, t in self._tracked.items()
            if t.hotness >= cfg.promotion_threshold
            and self._fraction_fast(t.allocation) < 0.999
        ]
        if not demote_cands and not promote_cands:
            return set(), set()
        if self._prepared is None:
            self._prepared = self._engine.prepare_phase(self._phase, pus=self._pus)
        tracked = self._tracked
        buffers = [access.buffer for access in self._phase.accesses]
        if any(b not in tracked for b in buffers):
            return set(), set()

        # Splits list their nodes in ascending order and leave empty ones
        # out; a variant moves one buffer's share and keeps that order.
        axis = sorted(self.kernel.node_ids())
        base = {}
        for name in buffers:
            alloc = tracked[name].allocation
            base[name] = {
                n: alloc.fraction_on(n) for n in axis if alloc.pages_by_node.get(n)
            }
        fast_dest = max(fast, key=self.kernel.free_bytes)
        slow_dest = max(slow, key=self.kernel.free_bytes)
        non_fast = [n for n in axis if n not in cfg.fast_nodes]

        def seconds(fractions: dict[str, dict[int, float]]) -> float:
            return self._engine.price_prepared(
                self._prepared, Placement(fractions)
            ).seconds

        def diverted(name: str, sources, dest: int) -> float:
            """Phase seconds with ``name``'s share on ``sources`` at ``dest``."""
            split = base.get(name)
            if split is None:  # a buffer the phase does not touch
                return baseline
            moved = 0.0
            for n in sources:
                moved += split.get(n, 0.0)
            new = {n: f for n, f in split.items() if n not in sources}
            new[dest] = new.get(dest, 0.0) + moved
            return seconds({**base, name: dict(sorted(new.items()))})

        baseline = seconds(base)
        report.candidates_priced = len(demote_cands) + len(promote_cands)
        limit = baseline * (1.0 + cfg.demotion_price_slack)
        veto_demote = {
            name for name in demote_cands
            if diverted(name, fast, slow_dest) > limit
        }
        veto_promote = {
            name for name in promote_cands
            if diverted(name, non_fast, fast_dest) >= baseline
        }
        return veto_demote, veto_promote

    def hotness(self, name: str) -> float:
        try:
            return self._tracked[name].hotness
        except KeyError:
            raise ReproError(f"unknown buffer {name!r}") from None

    def tracked_allocations(self) -> dict[str, PageAllocation]:
        """The live allocation record per tracked buffer (read-only view)."""
        return {name: t.allocation for name, t in self._tracked.items()}

    def projected_hotness(self) -> dict[str, float]:
        """What each buffer's hotness *will be* after the next interval close.

        Applies the decay formula to the pending (un-stepped) access
        volumes without mutating any state — drivers like
        :class:`~repro.profiler.guidance.GuidanceLoop` use it to decide
        whether the coming :meth:`step` would migrate anything at all.
        """
        cfg = self.config
        return {
            name: cfg.decay * t.hotness
            + (1 - cfg.decay)
            * (t.bytes_this_interval / max(t.allocation.size_bytes, 1))
            for name, t in self._tracked.items()
        }

    def close_interval(self) -> None:
        """Fold the pending interval into hotness *without* migrating.

        The re-placement half of :meth:`step` is skipped entirely; decay
        and the pending-byte fold are identical to what a step would do.
        Drivers call this on intervals where the hotness ranking already
        matches tier residency, so converged workloads pay no candidate
        enumeration or pricing.
        """
        self._decay_interval()

    def step(self) -> StepReport:
        """Close one interval: update hotness, demote cold, promote hot."""
        if not OBS.enabled:
            return self._step_impl()
        with OBS.tracer.span("autotier.step") as span:
            report = self._step_impl()
            metrics = OBS.metrics
            metrics.counter("autotier.steps").inc()
            metrics.counter("autotier.promotions").inc(len(report.promoted))
            metrics.counter("autotier.demotions").inc(len(report.demoted))
            metrics.counter("autotier.bytes_moved").inc(report.bytes_moved)
            if report.transient_failures:
                metrics.counter("autotier.transient_failures").inc(
                    report.transient_failures
                )
            if report.offline_tier_nodes:
                metrics.counter("autotier.offline_tier_nodes").inc(
                    report.offline_tier_nodes
                )
            if report.candidates_priced:
                metrics.counter("autotier.candidates_priced").inc(
                    report.candidates_priced
                )
            if report.price_vetoed:
                metrics.counter("autotier.price_vetoes").inc(
                    len(report.price_vetoed)
                )
            span.fields.update(
                promoted=len(report.promoted),
                demoted=len(report.demoted),
                bytes_moved=report.bytes_moved,
            )
            return report

    def _decay_interval(self) -> None:
        cfg = self.config
        for t in self._tracked.values():
            density = t.bytes_this_interval / max(t.allocation.size_bytes, 1)
            t.hotness = cfg.decay * t.hotness + (1 - cfg.decay) * density
            t.bytes_this_interval = 0.0

    def _step_impl(self) -> StepReport:
        cfg = self.config
        report = StepReport()
        self._decay_interval()

        budget = cfg.migration_budget_bytes
        # Tier nodes can vanish mid-run (hot-unplug, co-tenant eviction):
        # work with what is still online and skip a direction entirely when
        # its tier is gone, rather than migrating into a dead node.
        fast = tuple(n for n in cfg.fast_nodes if self.kernel.is_online(n))
        slow = tuple(n for n in cfg.slow_nodes if self.kernel.is_online(n))
        report.offline_tier_nodes = (
            len(cfg.fast_nodes) - len(fast) + len(cfg.slow_nodes) - len(slow)
        )

        # Price-guided mode: every candidate move priced against the
        # pre-step placement.  Vetoes are advisory per buffer;
        # the hotness loops below still decide ordering and budget.
        veto_demote, veto_promote = self._price_guidance(fast, slow, report)

        # Demote cold residents first: frees fast-tier room.  Only pages
        # actually resident in the fast tier move (``from_nodes=fast``) —
        # demoting a buffer that already lives in the slow tier would burn
        # the migration budget moving pages slow→slow.
        for name, t in sorted(self._tracked.items(), key=lambda kv: kv[1].hotness):
            if not slow or t.hotness >= cfg.demotion_threshold:
                break
            if budget <= 0:
                break
            fast_resident = sum(
                t.allocation.pages_by_node.get(n, 0) for n in fast
            )
            if fast_resident == 0:
                continue
            if name in veto_demote:
                report.price_vetoed.append(name)
                continue
            dest = max(slow, key=self.kernel.free_bytes)
            pages = min(fast_resident, budget // self.kernel.page_size)
            if pages == 0:
                break
            try:
                migration = self.kernel.migrate(
                    t.allocation, dest, pages=pages, from_nodes=fast
                )
            except TransientMigrationError:
                report.transient_failures += 1
                continue
            if migration.moved_pages:
                report.demoted.append(name)
                report.migrations.append(migration)
                report.bytes_moved += migration.bytes_moved
                budget -= migration.bytes_moved

        # Promote the hottest candidates while room and budget remain.
        # Symmetrically, only pages *outside* the fast tier move — pulling
        # pages from one fast node into another is churn, not promotion.
        # A promotion *spills* across fast nodes (roomiest first): a buffer
        # larger than any single fast node's headroom still promotes fully
        # instead of silently stalling on the one roomiest destination.
        non_fast = tuple(
            n for n in self.kernel.node_ids() if n not in cfg.fast_nodes
        )
        for name, t in sorted(
            self._tracked.items(), key=lambda kv: -kv[1].hotness
        ):
            if not fast or t.hotness < cfg.promotion_threshold or budget <= 0:
                break
            if budget // self.kernel.page_size == 0:
                # Remaining budget cannot move even one page; no later
                # (colder) buffer can do better, mirroring the demotion
                # loop's break.
                break
            if self._fraction_fast(t.allocation) >= 0.999:
                continue
            if name in veto_promote:
                report.price_vetoed.append(name)
                continue
            needed = sum(
                t.allocation.pages_by_node.get(n, 0) for n in non_fast
            )
            for dest in sorted(
                fast, key=lambda n: (-self.kernel.free_bytes(n), n)
            ):
                budget_pages = budget // self.kernel.page_size
                if needed == 0 or budget_pages == 0:
                    break
                pages = min(
                    needed,
                    budget_pages,
                    self.kernel.free_bytes(dest) // self.kernel.page_size,
                )
                if pages == 0:
                    # This fast node is full — the next one may have room.
                    continue
                try:
                    migration = self.kernel.migrate(
                        t.allocation, dest, pages=pages, from_nodes=non_fast
                    )
                except TransientMigrationError:
                    report.transient_failures += 1
                    break
                if migration.moved_pages:
                    if name not in report.promoted:
                        report.promoted.append(name)
                    report.migrations.append(migration)
                    report.bytes_moved += migration.bytes_moved
                    budget -= migration.bytes_moved
                    needed -= migration.moved_pages

        return report
