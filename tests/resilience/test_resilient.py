"""ResilientAllocator: degradation events, retry-with-backoff, rollback."""

import pytest

from repro.errors import AllocationError, TransientMigrationError
from repro.resilience import EventKind, ResilienceLog, ResilientAllocator
from repro.units import GB, MiB, TiB


@pytest.fixture()
def ralloc(xeon_setup):
    return ResilientAllocator(xeon_setup.allocator, log=ResilienceLog())


class TestDegradationEvents:
    def test_clean_placement_records_nothing(self, ralloc):
        buf = ralloc.mem_alloc(1 * GB, "Bandwidth", 0, name="clean")
        assert len(ralloc.log) == 0
        ralloc.free(buf)

    def test_best_target_offline_recorded(self, ralloc, xeon_setup):
        _, ranked = xeon_setup.allocator.rank_for("Bandwidth", 0)
        best = ranked[0].target.os_index
        xeon_setup.kernel.offline_node(best)
        buf = ralloc.mem_alloc(1 * GB, "Bandwidth", 0, name="b")
        assert best not in buf.nodes
        (event,) = ralloc.log.of_kind(EventKind.PLACEMENT_DEGRADED)
        assert event.subject == "b"
        assert f"best-target-offline:node{best}" in event.detail
        ralloc.free(buf)

    def test_capacity_fallback_recorded(self, ralloc, xeon_setup):
        _, ranked = xeon_setup.allocator.rank_for("Bandwidth", 0)
        best = ranked[0].target.os_index
        filler = ralloc.mem_alloc(
            xeon_setup.kernel.free_bytes(best), "Bandwidth", 0, name="filler"
        )
        buf = ralloc.mem_alloc(1 * GB, "Bandwidth", 0, name="spill")
        assert best not in buf.nodes
        (event,) = ralloc.log.of_kind(EventKind.PLACEMENT_DEGRADED)
        assert event.subject == "spill"
        assert "capacity-fallback" in event.detail
        ralloc.free(buf)
        ralloc.free(filler)

    def test_partial_spill_recorded(self, ralloc, xeon_setup):
        _, ranked = xeon_setup.allocator.rank_for("Bandwidth", 0)
        best = ranked[0].target.os_index
        filler = ralloc.mem_alloc(
            xeon_setup.kernel.free_bytes(best) - 512 * MiB,
            "Bandwidth",
            0,
            name="filler",
        )
        buf = ralloc.mem_alloc(
            2 * GB, "Bandwidth", 0, name="split", allow_partial=True
        )
        assert buf.is_split
        (event,) = ralloc.log.of_kind(EventKind.PLACEMENT_DEGRADED)
        assert "partial-spill" in event.detail
        ralloc.free(buf)
        ralloc.free(filler)

    def test_failure_is_typed_and_recorded(self, ralloc):
        with pytest.raises(AllocationError):
            ralloc.mem_alloc(100 * TiB, "Bandwidth", 0, name="huge")
        (event,) = ralloc.log.of_kind(EventKind.ALLOCATION_FAILED)
        assert event.subject == "huge"
        assert "Error" in event.detail

    def test_mem_alloc_many_rolls_back_and_records(self, ralloc, xeon_setup):
        live_before = len(xeon_setup.kernel.live_allocations())
        with pytest.raises(AllocationError):
            ralloc.mem_alloc_many(
                [
                    {"size": 1 * GB, "attribute": "Bandwidth", "initiator": 0,
                     "name": "ok"},
                    {"size": 100 * TiB, "attribute": "Bandwidth", "initiator": 0,
                     "name": "doomed"},
                ]
            )
        assert len(xeon_setup.kernel.live_allocations()) == live_before
        assert len(ralloc.log.of_kind(EventKind.ALLOCATION_FAILED)) == 1


class TestLogSince:
    def test_since_returns_the_events_after_a_mark(self):
        log = ResilienceLog()
        log.record(EventKind.QUOTA_EXCEEDED, "t/a")
        mark = len(log)
        assert log.since(mark) == ()
        later = (
            log.record(EventKind.PLACEMENT_DEGRADED, "t/b", "capacity-fallback"),
            log.record(EventKind.MIGRATION_RETRY, "t/b"),
        )
        assert log.since(mark) == later
        assert log.since(0) == log.events
        assert log.since(len(log)) == ()


class TestLogCounts:
    def test_counts_equal_a_recount(self):
        log = ResilienceLog()
        kinds = [
            EventKind.QUOTA_EXCEEDED, EventKind.PLACEMENT_DEGRADED,
            EventKind.QUOTA_EXCEEDED, EventKind.MIGRATION_RETRY,
            EventKind.PLACEMENT_DEGRADED, EventKind.QUOTA_EXCEEDED,
        ]
        for i, kind in enumerate(kinds):
            log.record(kind, f"t/{i}")
        recount: dict = {}
        for event in log.events:
            recount[event.kind] = recount.get(event.kind, 0) + 1
        assert log.counts() == recount
        assert list(log.counts()) == list(recount)   # first-event order
        log.counts()[EventKind.QUOTA_EXCEEDED] = 0    # a copy, not the tally
        assert log.counts() == recount


class TestMigrationRetry:
    def test_transient_failures_retried_until_success(self, ralloc, xeon_setup):
        buf = ralloc.mem_alloc(1 * GB, "Bandwidth", 0, name="m")
        failures = [True, True]  # first two attempts fail
        xeon_setup.kernel.migration_fault_hook = (
            lambda: failures.pop() if failures else False
        )
        report = ralloc.migrate(buf, "Capacity")
        assert report.moved_pages > 0
        retries = ralloc.log.of_kind(EventKind.MIGRATION_RETRY)
        assert len(retries) == 2
        # Deterministic exponential backoff: base + 2*base.
        assert ralloc.simulated_backoff_seconds == pytest.approx(
            ralloc.backoff_base_seconds * 3
        )
        assert not ralloc.log.of_kind(EventKind.MIGRATION_GAVE_UP)
        ralloc.free(buf)

    def test_gives_up_after_max_retries(self, ralloc, xeon_setup):
        buf = ralloc.mem_alloc(1 * GB, "Bandwidth", 0, name="m")
        xeon_setup.kernel.migration_fault_hook = lambda: True
        with pytest.raises(TransientMigrationError):
            ralloc.migrate(buf, "Capacity")
        assert len(ralloc.log.of_kind(EventKind.MIGRATION_RETRY)) == (
            ralloc.max_migration_retries
        )
        assert len(ralloc.log.of_kind(EventKind.MIGRATION_GAVE_UP)) == 1
        xeon_setup.kernel.migration_fault_hook = None
        ralloc.free(buf)

    def test_zero_retries_fails_fast(self, xeon_setup):
        ralloc = ResilientAllocator(
            xeon_setup.allocator, max_migration_retries=0
        )
        buf = ralloc.mem_alloc(1 * GB, "Bandwidth", 0, name="m")
        xeon_setup.kernel.migration_fault_hook = lambda: True
        with pytest.raises(TransientMigrationError):
            ralloc.migrate(buf, "Capacity")
        assert not ralloc.log.of_kind(EventKind.MIGRATION_RETRY)
        assert ralloc.simulated_backoff_seconds == 0.0

    def test_negative_retries_rejected(self, xeon_setup):
        with pytest.raises(AllocationError):
            ResilientAllocator(xeon_setup.allocator, max_migration_retries=-1)
