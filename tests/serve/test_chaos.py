"""The daemon under fire: fault injection, page conservation, typed events.

A seeded :class:`FaultPlan` is replayed against a live server while
tenants keep allocating, freeing and migrating.  Fault ticks are
injected through ``run_admin`` so they serialize with commits — exactly
where a production operator hook would sit.  The contract under test:

* kernel page accounting stays conserved (``check_invariants`` clean)
  through node offlining, capacity theft, and attribute degradation;
* **nothing degrades silently** — every alloc response flagged
  ``degraded`` has exactly one ``placement-degraded`` event with the
  tenant/handle subject, every failed alloc an ``allocation-failed``
  event, and vice versa;
* sessions survive faults: close still frees everything and the ledger
  drains to zero.
"""

import asyncio

import pytest

from repro import quick_setup
from repro.alloc import HeterogeneousAllocator
from repro.kernel import KernelMemoryManager
from repro.resilience import EventKind, FaultClock, FaultPlan, check_invariants
from repro.serve import ReproServeServer, ServeClient
from repro.units import MiB

PLATFORM = "xeon-cascadelake-1lm"
ATTRIBUTES = ("Bandwidth", "Latency", "Capacity")


@pytest.fixture(scope="module")
def base():
    return quick_setup(PLATFORM)


def fresh_allocator(base):
    return HeterogeneousAllocator(base.memattrs, KernelMemoryManager(base.machine))


async def chaos_session(allocator, *, seed: int, ticks: int, tenants: int, ops: int):
    """Run tenants against a server while a fault clock fires; returns
    (server, per-response records) for auditing."""
    server = ReproServeServer(allocator)
    clock = FaultClock(
        FaultPlan.random(
            seed, nodes=allocator.kernel.node_ids(), ticks=ticks
        ),
        allocator.kernel,
        memattrs=allocator.memattrs,
        log=server.core.log,
    )
    records: list[tuple[str, str, object]] = []

    async def tenant_task(name: str) -> None:
        client = ServeClient(server, name)
        assert (await client.open()).ok
        live: list[str] = []
        for i in range(ops):
            attr = ATTRIBUTES[(i + len(name)) % len(ATTRIBUTES)]
            if i % 4 == 3 and live:
                handle = live.pop(0)
                await client.free(handle)
            elif i % 7 == 5 and live:
                reply = await client.migrate(live[0], attr)
                records.append((name, "migrate", reply))
            else:
                handle = f"h{i}"
                reply = await client.alloc(handle, 4 * MiB, attr, 0)
                if reply.ok:
                    live.append(handle)
                records.append((name, f"{name}/{handle}", reply))
            await asyncio.sleep(0)

    async def fault_task() -> None:
        for _ in range(ticks):
            await server.run_admin(clock.tick)
            for _ in range(3):
                await asyncio.sleep(0)

    async with server:
        await asyncio.gather(
            fault_task(), *(tenant_task(f"t{i}") for i in range(tenants))
        )
        closers = [
            ServeClient(server, tenant) for tenant in list(server.core.sessions)
        ]
        for closer in closers:
            assert (await closer.close()).ok
    return server, records


def run_chaos_session(base, **kwargs):
    allocator = fresh_allocator(base)
    server, records = asyncio.run(chaos_session(allocator, **kwargs))
    return allocator, server, records


class TestChaosInvariants:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_page_conservation_under_faults(self, base, seed):
        allocator, server, _ = run_chaos_session(
            base, seed=seed, ticks=10, tenants=3, ops=18
        )
        violations = check_invariants(allocator.kernel, allocator)
        assert not violations, violations
        # Every session closed: the ledger is empty and nothing leaked.
        assert not server.core.sessions
        assert server.core.ledger.snapshot() == {}

    def test_faults_actually_fired(self, base):
        _, server, _ = run_chaos_session(base, seed=0, ticks=10, tenants=3, ops=18)
        fault_kinds = {
            EventKind.NODE_OFFLINE,
            EventKind.CAPACITY_LOSS,
            EventKind.ATTRS_DEGRADED,
            EventKind.MIGRATION_FLAKY_ARMED,
            EventKind.NODE_ONLINE,
            EventKind.CAPACITY_RESTORED,
            EventKind.FAULT_SKIPPED,
        }
        assert server.core.log.of_kind(*fault_kinds), (
            "fault clock never landed a fault — the soak is vacuous"
        )


class TestNothingDegradesSilently:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_degraded_allocs_match_events_one_to_one(self, base, seed):
        _, server, records = run_chaos_session(
            base, seed=seed, ticks=10, tenants=3, ops=18
        )
        degraded_subjects = sorted(
            subject
            for _, subject, reply in records
            if reply.ok and reply.result.get("degraded")
        )
        event_subjects = sorted(
            e.subject
            for e in server.core.log.of_kind(EventKind.PLACEMENT_DEGRADED)
        )
        assert degraded_subjects == event_subjects

        failed_subjects = sorted(
            subject
            for _, subject, reply in records
            if reply.error == "allocation-failed"
        )
        failed_events = sorted(
            e.subject
            for e in server.core.log.of_kind(EventKind.ALLOCATION_FAILED)
        )
        assert failed_subjects == failed_events

    def test_sweep_produces_degradations(self, base):
        """Guard against the 1:1 check passing vacuously (0 == 0)."""
        degraded = 0
        for seed in (0, 3, 11):
            _, server, _ = run_chaos_session(
                base, seed=seed, ticks=10, tenants=3, ops=18
            )
            degraded += len(
                server.core.log.of_kind(EventKind.PLACEMENT_DEGRADED)
            )
        assert degraded > 0


class TestSoak:
    def test_long_mixed_run_stays_conserved(self, base):
        """A longer run — hundreds of requests over many fault ticks —
        ends with clean accounting and a fully drained ledger."""
        allocator, server, records = run_chaos_session(
            base, seed=7, ticks=24, tenants=4, ops=100
        )
        assert len(records) >= 280
        violations = check_invariants(allocator.kernel, allocator)
        assert not violations, violations
        free = allocator.kernel.free_pages_array()
        assert all(f >= 0 for f in free)
        assert len(allocator.kernel.live_allocations()) == 0
