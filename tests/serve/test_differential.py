"""Concurrent daemon ≡ serial replay — the determinism differential.

For ~100 seeded random machines, the same multi-tenant request schedule
is applied twice on fresh stacks:

* serially, straight through ``ServeCore.apply`` in ``seq`` order;
* concurrently, through a sequenced ``ReproServeServer`` with one
  asyncio task per tenant and seeded arrival jitter, so requests arrive
  out of schedule order and coalesce into batches whose boundaries
  depend on timing.

Everything externally visible must be bit-identical: final kernel
free-page counters, every tenant's per-handle page map, the quota
ledger, co-tenant holds, every response (diagnostics stripped), and the
typed-event log *as an ordered sequence* — strictly stronger than the
multiset equality the acceptance bar asks for.  Ten of the seeds also
replay over loopback TCP, through the stream front end.
"""

import random

import pytest

from repro.core import MemAttrs, native_discovery
from repro.kernel import KernelMemoryManager
from repro.alloc import HeterogeneousAllocator
from repro.serve import ReproServeServer, ServeCore
from repro.serve.replay import (
    event_signature,
    over_the_wire,
    response_signature,
    run_concurrent,
    run_serial,
    run_stream,
    seeded_schedule,
    signatures,
    state_signature,
)
from repro.resilience import check_invariants
from repro.topology import build_topology

from tests.obs.test_differential import random_machine

N_SEEDS = 100


def fresh_allocator(seed: int) -> HeterogeneousAllocator:
    """A brand-new stack for one seeded random machine.

    Machines without HMAT get an empty attribute store — Bandwidth and
    Latency requests then fail with typed errors, which is coverage, not
    a problem: error responses are part of the compared surface.
    """
    rng = random.Random(seed)
    machine = random_machine(rng)
    topo = build_topology(machine)
    memattrs = native_discovery(topo) if machine.has_hmat else MemAttrs(topo)
    kernel = KernelMemoryManager(machine)
    return HeterogeneousAllocator(memattrs, kernel)


def schedule_for(seed: int):
    allocator = fresh_allocator(seed)
    rng = random.Random(seed)
    machine = random_machine(rng)  # same draw sequence as fresh_allocator
    return seeded_schedule(
        seed,
        tenants=2 + seed % 3,
        requests=30,
        npus=machine.total_pus,
        nodes=tuple(allocator.kernel.node_ids()),
    )


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_concurrent_replay_is_bit_identical_to_serial(seed):
    schedule = schedule_for(seed)
    serial = run_serial(fresh_allocator(seed), schedule)
    concurrent = run_concurrent(
        fresh_allocator(seed), schedule, interleave_seed=seed * 7 + 1
    )

    assert state_signature(concurrent.core) == state_signature(serial.core)
    assert event_signature(concurrent.core) == event_signature(serial.core)
    assert response_signature(concurrent.responses) == response_signature(
        serial.responses
    )
    # The acceptance bar's phrasing: identical typed-event *multisets*
    # (implied by sequence equality, asserted separately for clarity).
    assert sorted(event_signature(concurrent.core)) == sorted(
        event_signature(serial.core)
    )
    assert not check_invariants(concurrent.core.kernel, concurrent.core.allocator)


@pytest.mark.parametrize("seed", range(10))
def test_stream_replay_is_bit_identical_to_serial(seed):
    """One pipelining client per tenant over the NDJSON transport; the
    serial responses take the same encode/decode round trip."""
    schedule = schedule_for(seed)
    serial = run_serial(fresh_allocator(seed), schedule)
    want = signatures(serial.core, over_the_wire(serial.responses))
    got = run_stream(fresh_allocator(seed), schedule)

    assert got.state == want.state
    assert got.events == want.events
    assert got.responses == want.responses
    assert not got.violations


def test_interleaving_choice_never_matters():
    """Same schedule, five different arrival jitters — one outcome."""
    schedule = schedule_for(3)
    want = None
    for iseed in range(5):
        outcome = run_concurrent(
            fresh_allocator(3), schedule, interleave_seed=iseed
        )
        got = (
            state_signature(outcome.core),
            event_signature(outcome.core),
            response_signature(outcome.responses),
        )
        if want is None:
            want = got
        assert got == want


def test_sweep_exercises_the_interesting_machinery():
    """The differential is only as strong as its coverage: across the
    sweep we must see real batching, degraded placements, typed failures,
    quota rejections, and migrations."""
    batched = 0.0
    kinds: set[str] = set()
    errors: set[str] = set()
    for seed in range(0, N_SEEDS, 5):
        schedule = schedule_for(seed)
        outcome = run_concurrent(
            fresh_allocator(seed), schedule, interleave_seed=seed
        )
        batched = max(batched, outcome.mean_commit_size)
        kinds |= {kind for kind, _, _ in event_signature(outcome.core)}
        errors |= {
            r.error for r in outcome.responses.values() if r.error is not None
        }
    assert batched > 1.0, "no commit ever coalesced more than one request"
    assert "placement-degraded" in kinds
    assert "quota-exceeded" in kinds
    assert "allocation-failed" in errors or "allocation-failed" in kinds
    assert "unknown-handle" in errors


def test_serial_core_replay_is_self_consistent():
    """Replaying the same schedule twice serially on fresh stacks is
    trivially identical — guards the harness itself against hidden
    global state (name counters, caches) leaking into signatures."""
    schedule = schedule_for(11)
    first = run_serial(fresh_allocator(11), schedule)
    second = run_serial(fresh_allocator(11), schedule)
    assert state_signature(first.core) == state_signature(second.core)
    assert event_signature(first.core) == event_signature(second.core)
    assert response_signature(first.responses) == response_signature(
        second.responses
    )


def test_core_is_the_production_path():
    """The serial reference must be the same object the async server
    commits through — not a lookalike."""
    allocator = fresh_allocator(0)
    server = ReproServeServer(allocator)
    assert isinstance(server.core, ServeCore)
    assert server.core.allocator is allocator
