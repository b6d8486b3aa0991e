"""Seeded schedules, serial/concurrent replay, and run signatures.

This module is the daemon's correctness harness — and its selftest.  A
*schedule* is a list of protocol :class:`~.protocol.Request`\\ s carrying
dense global ``seq`` numbers.  The same schedule can be applied three
ways:

* :func:`run_serial` — one :class:`~.server.ServeCore`, every request
  through the sequential reference path, in ``seq`` order.
* :func:`run_concurrent` — a sequenced :class:`~.server.ReproServeServer`
  with one asyncio task per tenant, submissions jittered by a seeded
  interleaving so arrival order differs from ``seq`` order.
* :func:`run_stream` — the sequenced server behind a loopback
  :class:`~.server.StreamServer`, one :class:`~.server.StreamServeClient`
  per tenant, over the wire.

:func:`state_signature`, :func:`event_signature` and
:func:`response_signature` capture everything externally visible
(:func:`signatures` takes all of them at once); the determinism contract
is that every replay produces **equal signatures** for every (schedule
seed, interleave seed) pair.  ``repro-serve --selftest`` runs exactly
this comparison.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..alloc.allocator import HeterogeneousAllocator
from ..resilience.chaos import check_invariants
from .protocol import Request, Response, decode_response, encode_response
from .server import ReproServeServer, ServeCore, StreamServeClient, StreamServer

__all__ = [
    "RunOutcome",
    "Signatures",
    "event_signature",
    "over_the_wire",
    "response_signature",
    "run_concurrent",
    "run_serial",
    "run_stream",
    "seeded_schedule",
    "selftest",
    "signatures",
    "state_signature",
]

MiB = 1 << 20
GiB = 1 << 30

_ATTRIBUTES = ("Bandwidth", "Latency", "Capacity")


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------
def seeded_schedule(
    seed: int,
    *,
    tenants: int = 4,
    requests: int = 120,
    npus: int = 4,
    nodes: tuple[int, ...] = (),
    attributes: tuple[str, ...] = _ATTRIBUTES,
) -> list[Request]:
    """A reproducible multi-tenant request schedule.

    Opens one session per tenant (some metered, some reserving co-tenant
    headroom), then mixes allocs, frees, queries, migrations, batch
    allocs and stats reads.  Handles that may already have failed or
    been freed are *deliberately* reused sometimes — typed error
    responses are part of the deterministic surface under test.
    """
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(tenants)]
    schedule: list[Request] = []
    seq = 0
    issued: dict[str, list[str]] = {name: [] for name in names}
    counters: dict[str, int] = {name: 0 for name in names}

    def push(verb: str, tenant: str, payload: dict[str, Any]) -> None:
        nonlocal seq
        schedule.append(
            Request(verb=verb, tenant=tenant, id=seq, seq=seq, payload=payload)
        )
        seq += 1

    def alloc_spec(tenant: str) -> dict[str, Any]:
        handle = f"h{counters[tenant]}"
        counters[tenant] += 1
        issued[tenant].append(handle)
        if rng.random() < 0.1:
            # Big enough to exhaust small random machines sometimes —
            # typed allocation failures are part of the surface under test.
            size = rng.randint(2, 24) * GiB
        else:
            size = rng.randint(1, 256) * MiB
        return {
            "handle": handle,
            "size": size,
            "attribute": rng.choice(attributes),
            "initiator": rng.randrange(npus),
            "allow_partial": rng.random() < 0.2,
            "allow_fallback": rng.random() < 0.9,
        }

    for name in names:
        payload: dict[str, Any] = {}
        if rng.random() < 0.5:
            payload["quota_bytes"] = rng.randint(64, 4096) * MiB
        if nodes and rng.random() < 0.25:
            payload["reserve"] = {
                str(rng.choice(nodes)): rng.randint(16, 4096)
            }
        push("open", name, payload)

    for _ in range(requests):
        tenant = rng.choice(names)
        roll = rng.random()
        if roll < 0.50:
            push("alloc", tenant, alloc_spec(tenant))
        elif roll < 0.70:
            live = issued[tenant]
            if live:
                handle = rng.choice(live)
                live.remove(handle)
                push("free", tenant, {"handle": handle})
            else:
                push("alloc", tenant, alloc_spec(tenant))
        elif roll < 0.82:
            push(
                "query",
                tenant,
                {
                    "attribute": rng.choice(attributes),
                    "initiator": rng.randrange(npus),
                },
            )
        elif roll < 0.90:
            live = issued[tenant]
            if live:
                push(
                    "migrate",
                    tenant,
                    {
                        "handle": rng.choice(live),
                        "attribute": rng.choice(attributes),
                    },
                )
            else:
                push("stats", tenant, {})
        elif roll < 0.96:
            push(
                "alloc_many",
                tenant,
                {"requests": [alloc_spec(tenant) for _ in range(rng.randint(2, 4))]},
            )
        else:
            push("stats", tenant, {})
    return schedule


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    """One replay's full externally visible result."""

    core: ServeCore
    #: seq -> response (dense).
    responses: dict[int, Response]
    #: Mean requests per commit wake-up (1.0 for serial; informational).
    mean_commit_size: float = 1.0
    notes: dict[str, Any] = field(default_factory=dict)


def run_serial(
    allocator: HeterogeneousAllocator, schedule: list[Request]
) -> RunOutcome:
    """The sequential reference: every request through ``ServeCore.apply``."""
    core = ServeCore(allocator)
    responses: dict[int, Response] = {}
    for request in schedule:
        assert request.seq is not None
        responses[request.seq] = core.apply(request)
    return RunOutcome(core=core, responses=responses)


def run_concurrent(
    allocator: HeterogeneousAllocator,
    schedule: list[Request],
    *,
    interleave_seed: int = 0,
) -> RunOutcome:
    """Concurrent replay: one task per tenant, seeded arrival jitter.

    The jitter (a per-request number of event-loop yields, drawn before
    any task starts) perturbs *arrival* order; the sequenced server's
    reorder buffer restores *commit* order.  The whole point: the
    outcome must not depend on ``interleave_seed`` at all.
    """
    by_tenant: dict[str, list[Request]] = {}
    for request in schedule:
        by_tenant.setdefault(request.tenant, []).append(request)
    rng = random.Random(interleave_seed)
    yields = {
        tenant: [rng.randint(0, 3) for _ in ops]
        for tenant, ops in sorted(by_tenant.items())
    }

    async def _run() -> RunOutcome:
        server = ReproServeServer(allocator, sequenced=True)
        responses: dict[int, Response] = {}

        async def tenant_task(tenant: str, ops: list[Request]) -> None:
            for request, pause in zip(ops, yields[tenant]):
                for _ in range(pause):
                    await asyncio.sleep(0)
                assert request.seq is not None
                responses[request.seq] = await server.submit(request)

        async with server:
            await asyncio.gather(
                *(
                    tenant_task(tenant, ops)
                    for tenant, ops in sorted(by_tenant.items())
                )
            )
        stats = server.transport_stats()
        return RunOutcome(
            core=server.core,
            responses=responses,
            mean_commit_size=stats["mean_commit_size"],
            notes={"commits": stats["commits"]},
        )

    return asyncio.run(_run())


def run_stream(
    allocator: HeterogeneousAllocator, schedule: list[Request]
) -> Signatures:
    """Replay over loopback TCP.

    A sequenced server sits behind a :class:`StreamServer`; each tenant
    has its own :class:`StreamServeClient` connection and pipelines its
    whole share of the schedule, so lines arrive in batches and answers
    come back as they commit.  Responses are as the clients decoded
    them.  A connection that hangs up closes the tenants it owns, so the
    signatures are taken before the clients disconnect.
    """
    by_tenant: dict[str, list[Request]] = {}
    for request in schedule:
        by_tenant.setdefault(request.tenant, []).append(request)

    async def _run() -> Signatures:
        server = ReproServeServer(allocator, sequenced=True)
        stream = StreamServer(server)
        responses: dict[int, Response] = {}

        async def tenant_ops(client: StreamServeClient, ops: list[Request]) -> None:
            replies = await asyncio.gather(
                *(client.request(r.verb, r.payload, seq=r.seq) for r in ops)
            )
            for request, reply in zip(ops, replies):
                assert request.seq is not None
                responses[request.seq] = reply

        async with server:
            host, port = await stream.start()
            clients = {
                tenant: await StreamServeClient.connect(host, port, tenant)
                for tenant in sorted(by_tenant)
            }
            try:
                await asyncio.gather(
                    *(tenant_ops(clients[t], ops) for t, ops in by_tenant.items())
                )
                taken = signatures(server.core, responses)
            finally:
                for client in clients.values():
                    await client.aclose()
                await stream.stop()
        return taken

    return asyncio.run(_run())


# ----------------------------------------------------------------------
# signatures
# ----------------------------------------------------------------------
def state_signature(core: ServeCore) -> dict[str, Any]:
    """Everything that counts as final service state, bit-for-bit.

    Free-page counters per node, every tenant's per-handle placement,
    co-tenant holds, the quota ledger, and the live-allocation count.
    """
    placements = {}
    for tenant in sorted(core.sessions):
        session = core.sessions[tenant]
        placements[tenant] = {
            handle: {
                "pages": sorted(
                    session.buffers[handle].allocation.pages_by_node.items()
                ),
                "used_attribute": session.buffers[handle].used_attribute,
                "fallback_rank": session.buffers[handle].fallback_rank,
            }
            for handle in sorted(session.buffers)
        }
    return {
        "free_pages": core.kernel.free_pages_array(),
        "cotenant_pages": {
            n: core.kernel.cotenant_pages(n) for n in core.kernel.node_ids()
        },
        "placements": placements,
        "ledger": core.ledger.snapshot(),
        "live_allocations": len(core.kernel.live_allocations()),
        "verbs": dict(sorted(core.verb_counts.items())),
    }


def event_signature(core: ServeCore) -> list[tuple[str, str, str]]:
    """The typed event log as an ordered list (stronger than multisets)."""
    return [
        (event.kind.value, event.subject, event.detail)
        for event in core.log.events
    ]


def _strip_diagnostics(result: dict[str, Any] | None) -> dict[str, Any] | None:
    """Drop run-dependent fields (cache counters reflect stack history)."""
    if result is None:
        return None
    return {k: v for k, v in result.items() if k != "diagnostics"}


def response_signature(responses: dict[int, Response]) -> list[tuple]:
    """Per-request outcomes in schedule order, diagnostics stripped."""
    return [
        (
            seq,
            responses[seq].verb,
            responses[seq].tenant,
            responses[seq].ok,
            responses[seq].error,
            responses[seq].message,
            _strip_diagnostics(responses[seq].result),
        )
        for seq in sorted(responses)
    ]


def over_the_wire(responses: dict[int, Response]) -> dict[int, Response]:
    """Responses as a stream client decodes them (JSON keys and lists)."""
    return {
        seq: decode_response(encode_response(response))
        for seq, response in responses.items()
    }


class Signatures(NamedTuple):
    """Everything a replay is compared on, taken at one moment."""

    state: dict[str, Any]
    events: list[tuple[str, str, str]]
    responses: list[tuple]
    violations: tuple[str, ...]


def signatures(core: ServeCore, responses: dict[int, Response]) -> Signatures:
    """All four signatures of ``core`` and ``responses`` as they are now."""
    return Signatures(
        state=state_signature(core),
        events=event_signature(core),
        responses=response_signature(responses),
        violations=check_invariants(core.kernel, core.allocator),
    )


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------
def selftest(
    *,
    platform: str = "xeon-cascadelake-1lm",
    seed: int = 0,
    tenants: int = 4,
    requests: int = 200,
    interleave_seeds: tuple[int, ...] = (1, 2),
) -> dict[str, Any]:
    """Prove one seeded schedule deterministic under concurrency.

    Runs the schedule serially on a fresh stack, then concurrently (once
    per interleave seed) and over loopback TCP (:func:`run_stream`) on
    equally fresh stacks, and compares state, event, and response
    signatures; kernel invariants are checked on every replica.  Returns
    a report dict with ``ok`` plus per-check booleans — the CLI turns it
    into an exit code.
    """
    from repro import quick_setup

    def fresh() -> HeterogeneousAllocator:
        return quick_setup(platform).allocator

    probe = fresh()
    nodes = tuple(probe.kernel.node_ids())
    npus = len(probe.memattrs.topology.pus())
    schedule = seeded_schedule(
        seed, tenants=tenants, requests=requests, npus=npus, nodes=nodes
    )

    serial = run_serial(fresh(), schedule)
    want = signatures(serial.core, serial.responses)
    checks: dict[str, bool] = {"serial_invariants": not want.violations}

    def compare(prefix: str, got: Signatures, want: Signatures) -> None:
        checks[f"{prefix}_state"] = got.state == want.state
        checks[f"{prefix}_events"] = got.events == want.events
        checks[f"{prefix}_responses"] = got.responses == want.responses
        checks[f"{prefix}_invariants"] = not got.violations

    mean_commit = 0.0
    for iseed in interleave_seeds:
        outcome = run_concurrent(fresh(), schedule, interleave_seed=iseed)
        compare(
            f"interleave{iseed}", signatures(outcome.core, outcome.responses), want
        )
        mean_commit = max(mean_commit, outcome.mean_commit_size)
    compare(
        "stream",
        run_stream(fresh(), schedule),
        signatures(serial.core, over_the_wire(serial.responses)),
    )
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "requests": len(schedule),
        "tenants": tenants,
        "seed": seed,
        "mean_commit_size": round(mean_commit, 3),
    }
