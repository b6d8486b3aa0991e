"""``repro-serve`` under load: thousands of tenants against one daemon.

Each simulated client opens a session, runs a small alloc/query/free
loop through the in-process submit path (the same admission/commit path
the socket front end uses), and closes.  All clients start at once, so
this is a closed burst: it measures sustained requests/second and the
commit coalescing factor (requests per single-writer wake-up) — the
number that shows each commit draining concurrent arrivals
together.  A request's time in such a burst is mostly queueing, so the
bench reports no per-request latency; the repo benchmark
(``benchmarks/e2e``) drives the daemon open-loop at fixed rates for
that.  Throughput and coalescing are ``wall`` rows of
``benchmarks/results/bench_serve.json``; the number of typed resilience
events (none, in a healthy burst) is an exact ``count`` row.

The fleet is 2000 concurrent clients (the acceptance bar asks for at
least 1000 sustained).
"""

import asyncio
import time

from repro.alloc import HeterogeneousAllocator
from repro.kernel import KernelMemoryManager
from repro.serve import ReproServeServer, ServeClient
from repro.units import MiB

N_CLIENTS = 2000
OPS_PER_CLIENT = 5
SHAPE = {"clients": N_CLIENTS, "ops_per_client": OPS_PER_CLIENT}


def test_serve_many_tenants(record, ledger, xeon_setup):
    allocator = HeterogeneousAllocator(
        xeon_setup.memattrs, KernelMemoryManager(xeon_setup.machine)
    )
    replies = 0
    not_ok: list[str] = []

    async def checked(coro) -> None:
        nonlocal replies
        reply = await coro
        replies += 1
        if not reply.ok:
            not_ok.append(f"{reply.tenant}:{reply.verb}:{reply.error}")

    async def client_task(server: ReproServeServer, i: int) -> None:
        client = ServeClient(server, f"c{i}")
        await checked(client.open())
        attr = ("Bandwidth", "Latency", "Capacity")[i % 3]
        for op in range(OPS_PER_CLIENT):
            kind = (i + op) % 3
            if kind == 0:
                await checked(client.alloc(f"h{op}", MiB, attr, i % 40))
            elif kind == 1:
                await checked(client.query(attr, i % 40))
            else:
                await checked(
                    client.alloc_many(
                        [
                            {
                                "handle": f"b{op}-{j}",
                                "size": MiB // 2,
                                "attribute": attr,
                                "initiator": i % 40,
                            }
                            for j in range(2)
                        ]
                    )
                )
        await checked(client.close())

    async def drive() -> ReproServeServer:
        server = ReproServeServer(allocator, max_pending=4 * N_CLIENTS)
        async with server:
            await asyncio.gather(
                *(client_task(server, i) for i in range(N_CLIENTS))
            )
        return server

    t0 = time.perf_counter()
    server = asyncio.run(drive())
    wall_s = time.perf_counter() - t0

    assert not not_ok, f"{len(not_ok)} requests failed: {not_ok[:5]}"
    assert not server.core.sessions, "every session must close"
    assert len(allocator.kernel.live_allocations()) == 0
    assert replies == N_CLIENTS * (OPS_PER_CLIENT + 2)

    rps = replies / wall_s
    commit_size = server.transport_stats()["mean_commit_size"]
    ledger.row("wall_s", wall_s, "s", "lower", "wall")
    ledger.row("requests_per_s", rps, "1/s", "higher", "wall")
    ledger.row("mean_commit_size", commit_size, "requests", "higher", "wall")
    ledger.row("events", len(server.core.log.events), "events", "lower", "count")
    record(
        "serve_throughput",
        f"{N_CLIENTS} concurrent tenants x {OPS_PER_CLIENT + 2} requests "
        f"({replies} total) in {wall_s:.2f}s = {round(rps):,} req/s\n"
        f"commit coalescing: {commit_size:.1f} "
        f"requests per single-writer wake-up",
    )
    # Concurrency must put several requests in one commit, else the
    # commit silently stopped draining concurrent arrivals together.
    assert commit_size > 1.0
