"""``repro-serve`` under load: thousands of tenants against one daemon.

Each simulated client opens a session, runs a small alloc/query/free
loop through the in-process submit path (the same admission/commit path
the socket front end uses), and closes.  The bench reports sustained
requests/second, p50/p99 request latency, and the commit coalescing
factor (requests per single-writer wake-up) — the number that shows the
commit loop draining concurrent arrivals together.

Full shape drives 2000 concurrent clients (the acceptance bar asks for
at least 1000 sustained); ``REPRO_BENCH_QUICK=1`` shrinks the fleet for
CI smoke runs and archives with its shape recorded so the regression
gate skips the comparison instead of false-failing.
"""

import asyncio
import json
import os
import pathlib
import time

from repro.alloc import HeterogeneousAllocator
from repro.kernel import KernelMemoryManager
from repro.serve import ReproServeServer, ServeClient
from repro.units import MiB

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_serve.json"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

N_CLIENTS = 200 if QUICK else 2000
OPS_PER_CLIENT = 3 if QUICK else 5

_results: dict[str, dict] = {}


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def test_serve_many_tenants(record, xeon_setup):
    allocator = HeterogeneousAllocator(
        xeon_setup.memattrs, KernelMemoryManager(xeon_setup.machine)
    )
    latencies: list[float] = []
    not_ok: list[str] = []

    async def timed(coro) -> None:
        t0 = time.perf_counter()
        reply = await coro
        latencies.append(time.perf_counter() - t0)
        if not reply.ok:
            not_ok.append(f"{reply.tenant}:{reply.verb}:{reply.error}")

    async def client_task(server: ReproServeServer, i: int) -> None:
        client = ServeClient(server, f"c{i}")
        await timed(client.open())
        attr = ("Bandwidth", "Latency", "Capacity")[i % 3]
        for op in range(OPS_PER_CLIENT):
            kind = (i + op) % 3
            if kind == 0:
                await timed(client.alloc(f"h{op}", MiB, attr, i % 40))
            elif kind == 1:
                await timed(client.query(attr, i % 40))
            else:
                await timed(
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
        await timed(client.close())

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

    transport = server.transport_stats()
    lat = sorted(latencies)
    summary = {
        "clients": N_CLIENTS,
        "ops_per_client": OPS_PER_CLIENT,
        "quick": QUICK,
        "total_requests": len(latencies),
        "wall_s": round(wall_s, 3),
        "rps": round(len(latencies) / wall_s),
        "p50_ms": round(_percentile(lat, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(lat, 0.99) * 1e3, 3),
        "mean_commit_size": round(transport["mean_commit_size"], 2),
        "events": len(server.core.log.events),
    }
    _results["serve"] = summary
    record(
        "serve_throughput",
        f"{N_CLIENTS} concurrent tenants x {OPS_PER_CLIENT + 2} requests "
        f"({summary['total_requests']} total) in {wall_s:.2f}s = "
        f"{summary['rps']:,} req/s\n"
        f"latency p50 {summary['p50_ms']:.2f} ms, "
        f"p99 {summary['p99_ms']:.2f} ms\n"
        f"commit coalescing: {summary['mean_commit_size']:.1f} "
        f"requests per single-writer wake-up",
    )
    if not QUICK:
        # The acceptance bar: >= 1000 simulated clients sustained, with
        # a reported p99.
        assert N_CLIENTS >= 1000
        assert summary["p99_ms"] > 0
    # Concurrency must put several requests in one commit, else the
    # commit loop silently stopped draining concurrent arrivals together.
    assert summary["mean_commit_size"] > 1.0


def test_write_json(results_dir):
    """Archive the run — quick shapes included (the gate shape-skips)."""
    assert _results, "serve bench must run first"
    RESULTS_JSON.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"archived {RESULTS_JSON}" + (" (quick shape)" if QUICK else ""))
