"""``repro-serve`` — run or selftest the multi-tenant allocation daemon.

Examples::

    repro-serve --selftest                 # CI gate: concurrent replay
                                           # bit-identical to serial, exit 1
                                           # on any mismatch
    repro-serve --selftest --seed 7 --requests 400 --json
    repro-serve --host 127.0.0.1 --port 7700     # serve NDJSON over TCP

The selftest is the daemon's determinism contract made executable: a
seeded multi-tenant schedule is replayed serially, concurrently (two
different arrival interleavings) and over a loopback NDJSON connection
per tenant, each on a fresh stack, and final kernel page maps, quota
ledgers, typed-event logs, and every response must match bit-for-bit
(see ``docs/SERVE.md``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..obs.cli import add_obs_arguments, finish_obs, start_obs

__all__ = ["build_serve_parser", "serve_main"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="multi-tenant placement-as-a-service daemon over the "
        "heterogeneous allocator (repro.serve)",
    )
    parser.add_argument(
        "--platform",
        default="xeon-cascadelake-1lm",
        help="preset platform name (default: %(default)s)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the concurrent-vs-serial determinism selftest and exit "
        "(0 = bit-identical, 1 = any divergence)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="selftest schedule seed (default: 0)"
    )
    parser.add_argument(
        "--tenants", type=int, default=4, help="selftest tenants (default: 4)"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=200,
        help="selftest requests after the opens (default: 200)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission-control window (default: %(default)s)",
    )
    parser.add_argument(
        "--quota-bytes",
        type=int,
        default=None,
        help="default per-tenant quota for sessions that do not set one",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable selftest report",
    )
    add_obs_arguments(parser)
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    args = build_serve_parser().parse_args(argv)

    if args.selftest:
        from .replay import selftest

        start_obs(args)
        report = selftest(
            platform=args.platform,
            seed=args.seed,
            tenants=args.tenants,
            requests=args.requests,
        )
        finish_obs(args)
        if args.json:
            json.dump(report, sys.stdout, indent=2)
            print()
        else:
            verdict = "bit-identical" if report["ok"] else "DIVERGED"
            print(
                f"repro-serve selftest: {report['requests']} requests, "
                f"{report['tenants']} tenants, seed {report['seed']} — "
                f"{verdict} (mean commit size "
                f"{report['mean_commit_size']:.2f})"
            )
            for name, passed in sorted(report["checks"].items()):
                print(f"  {'ok  ' if passed else 'FAIL'} {name}")
        if not report["ok"]:
            print("FAIL: concurrent replay diverged from serial", file=sys.stderr)
            return 1
        return 0

    return _serve_forever(args)


def _serve_forever(args: argparse.Namespace) -> int:
    from .server import ReproServeServer, StreamServer

    async def _run() -> int:
        server = ReproServeServer(
            platform=args.platform,
            max_pending=args.max_pending,
            default_quota_bytes=args.quota_bytes,
        )
        stream = StreamServer(server, host=args.host, port=args.port)
        async with server:
            host, port = await stream.start()
            print(f"repro-serve listening on {host}:{port}", flush=True)
            try:
                while True:  # pragma: no cover - interactive loop
                    await asyncio.sleep(3600)
            except asyncio.CancelledError:  # pragma: no cover
                pass
            finally:
                await stream.stop()
        return 0

    start_obs(args)
    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    finally:
        finish_obs(args)


if __name__ == "__main__":  # pragma: no cover - exercised via repro-serve
    raise SystemExit(serve_main())
