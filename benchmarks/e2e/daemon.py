"""``repro-serve`` with timing wrappers, for the benchmark's traced run.

Builds the same :class:`~repro.serve.server.ReproServeServer` and
:class:`~repro.serve.server.StreamServer` that ``repro-serve`` builds,
through their public constructors, after :class:`spans.Recorder` has
wrapped each layer.  It prints the same ``listening on`` line, serves
until SIGINT or SIGTERM, then writes ``<out>.spans.json`` (raw spans)
and ``<out>.chrome.json`` (Chrome ``trace_event``)::

    PYTHONPATH=src python3 benchmarks/e2e/daemon.py \\
        --platform knl-snc4-flat --out /tmp/serve
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from spans import Recorder, write_chrome_trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--platform", default="xeon-cascadelake-1lm")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--max-pending", type=int, default=1024)
    parser.add_argument("--out", required=True, help="output path prefix")
    args = parser.parse_args(argv)

    recorder = Recorder()
    recorder.install()
    from repro.serve.server import ReproServeServer, StreamServer

    async def serve() -> None:
        server = ReproServeServer(platform=args.platform, max_pending=args.max_pending)
        stream = StreamServer(server, host=args.host, port=args.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        async with server:
            host, port = await stream.start()
            print(f"repro-serve listening on {host}:{port}", flush=True)
            await stop.wait()
            await stream.stop()

    asyncio.run(serve())
    recorder.uninstall()
    recorder.dump(f"{args.out}.spans.json")
    write_chrome_trace(recorder.names, recorder.spans, f"{args.out}.chrome.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
