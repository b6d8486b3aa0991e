"""``repro-trace`` — inspect and convert archived trace files.

Traces land on disk as JSONL (one span per line, the format
:func:`repro.obs.tracer.to_jsonl` writes and ``repro-experiments
--trace`` archives).  This tool turns them into Chrome ``trace_event``
JSON for ``chrome://tracing`` / Perfetto, or prints a per-span-name
summary (count, total/mean/max duration) for a quick look without a
browser.
"""

from __future__ import annotations

import argparse
import json
import sys

from .tracer import spans_to_chrome

__all__ = [
    "trace_main",
    "build_trace_parser",
    "load_jsonl",
    "summarize",
    "add_obs_arguments",
    "start_obs",
    "finish_obs",
]


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace``/``--metrics`` flags to a CLI parser."""
    group = parser.add_argument_group(
        "observability", "runtime tracing and metrics (repro.obs)"
    )
    group.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        default=None,
        help="record tracing spans and write them as JSONL "
        "(convert with: repro-trace OUT.jsonl --chrome trace.json)",
    )
    group.add_argument(
        "--metrics",
        metavar="OUT.prom",
        nargs="?",
        const="-",
        default=None,
        help="record metrics and dump them Prometheus-style "
        "('-' or no value: stdout)",
    )
    group.add_argument(
        "--obs-sample-every",
        type=int,
        metavar="N",
        default=1,
        help="record hot-path telemetry for only every N-th request "
        "(default 1: record everything)",
    )
    group.add_argument(
        "--obs-ring-capacity",
        type=int,
        metavar="C",
        default=None,
        help="bound the span store to the most recent C spans "
        "(oldest evicted and counted; default: unbounded)",
    )


def start_obs(args: argparse.Namespace) -> bool:
    """Enable telemetry when either flag was passed; returns whether."""
    from . import enable

    if args.trace is None and args.metrics is None:
        return False
    enable(
        sample_every=getattr(args, "obs_sample_every", 1),
        ring_capacity=getattr(args, "obs_ring_capacity", None),
    )
    return True


def finish_obs(args: argparse.Namespace) -> None:
    """Write out whatever the flags asked for (call once, at exit)."""
    from . import OBS, render_metrics, to_jsonl

    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(to_jsonl(OBS.tracer))
        dropped = ""
        if OBS.tracer.dropped_spans:
            dropped = f" ({OBS.tracer.dropped_spans} evicted by the ring)"
        print(
            f"trace: {len(OBS.tracer.finished())} spans -> {args.trace}"
            f"{dropped} "
            f"(repro-trace {args.trace} --chrome out.json for chrome://tracing)"
        )
    if args.metrics is not None:
        text = render_metrics(OBS.metrics)
        if args.metrics == "-":
            print("\nmetrics:")
            print(text, end="")
        else:
            with open(args.metrics, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"metrics: -> {args.metrics}")


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarize a JSONL trace or convert it to Chrome "
        "trace_event format",
    )
    parser.add_argument("trace", help="JSONL trace file (from --trace runs)")
    parser.add_argument(
        "--chrome",
        metavar="OUT.json",
        default=None,
        help="write a Chrome trace_event JSON file (chrome://tracing)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print per-span-name aggregate durations (default when no "
        "--chrome output is requested)",
    )
    return parser


def load_jsonl(path: str) -> list[dict]:
    """Parse a JSONL trace file into span dicts (skipping blank lines)."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{lineno}: not JSON: {exc}") from None
    return spans


def summarize(spans: list[dict]) -> str:
    """Per-span-name table: count, total / mean / max duration."""
    agg: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for span in spans:
        if span.get("end") is None:
            continue
        dur = span["end"] - span["start"]
        agg.setdefault(span["name"], []).append(dur)
        if span.get("status") == "error":
            errors[span["name"]] = errors.get(span["name"], 0) + 1
    lines = [
        f"{'span':<24} {'count':>7} {'total':>11} {'mean':>11} "
        f"{'max':>11} {'errors':>7}"
    ]
    for name in sorted(agg):
        durs = agg[name]
        lines.append(
            f"{name:<24} {len(durs):>7} {sum(durs) * 1e3:>9.3f}ms "
            f"{sum(durs) / len(durs) * 1e3:>9.3f}ms "
            f"{max(durs) * 1e3:>9.3f}ms {errors.get(name, 0):>7}"
        )
    if len(lines) == 1:
        lines.append("(no finished spans)")
    return "\n".join(lines)


def trace_main(argv: list[str] | None = None) -> int:
    args = build_trace_parser().parse_args(argv)
    spans = load_jsonl(args.trace)
    did_something = False
    if args.chrome:
        doc = spans_to_chrome(spans)
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(doc['traceEvents'])} events to {args.chrome}")
        did_something = True
    if args.summary or not did_something:
        print(summarize(spans))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(trace_main())
