"""The repository benchmark: one command, four workloads, one ledger.

    python3 benchmarks/e2e/run.py --seed 0                      # all four
    python3 benchmarks/e2e/run.py --workload search --seed 3
    python3 benchmarks/e2e/run.py --workload serve-alloc --seed 0 --trace 1

Each workload runs in a fresh child process (``workloads.py``).  The run
length is ``run_seconds`` in the root ``BENCHMARK.json``; ``--seconds``
is accepted only with that value.  With ``--trace 0`` (the default) the
end-to-end metrics listed there are printed, one per line with unit;
with ``--trace 1`` the per-layer metrics are.  Each workload also writes a ledger file
``benchmarks/e2e/out/<workload>.seed<N>[.trace].json`` of the form
``{bench, shape, metrics: {name: {value, unit, better, kind}}}``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
correctness check fails or the workloads together run past the time cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("serve-query", "serve-alloc", "search", "guidance")
#: The workloads of one run must finish inside this many seconds in all.
RUN_CAP_S = 180.0


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far, in seconds.

    Recorded per run: a run that lost much of it to steal is slow for
    reasons outside the repository.
    """
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def run_workload(workload: str, args, out_dir: Path) -> tuple[dict | None, float]:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    start = time.perf_counter()
    # A session of its own, so a timed-out workload goes down together
    # with any daemon it started.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None, time.perf_counter() - start
    wall = time.perf_counter() - start
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return None, wall
    return json.loads(lines[-1]), wall


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="run the repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four, in a fixed order)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run")
    args = parser.parse_args(argv)
    if args.seconds != contract["run_seconds"]:
        parser.error(f"the run length is run_seconds in BENCHMARK.json "
                     f"({contract['run_seconds']}), not {args.seconds:g}")

    listed = contract["per_layer"] if args.trace else contract["end_to_end"]
    better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    correct = True
    attempted = failed = 0
    reported: dict[str, dict] = {}
    total = 0.0
    for workload in workloads:
        steal = host_steal_s()
        result, wall = run_workload(workload, args, out_dir)
        steal = host_steal_s() - steal
        total += wall
        print(f"{workload}: {wall:.1f} s wall, {steal:.2f} s host steal")
        if result is None:
            print(f"{workload}: FAILED (no result)")
            correct = False
            continue
        for error in result["errors"]:
            print(f"{workload}: CHECK FAILED: {error}")
        correct &= not result["errors"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics = result["metrics"]
        for name, entry in metrics.items():
            entry["better"] = entry.get("better") or better.get(name, "")
        ledger = {
            "bench": f"e2e/{workload}",
            "shape": {"seed": args.seed, "seconds": args.seconds,
                      "trace": bool(args.trace), "wall_s": wall,
                      "host_steal_s": steal, **result["shape"]},
            "metrics": metrics,
        }
        suffix = ".trace" if args.trace else ""
        (out_dir / f"{workload}.seed{args.seed}{suffix}.json").write_text(
            json.dumps(ledger, indent=1) + "\n"
        )
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for spec in listed:
            name = spec["name"]
            entry = metrics.get(name)
            if entry is None or not math.isfinite(entry["value"]):
                print(f"{workload}: metric {name} missing or not finite")
                correct = False
                continue
            extra = "".join(
                f"  {key}={entry[key]}" for key in ("samples", "percentile") if key in entry
                and not isinstance(entry[key], list)
            )
            print(f"{workload} {name} = {entry['value']:.6g} {spec['unit']}{extra}")
            reported[prefix + name] = {"value": entry["value"], "unit": spec["unit"]}
    print(f"total: {total:.1f} s wall for {len(workloads)} workload(s)")
    if total > RUN_CAP_S:
        print(f"total wall time is over the {RUN_CAP_S:.0f} s cap")
        correct = False
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
