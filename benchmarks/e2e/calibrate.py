"""Repeat the benchmark over seeds and record its spread; pin the hi rates.

    python3 benchmarks/e2e/calibrate.py --sets 2 --seeds 10
    python3 benchmarks/e2e/calibrate.py --max-rate --seeds 5

The first form runs ``run.py`` once per (set, seed, workload), seeds
interleaved across workloads, plus one ``--trace 1`` run per set and
workload.  It records in ``results/seed_runs.json`` every run's metrics,
each set's median and quartiles per metric, the spread
``(q3 - q1) / median``, the ratio of the two sets' medians, whether the
exact per-layer counts agree, and the bound :func:`judge` derives for
each end-to-end metric.  The bounds in ``BENCHMARK.json`` are copied
from there.

The second form climbs the serve workloads' rate ladder and records
``max_rate_rps`` per seed under ``max_rate`` in the same file; the
pinned ``HI_RPS`` in ``workloads.py`` is about 60% of its median.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from openloop import LATENCY_LIMIT_MS, Rung

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("serve-query", "serve-alloc", "search", "guidance")
OUT = HERE / "results" / "seed_runs.json"


def run(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    result = json.loads(done.stdout.strip().splitlines()[-1])
    ledger = json.loads((HERE / "out" / (
        f"{workload}.seed{seed}{'.trace' if trace else ''}.json")).read_text())
    return {
        "seed": seed,
        "wall_s": wall,
        "exit": done.returncode,
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "samples": {k: v["samples"] for k, v in ledger["metrics"].items()
                    if "samples" in v},
        "exact": sorted(k for k, v in ledger["metrics"].items()
                        if v["kind"] in ("count", "modeled")),
        "extra": {k: v["value"] for k, v in ledger["metrics"].items()
                  if k not in result["metrics"]},
        "host_steal_s": ledger["shape"]["host_steal_s"],
    }


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return out


def load_report() -> dict:
    return json.loads(OUT.read_text()) if OUT.exists() else {}


def save_report(report: dict) -> None:
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n")


def calibrate(sets: int, seeds: int, workloads: list[str]) -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"max_rate": load_report().get("max_rate"),
              "seconds": contract["run_seconds"], "seeds": list(range(seeds)),
              "sets": []}
    for s in range(sets):
        runs: dict[str, list] = {w: [] for w in workloads}
        traces: dict[str, dict] = {}
        report["sets"].append({"runs": runs, "trace": traces})
        for seed in range(seeds):
            for w in workloads:
                runs[w].append(run(w, seed, False))
                r = runs[w][-1]
                print(f"set {s} seed {seed} {w}: {r['wall_s']:.0f} s "
                      f"steal {r['host_steal_s']:.1f} s "
                      f"{'ok' if r['correct'] else 'FAILED'} {r['metrics']}", flush=True)
                save_report(report)
        for w in workloads:
            traces[w] = run(w, 0, True)
        report["sets"][-1]["summary"] = {w: summarize(runs[w]) for w in workloads}
        save_report(report)
    report.update(judge(report))
    save_report(report)
    for w, rows in report["verdict"].items():
        for name, row in rows.items():
            print(f"{w:12s} {name:14s} {row}")
    print("bounds:", report["bounds"])
    print("unresolved:", report["unresolved"])


#: A bound is this many times the worst spread or median shift seen on
#: any workload, so that every spread stays under a third of its bound,
#: rounded up to 0.01.  It is at least BOUND_FLOOR, so that a metric that
#: barely moves, such as peak RSS, still allows a change a 10% cost.
#: BOUND_CAP is the largest bound BENCHMARK.json may hold; setup_s, whose
#: spread is not gated, gets it.  A metric whose spread or shift exceeds
#: the cap is ``unresolved``: no allowed bound covers it, so it cannot be
#: an end-to-end metric.
BOUND_MARGIN = 3.0
BOUND_FLOOR = 0.10
BOUND_CAP = 0.25


def judge(report: dict) -> dict:
    """Per workload and metric the worst spread of the sets and the ratio
    of the last set's median to the first's; whether the traced runs'
    exact counts agree; the bound each metric gets; and the metrics no
    allowed bound covers."""
    verdict: dict = {}
    worst: dict[str, float] = {}
    first = report["sets"][0]
    for w in first["summary"]:
        verdict[w] = {}
        for name in first["summary"][w]:
            per_set = [st["summary"][w][name] for st in report["sets"]]
            row = {
                "max_spread": max(p["spread"] for p in per_set),
                "median_ratio": per_set[-1]["median"] / per_set[0]["median"],
            }
            verdict[w][name] = row
            shift = abs(row["median_ratio"] - 1.0)
            seen = shift if name == "setup_s" else max(row["max_spread"], shift)
            worst[name] = max(worst.get(name, 0.0), seen)
        traces = [st["trace"][w] for st in report["sets"]]
        verdict[w]["exact_counts_identical"] = all(
            t["metrics"][name] == traces[0]["metrics"][name]
            for t in traces for name in traces[0]["exact"]
        )
    bounds = {
        name: BOUND_CAP if name == "setup_s" else min(
            BOUND_CAP, max(BOUND_FLOOR, math.ceil(100 * BOUND_MARGIN * w) / 100))
        for name, w in worst.items()
    }
    unresolved = sorted(name for name, w in worst.items() if w > BOUND_CAP)
    return {"verdict": verdict, "bounds": bounds, "unresolved": unresolved}


# ----------------------------------------------------------------------
# max_rate_rps: the serve rate ladder
# ----------------------------------------------------------------------
#: The ladder starts at LADDER_START_RPS and grows by LADDER_RATIO per
#: rung; each rung warms up for 0.5 s and measures for 3.5 s.
LADDER_START_RPS = 1000.0
LADDER_RATIO = 1.4
LADDER_RUNGS = 12
#: ``hi`` is pinned at this share of the median max_rate_rps.
HI_SHARE = 0.6


def max_rate(results) -> float:
    """Offered rate at which p99 crosses the limit.

    ``results`` is a ladder that stopped at its first failing rung.  The
    rate is interpolated in log-latency between the last passing rung and
    the failing one, whose p99 counts as at least just over the limit
    (it may have failed on another rule).  0 when the first rung fails;
    the top rate when none does.
    """
    last = results[-1]
    if last.passed:
        return last.rung.rate
    if len(results) == 1:
        return 0.0
    before = results[-2]
    p1 = math.log(before.p99_ms)
    p2 = math.log(max(last.p99_ms, LATENCY_LIMIT_MS * (1 + 1e-9)))
    share = (math.log(LATENCY_LIMIT_MS) - p1) / (p2 - p1)
    return before.rung.rate + (last.rung.rate - before.rung.rate) * share


def measure_max_rate(seeds: int) -> None:
    workloads.pin_cpu(0, last=True)
    rungs = [Rung(f"r{k}", LADDER_START_RPS * LADDER_RATIO**k, 0.5, 3.5)
             for k in range(LADDER_RUNGS)]
    report = load_report()
    report["max_rate"] = {}
    for w in workloads.SERVE_PLATFORM:
        rates = []
        for seed in range(seeds):
            session = workloads.serve_session(w, seed, rungs, ladder=True)
            rates.append(max_rate(session["rungs"]))
            print(f"{w} seed {seed}: max_rate_rps {rates[-1]:.0f} "
                  f"after {len(session['rungs'])} rungs", flush=True)
        med = statistics.median(rates)
        report["max_rate"][w] = {"max_rate_rps": rates, "median": med,
                                 "hi_rps": HI_SHARE * med}
        save_report(report)
    print(json.dumps(report["max_rate"], indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--max-rate", action="store_true",
                        help="climb the serve rate ladder instead")
    args = parser.parse_args(argv)
    if args.max_rate:
        measure_max_rate(args.seeds)
    else:
        calibrate(args.sets, args.seeds, args.workload or list(WORKLOADS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
