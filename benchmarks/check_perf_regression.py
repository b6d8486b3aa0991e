"""Perf-regression gate over the archived benchmark JSONs.

Compares freshly regenerated ``benchmarks/results/BENCH_*.json`` files
against the committed baselines (``git show <ref>:<path>``) and exits
nonzero when either gated number regressed by more than the tolerance
(default 20%):

* **warm allocation throughput** — ``alloc.cached_aps`` and
  ``batch.cached_aps`` per preset in ``BENCH_alloc_throughput.json``
  must stay within ``1 - tolerance`` of the baseline;
* **enabled-obs overhead** — the slowdown *factor* of the sampled
  enabled path (``impl_aps / enabled_aps``, machine-independent unlike
  raw throughput) in ``BENCH_obs_overhead.json`` must not grow past
  ``baseline * (1 + tolerance)``.

The compiled-pricing baselines gate on speedup *factors* (batch vs
scalar on the same host, machine-independent like the obs factor):

* ``speedup_tensor`` / ``speedup_e2e`` per preset in
  ``BENCH_pricing_batch.json``;
* ``priced_step.speedup`` in ``BENCH_autotier.json``.

The online-guidance baseline gates on another modeled-time factor:

* ``win_vs_static`` per workload in ``BENCH_guidance.json`` — the
  end-to-end win of sampled guidance over static hints at the headline
  sampling period (shape-skipped for ``REPRO_BENCH_QUICK`` runs).

Search timings are reported for context but do not gate here: their
correctness half (optimum identity) gates inside the bench itself.

Usage::

    python benchmarks/check_perf_regression.py [--ref HEAD] [--tolerance 0.20]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

ALLOC_JSON = "BENCH_alloc_throughput.json"
OBS_JSON = "BENCH_obs_overhead.json"
SEARCH_JSON = "BENCH_search_scaling.json"
PRICING_JSON = "BENCH_pricing_batch.json"
AUTOTIER_JSON = "BENCH_autotier.json"
SERVE_JSON = "BENCH_serve.json"
GUIDANCE_JSON = "BENCH_guidance.json"


def load_fresh(name: str) -> dict | None:
    path = RESULTS / name
    if not path.exists():
        print(f"SKIP {name}: no fresh results at {path}")
        return None
    return json.loads(path.read_text())


def load_baseline(name: str, ref: str) -> dict | None:
    rel = f"benchmarks/results/{name}"
    proc = subprocess.run(
        ["git", "show", f"{ref}:{rel}"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print(f"SKIP {name}: no baseline at {ref}:{rel}")
        return None
    return json.loads(proc.stdout)


def check_alloc(fresh: dict, base: dict, tolerance: float) -> list[str]:
    failures = []
    floor = 1.0 - tolerance
    for preset, base_preset in base.get("presets", {}).items():
        fresh_preset = fresh.get("presets", {}).get(preset)
        if fresh_preset is None:
            failures.append(f"alloc[{preset}]: preset missing from fresh run")
            continue
        for kind in ("alloc", "batch"):
            got = fresh_preset[kind]["cached_aps"]
            want = base_preset[kind]["cached_aps"]
            ratio = got / want if want else float("inf")
            verdict = "ok" if ratio >= floor else "REGRESSED"
            print(
                f"{kind}[{preset}]: {got:,}/s vs baseline {want:,}/s "
                f"({ratio:.2f}x) {verdict}"
            )
            if ratio < floor:
                failures.append(
                    f"{kind}[{preset}]: warm throughput {got:,}/s is "
                    f"{(1 - ratio) * 100:.1f}% below baseline {want:,}/s "
                    f"(tolerance {tolerance * 100:.0f}%)"
                )
    return failures


def check_obs(fresh: dict, base: dict, tolerance: float) -> list[str]:
    failures = []
    for preset, base_r in base.items():
        fresh_r = fresh.get(preset)
        if fresh_r is None:
            failures.append(f"obs[{preset}]: preset missing from fresh run")
            continue
        # The slowdown factor of telemetry relative to the same machine's
        # raw allocation body; comparable across hosts, unlike alloc/s.
        got = fresh_r["impl_aps"] / fresh_r["enabled_aps"]
        want = base_r["impl_aps"] / base_r["enabled_aps"]
        ceiling = want * (1.0 + tolerance)
        verdict = "ok" if got <= ceiling else "REGRESSED"
        print(
            f"obs[{preset}]: enabled slowdown factor {got:.3f} vs baseline "
            f"{want:.3f} (ceiling {ceiling:.3f}) {verdict}"
        )
        if got > ceiling:
            failures.append(
                f"obs[{preset}]: enabled-path slowdown factor {got:.3f} "
                f"exceeds baseline {want:.3f} by more than "
                f"{tolerance * 100:.0f}%"
            )
    return failures


def _check_speedup(
    label: str, got: float, want: float, tolerance: float, failures: list[str]
) -> None:
    """Gate one batch-vs-scalar speedup factor against its baseline floor."""
    floor = want * (1.0 - tolerance)
    verdict = "ok" if got >= floor else "REGRESSED"
    print(
        f"{label}: speedup {got:.2f}x vs baseline {want:.2f}x "
        f"(floor {floor:.2f}x) {verdict}"
    )
    if got < floor:
        failures.append(
            f"{label}: batch speedup {got:.2f}x fell more than "
            f"{tolerance * 100:.0f}% below baseline {want:.2f}x"
        )


def check_pricing(fresh: dict, base: dict, tolerance: float) -> list[str]:
    failures: list[str] = []
    for preset, base_r in base.get("presets", {}).items():
        fresh_r = fresh.get("presets", {}).get(preset)
        if fresh_r is None:
            failures.append(f"pricing[{preset}]: preset missing from fresh run")
            continue
        if fresh_r.get("rows") != base_r.get("rows"):
            # A REPRO_BENCH_QUICK run prices a smaller batch; its speedup
            # factors are not comparable to the full-shape baseline.
            print(
                f"SKIP pricing[{preset}]: batch shape differs "
                f"({fresh_r.get('rows')} vs baseline {base_r.get('rows')} rows)"
            )
            continue
        for key in ("speedup_tensor", "speedup_e2e"):
            _check_speedup(
                f"pricing[{preset}].{key}",
                fresh_r[key],
                base_r[key],
                tolerance,
                failures,
            )
    return failures


def check_autotier(fresh: dict, base: dict, tolerance: float) -> list[str]:
    failures: list[str] = []
    base_step = base.get("priced_step")
    fresh_step = fresh.get("priced_step")
    if base_step is None:
        return failures
    if fresh_step is None:
        return ["autotier: priced_step missing from fresh run"]
    if fresh_step.get("candidates") != base_step.get("candidates"):
        print(
            f"SKIP autotier.priced_step: candidate count differs "
            f"({fresh_step.get('candidates')} vs baseline "
            f"{base_step.get('candidates')})"
        )
        return failures
    _check_speedup(
        "autotier.priced_step",
        fresh_step["speedup"],
        base_step["speedup"],
        tolerance,
        failures,
    )
    return failures


def check_serve(fresh: dict, base: dict, tolerance: float) -> list[str]:
    """Gate the serve daemon's sustained request throughput.

    Shape-skips when the client fleet differs — a ``REPRO_BENCH_QUICK``
    run drives a smaller fleet whose rps and latency are not comparable
    to the full 2000-client baseline.
    """
    failures: list[str] = []
    base_r = base.get("serve")
    fresh_r = fresh.get("serve")
    if base_r is None:
        return failures
    if fresh_r is None:
        return ["serve: summary missing from fresh run"]
    shape = ("clients", "ops_per_client")
    if any(fresh_r.get(k) != base_r.get(k) for k in shape):
        print(
            f"SKIP serve: fleet shape differs "
            f"({fresh_r.get('clients')}x{fresh_r.get('ops_per_client')} vs "
            f"baseline {base_r.get('clients')}x{base_r.get('ops_per_client')})"
        )
        return failures
    floor = 1.0 - tolerance
    got, want = fresh_r["rps"], base_r["rps"]
    ratio = got / want if want else float("inf")
    verdict = "ok" if ratio >= floor else "REGRESSED"
    print(
        f"serve: {got:,} req/s vs baseline {want:,} req/s "
        f"({ratio:.2f}x, p99 {fresh_r.get('p99_ms')} ms) {verdict}"
    )
    if ratio < floor:
        failures.append(
            f"serve: sustained throughput {got:,} req/s is "
            f"{(1 - ratio) * 100:.1f}% below baseline {want:,} req/s "
            f"(tolerance {tolerance * 100:.0f}%)"
        )
    return failures


def check_guidance(fresh: dict, base: dict, tolerance: float) -> list[str]:
    """Gate the online-guidance win over static hints.

    ``win_vs_static`` (static seconds / online seconds at the headline
    period) is a modeled-time factor, so it is machine-independent and
    comparable across hosts.  Shape-skips when interval count, seed
    count or quick flag differ — a ``REPRO_BENCH_QUICK`` run prices a
    shorter schedule whose margin is not comparable to the full-shape
    baseline.
    """
    failures: list[str] = []
    base_shape = base.get("shape", {})
    fresh_shape = fresh.get("shape", {})
    shape = ("intervals", "seeds", "quick")
    if any(fresh_shape.get(k) != base_shape.get(k) for k in shape):
        print(
            f"SKIP guidance: run shape differs "
            f"({ {k: fresh_shape.get(k) for k in shape} } vs baseline "
            f"{ {k: base_shape.get(k) for k in shape} })"
        )
        return failures
    for workload in ("rotating_triad", "phased_graph500"):
        base_r = base.get(workload)
        fresh_r = fresh.get(workload)
        if base_r is None:
            continue
        if fresh_r is None:
            failures.append(f"guidance[{workload}]: missing from fresh run")
            continue
        _check_speedup(
            f"guidance[{workload}].win_vs_static",
            fresh_r["win_vs_static"],
            base_r["win_vs_static"],
            tolerance,
            failures,
        )
    return failures


def report_search(fresh: dict, base: dict) -> None:
    for workload, fresh_r in fresh.items():
        base_r = base.get(workload, {})
        print(
            f"search[{workload}]: speedup_pruned "
            f"{fresh_r.get('speedup_pruned')} "
            f"(baseline {base_r.get('speedup_pruned')}), "
            f"leaves_priced {fresh_r.get('leaves_priced')} "
            f"(baseline {base_r.get('leaves_priced')}) (informational)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the baseline")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression (default 0.20)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    gates = (
        (ALLOC_JSON, check_alloc),
        (OBS_JSON, check_obs),
        (PRICING_JSON, check_pricing),
        (AUTOTIER_JSON, check_autotier),
        (SERVE_JSON, check_serve),
        (GUIDANCE_JSON, check_guidance),
    )
    for name, check in gates:
        fresh = load_fresh(name)
        base = load_baseline(name, args.ref)
        if fresh is None or base is None:
            continue
        failures.extend(check(fresh, base, args.tolerance))

    fresh = load_fresh(SEARCH_JSON)
    base = load_baseline(SEARCH_JSON, args.ref)
    if fresh is not None and base is not None:
        report_search(fresh, base)

    if failures:
        print("\nperf regression gate FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
