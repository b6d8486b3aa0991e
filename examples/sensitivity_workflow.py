#!/usr/bin/env python
"""The Fig. 6 workflow: determine buffer sensitivity three ways, then
feed the allocator.

1. **profiling** (§V-B): run once on the wrong tier, read the VTune-style
   Memory Access analysis, classify each buffer;
2. **static analysis** (§V-C): classify the kernel's access descriptors
   without running anything;
3. **search oracle** (§V-A): exhaustively price every placement of the
   critical buffers;
then place the buffers with the planner and show the resulting speedup.

Run:  python examples/sensitivity_workflow.py
"""

import repro
from repro.alloc import PlacementPlanner
from repro.apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from repro.profiler import analyze_run, object_analysis, render_object_report
from repro.sensitivity import (
    classify_kernel,
    recommend_requests,
    search_placements,
)

PUS = tuple(range(40))


def main() -> None:
    setup = repro.quick_setup("xeon-cascadelake-1lm")
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(22)
    cfg = Graph500Config(scale=22, nroots=1, threads=16)
    phases = model.phases(cfg)

    print("### Baseline: everything on the capacity tier (NVDIMM)")
    naive_placement = driver.placement_all_on(2, model)
    naive = driver.run_model(cfg, naive_placement, pus=PUS, model=model)
    print(f"  {naive.describe()}")

    print("\n### Method 1 — profiling the naive run (VTune-style)")
    run = setup.engine.price_run(phases, naive_placement, pus=PUS)
    summary = analyze_run(setup.machine, run)
    print(f"  PMem Bound: {summary.bound_pct['PMem']:.1f}% of clockticks "
          f"(latency-sensitive: {summary.latency_sensitive})")
    print(render_object_report(object_analysis(run), top=4))
    requests = recommend_requests(setup.machine, run, model.buffer_sizes())
    print("  recommended requests:")
    for r in requests:
        print(f"    {r.name:<12} -> {r.attribute:<9} (priority {r.priority})")

    print("\n### Method 2 — static analysis of the kernel descriptor")
    for buffer, criterion in classify_kernel(phases[0]).items():
        print(f"    {buffer:<12} -> {criterion}")

    print("\n### Method 3 — exhaustive placement search (the 2^N oracle)")
    candidates = search_placements(
        setup.engine,
        phases,
        model.buffer_sizes(),
        (0, 2),
        default_node=0,
        pus=PUS,
    ).candidates
    best = candidates[0]
    print(f"    best of {len(candidates)} placements: {best.as_dict()} "
          f"({best.seconds * 1e3:.1f} ms)")

    print("\n### Feeding the allocator (priority planner)")
    report = PlacementPlanner(setup.allocator).plan(requests, 0)
    print(report.describe())
    tuned = driver.run_model(
        cfg, setup.allocator.placement(), pus=PUS, model=model
    )
    print(f"\n  tuned: {tuned.describe()}")
    print(f"  speedup over naive: "
          f"{tuned.harmonic_teps / naive.harmonic_teps:.2f}x")


if __name__ == "__main__":
    main()
