"""Fig. 6: the full sensitivity-to-allocation workflow, measured.

Runs the paper's framework end to end on the Xeon model: profile a naive
run (everything on the capacity tier), classify buffer sensitivity from
the VTune-style analysis, emit prioritized allocation requests, place
them with the planner, and measure the resulting Graph500 improvement.
Also cross-checks the three §V methods against each other and against the
exhaustive-placement oracle.
"""

import pytest

import repro
from repro.alloc import PlacementPlanner
from repro.apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from repro.sensitivity import (
    classify_kernel,
    exhaustive_search,
    infer_criterion,
    recommend_requests,
    whole_process_binding_sweep,
)

XEON_PUS = tuple(range(40))
SCALE = 22


def test_fig6_workflow(record):
    setup = repro.quick_setup("xeon-cascadelake-1lm")
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(SCALE)
    cfg = Graph500Config(scale=SCALE, nroots=1, threads=16)
    phases = model.phases(cfg)

    # Naive baseline.
    naive_placement = driver.placement_all_on(2, model)
    naive = driver.run_model(cfg, naive_placement, pus=XEON_PUS, model=model)

    # Method §V-A: whole-process binding sweep → one global criterion.
    outcomes = whole_process_binding_sweep(
        lambda node: driver.run_model(
            cfg, driver.placement_all_on(node, model), pus=XEON_PUS, model=model
        ).harmonic_teps,
        setup.memattrs.get_local_numanode_objs(0),
    )
    global_criterion = infer_criterion(setup.memattrs, outcomes, 0)

    # Method §V-B: profile the naive run → per-buffer requests.
    run = setup.engine.price_run(phases, naive_placement, pus=XEON_PUS)
    requests = recommend_requests(setup.machine, run, model.buffer_sizes())

    # Method §V-C: static hints.
    static = classify_kernel(phases[0])

    # Close the loop.
    report = PlacementPlanner(setup.allocator).plan(requests, 0)
    assert report.all_placed
    tuned = driver.run_model(
        cfg, setup.allocator.placement(), pus=XEON_PUS, model=model
    )

    # Oracle: exhaustive placement.
    oracle = exhaustive_search(
        setup.engine, phases, model.buffer_sizes(), (0, 2),
        default_node=0, pus=XEON_PUS,
    )[0]
    oracle_teps = model.edges_scanned / 2 / oracle.seconds

    speedup = tuned.harmonic_teps / naive.harmonic_teps
    record(
        "fig6_workflow",
        f"naive (all on NVDIMM):      {naive.harmonic_teps:.3e} TEPS\n"
        f"§V-A inferred criterion:    {global_criterion}\n"
        f"§V-B per-buffer requests:   "
        + ", ".join(f"{r.name}:{r.attribute}" for r in requests) + "\n"
        f"§V-C static hints:          "
        + ", ".join(f"{b}:{c}" for b, c in sorted(static.items())) + "\n"
        f"profile-guided placement:   {tuned.harmonic_teps:.3e} TEPS "
        f"({speedup:.2f}x over naive)\n"
        f"exhaustive oracle:          {oracle_teps:.3e} TEPS",
    )

    # The methods agree on the critical buffer...
    assert requests[0].name == "parent"
    assert static["parent"] == "Latency"
    assert global_criterion in ("Latency", "Bandwidth")
    # ... the loop recovers most of the naive loss ...
    assert speedup > 1.5
    # ... and lands within 5% of the exhaustive oracle.
    assert tuned.harmonic_teps == pytest.approx(oracle_teps, rel=0.05)
