"""Figure 7: per-buffer Memory Access analysis.

Regenerates the VTune memory-object view for Graph500 (7a) and STREAM
Triad (7b), with DRAM and NVDIMM placements compared — buffer ranking by
LLC miss count, traffic, stall share and allocation-site attribution.
"""

import pytest

from repro.apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from repro.profiler import object_analysis, render_object_report
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GiB

GRAPH500_SITES = {
    "parent": "xmalloc bfs.c:31",       # the Fig. 7a callstack line
    "csr_targets": "xmalloc csr.c:88",
    "csr_offsets": "xmalloc csr.c:87",
    "frontier": "xmalloc bfs.c:47",
}


def _graph500_objects(setup, pus, node):
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(23)
    cfg = Graph500Config(scale=23, nroots=1, threads=16)
    run = setup.engine.price_run(
        model.phases(cfg), driver.placement_all_on(node, model), pus=pus
    )
    return object_analysis(run, alloc_sites=GRAPH500_SITES)


def test_fig7a_graph500_objects(record, xeon_setup, xeon_pus):
    dram_objs = _graph500_objects(xeon_setup, xeon_pus, 0)
    nvd_objs = _graph500_objects(xeon_setup, xeon_pus, 2)
    record(
        "fig7a_graph500_memory_objects",
        "--- placed on DRAM ---\n"
        + render_object_report(dram_objs)
        + "\n\n--- placed on NVDIMM ---\n"
        + render_object_report(nvd_objs),
    )

    # Fig. 7a: one buffer (the xmalloc'd visited/parent array) dominates.
    assert dram_objs[0].name == "parent"
    assert dram_objs[0].alloc_site == "xmalloc bfs.c:31"
    assert dram_objs[0].llc_miss_count > 2 * dram_objs[1].llc_miss_count
    # Miss counts are placement-independent; stall time is not.
    assert nvd_objs[0].llc_miss_count == pytest.approx(
        dram_objs[0].llc_miss_count
    )
    assert nvd_objs[0].stall_seconds > dram_objs[0].stall_seconds * 2


def test_fig7b_stream_objects(record, xeon_setup, xeon_pus):
    arr = int(22.4 * GiB / 3)

    def run_on(node):
        phase = KernelPhase(
            name="triad",
            threads=20,
            accesses=(
                BufferAccess(buffer="a", pattern=PatternKind.STREAM,
                             bytes_written=arr, working_set=arr),
                BufferAccess(buffer="b", pattern=PatternKind.STREAM,
                             bytes_read=arr, working_set=arr),
                BufferAccess(buffer="c", pattern=PatternKind.STREAM,
                             bytes_read=arr, working_set=arr),
            ),
        )
        run = xeon_setup.engine.price_run(
            [phase], Placement.single(a=node, b=node, c=node), pus=xeon_pus
        )
        return object_analysis(
            run, alloc_sites={n: f"stream.c:{200 + i}" for i, n in
                              enumerate("abc")}
        )

    dram = run_on(0)
    nvd = run_on(2)
    record(
        "fig7b_stream_memory_objects",
        "--- placed on DRAM ---\n"
        + render_object_report(dram)
        + "\n\n--- placed on NVDIMM ---\n"
        + render_object_report(nvd),
    )

    # Fig. 7b: the three arrays carry comparable traffic; streaming
    # buffers contribute traffic, not stall chains.
    traffics = sorted(o.traffic_bytes for o in dram)
    assert traffics[-1] < 1.5 * traffics[0]
    assert all(o.stall_seconds == 0.0 for o in dram)
    assert {o.pattern for o in dram} == {PatternKind.STREAM}


def test_fig7_bandwidth_timeline(record, xeon_setup, xeon_pus):
    """The bandwidth-over-time trace of Fig. 7, per BFS level: the DRAM
    run's trace (top) against the NVDIMM run's (bottom), like the paired
    VTune screenshots."""
    from repro.profiler import render_bandwidth_timeline

    driver = Graph500Driver(xeon_setup.engine)
    model = TrafficModel.analytic(22)
    cfg = Graph500Config(scale=22, nroots=1, threads=16)

    def run_on(node):
        return xeon_setup.engine.price_run(
            model.phases(cfg, per_level=True),
            driver.placement_all_on(node, model),
            pus=xeon_pus,
        )

    dram = run_on(0)
    nvd = run_on(2)
    record(
        "fig7_bandwidth_timeline",
        "--- memory on DRAM ---\n"
        + render_bandwidth_timeline(xeon_setup.machine, dram)
        + "\n\n--- memory on NVDIMM ---\n"
        + render_bandwidth_timeline(xeon_setup.machine, nvd),
    )
    # The NVDIMM run stretches every level; total elapsed roughly doubles
    # (Table II's ratio), and traffic moves to the PMem column.
    assert nvd.seconds > dram.seconds * 1.5
    assert all(
        2 in p.node_traffic and 0 not in p.node_traffic for p in nvd.phases
    )
