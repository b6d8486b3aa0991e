"""Table IV: VTune-style Memory Access summaries for Graph500 and STREAM.

Regenerates the four rows of the paper's Table IV — each application
profiled with its memory on DRAM and on NVDIMM — and asserts the
indicator-flag pattern the paper reads off VTune: Graph500 is
memory-*latency* bound (Bound flags on, Bandwidth-Bound columns at 0.0);
STREAM is *bandwidth* bound.
"""

import pytest

from repro.apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from repro.profiler import analyze_run, render_summary_table
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GiB


def _graph500_run(setup, pus, node):
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(23)
    cfg = Graph500Config(scale=23, nroots=1, threads=16)
    return setup.engine.price_run(
        model.phases(cfg), driver.placement_all_on(node, model), pus=pus
    )


def _stream_run(setup, pus, node):
    arr = int(22.4 * GiB / 3)
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
    return setup.engine.price_run(
        [phase], Placement.single(a=node, b=node, c=node), pus=pus
    )


def test_table4_summary(record, xeon_setup, xeon_pus):
    machine = xeon_setup.machine
    rows = {
        "Graph500 / DRAM": analyze_run(
            machine, _graph500_run(xeon_setup, xeon_pus, 0)
        ),
        "Graph500 / NVDIMM": analyze_run(
            machine, _graph500_run(xeon_setup, xeon_pus, 2)
        ),
        "STREAM Triad / DRAM": analyze_run(
            machine, _stream_run(xeon_setup, xeon_pus, 0)
        ),
        "STREAM Triad / NVDIMM": analyze_run(
            machine, _stream_run(xeon_setup, xeon_pus, 2)
        ),
    }
    record("table4_vtune_summary", render_summary_table(rows))

    # Paper row 1: Graph500/DRAM — DRAM Bound flagged, no bandwidth flags.
    g_dram = rows["Graph500 / DRAM"]
    assert g_dram.flags["DRAM Bound"]
    assert g_dram.bw_bound_pct["DRAM"] == 0.0
    assert g_dram.bw_bound_pct["PMem"] == 0.0

    # Paper row 2: Graph500/NVDIMM — PMem Bound high ("especially when
    # running on NVDIMMs because this memory has a high latency").
    g_nvd = rows["Graph500 / NVDIMM"]
    assert g_nvd.flags["PMem Bound"]
    assert g_nvd.bound_pct["PMem"] > g_dram.bound_pct["DRAM"]
    assert g_nvd.bw_bound_pct["PMem"] == 0.0
    assert g_nvd.latency_sensitive

    # Paper row 3: STREAM/DRAM — DRAM Bandwidth Bound flagged (80.4%).
    s_dram = rows["STREAM Triad / DRAM"]
    assert s_dram.flags["DRAM Bandwidth Bound"]
    assert s_dram.bw_bound_pct["DRAM"] > 60

    # Paper row 4: STREAM/NVDIMM — the PMem bandwidth flag fires.
    s_nvd = rows["STREAM Triad / NVDIMM"]
    assert s_nvd.flags["PMem Bandwidth Bound"]
    assert s_nvd.bandwidth_sensitive


def test_profiling_driven_criteria(record, xeon_setup, xeon_pus):
    """§VI-B's conclusion: the profile justifies the Latency attribute for
    Graph500 and Bandwidth for STREAM."""
    from repro.sensitivity import classify_buffers
    machine = xeon_setup.machine

    g_run = _graph500_run(xeon_setup, xeon_pus, 2)
    s_run = _stream_run(xeon_setup, xeon_pus, 0)
    g_criteria = classify_buffers(machine, g_run)
    s_criteria = classify_buffers(machine, s_run)
    record(
        "table4_derived_criteria",
        f"Graph500 buffer criteria: {g_criteria}\n"
        f"STREAM buffer criteria:   {s_criteria}",
    )
    assert g_criteria["parent"] == "Latency"
    assert set(s_criteria.values()) == {"Bandwidth"}
