"""Figure 7: per-buffer Memory Access analysis.

Regenerates the VTune memory-object view for Graph500 (7a) and STREAM
Triad (7b), with DRAM and NVDIMM placements compared — buffer ranking by
LLC miss count, traffic, stall share and allocation-site attribution —
and the bandwidth-over-time trace, through the recipes of
:mod:`repro.experiments`.
"""

import pytest

from repro.experiments import fig7_timeline, fig7a, fig7b
from repro.sim import PatternKind


def test_fig7a_graph500_objects(archive, xeon_setup):
    objects = archive(fig7a(xeon_setup)).values
    dram_objs, nvd_objs = objects["DRAM"], objects["NVDIMM"]

    # Fig. 7a: one buffer (the xmalloc'd visited/parent array) dominates.
    assert dram_objs[0].name == "parent"
    assert dram_objs[0].alloc_site == "xmalloc bfs.c:31"
    assert dram_objs[0].llc_miss_count > 2 * dram_objs[1].llc_miss_count
    # Miss counts are placement-independent; stall time is not.
    assert nvd_objs[0].llc_miss_count == pytest.approx(
        dram_objs[0].llc_miss_count
    )
    assert nvd_objs[0].stall_seconds > dram_objs[0].stall_seconds * 2


def test_fig7b_stream_objects(archive, xeon_setup):
    dram = archive(fig7b(xeon_setup)).values["DRAM"]

    # Fig. 7b: the three arrays carry comparable traffic; streaming
    # buffers contribute traffic, not stall chains.
    traffics = sorted(o.traffic_bytes for o in dram)
    assert traffics[-1] < 1.5 * traffics[0]
    assert all(o.stall_seconds == 0.0 for o in dram)
    assert {o.pattern for o in dram} == {PatternKind.STREAM}


def test_fig7_bandwidth_timeline(archive, xeon_setup):
    """The bandwidth-over-time trace of Fig. 7, per BFS level: the DRAM
    run's trace (top) against the NVDIMM run's (bottom), like the paired
    VTune screenshots."""
    runs = archive(fig7_timeline(xeon_setup)).values
    dram, nvd = runs["DRAM"], runs["NVDIMM"]
    # The NVDIMM run stretches every level; total elapsed roughly doubles
    # (Table II's ratio), and traffic moves to the PMem column.
    assert nvd.seconds > dram.seconds * 1.5
    assert all(
        2 in p.node_traffic and 0 not in p.node_traffic for p in nvd.phases
    )
