"""Table IV: VTune-style Memory Access summaries for Graph500 and STREAM.

Regenerates the four rows of the paper's Table IV — each application
profiled with its memory on DRAM and on NVDIMM — through the recipes of
:mod:`repro.experiments`, and asserts the indicator-flag pattern the
paper reads off VTune: Graph500 is memory-*latency* bound (Bound flags
on, Bandwidth-Bound columns at 0.0); STREAM is *bandwidth* bound.

Each of the 16 cells (four runs × DRAM/PMem Bound and DRAM/PMem
Bandwidth Bound) is an exact ``modeled`` row of
``benchmarks/results/bench_table4_profiler.json``, carrying whether the
cell's flag fired.
"""

from repro.experiments import table4, table4_criteria

KINDS = ("DRAM", "PMem")


def _cells(ledger, summaries):
    """Each Table IV cell as an exact modeled row, as the table shows it."""
    for label, summary in summaries.items():
        row = label.lower().replace(" / ", ".").replace(" ", "_")
        for kind in KINDS:
            for metric, pct, unit, flag in (
                ("bound", summary.bound_pct, "%clk", f"{kind} Bound"),
                ("bw_bound", summary.bw_bound_pct, "%t", f"{kind} Bandwidth Bound"),
            ):
                ledger.row(
                    f"{row}.{kind.lower()}_{metric}", pct.get(kind, 0.0), unit,
                    "lower", "modeled", flagged=bool(summary.flags.get(flag)),
                )


def test_table4_summary(archive, ledger, xeon_setup):
    rows = archive(table4(xeon_setup)).values
    _cells(ledger, rows)

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


def test_profiling_driven_criteria(archive, xeon_setup):
    """§VI-B's conclusion: the profile justifies the Latency attribute for
    Graph500 and Bandwidth for STREAM."""
    criteria = archive(table4_criteria(xeon_setup)).values
    assert criteria["Graph500"]["parent"] == "Latency"
    assert set(criteria["STREAM"].values()) == {"Bandwidth"}
