"""Table II: Graph500 TEPS under whole-process memory binding.

Regenerates both halves of the paper's Table II:

* (a) Xeon, 16 processes on one package, graph scales 23-27 (2.15-34.36
  GB), bound to local DRAM vs local NVDIMM;
* (b) KNL, 16 processes on one SubNUMA cluster, scales 23-24, bound to
  local MCDRAM vs local DDR4.

Traversal traffic at the paper's nominal scales comes from the analytic
Kronecker model (validated against real runs in the test suite); a real
(generated + validated) run at a reduced scale is also run.

Each of the 14 cells is an exact ``modeled`` ledger row carrying the
paper's value and, where the bench holds the cell to a reference, that
reference and its relative tolerance.
"""

import pytest

from repro.apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from repro.units import harmonic_mean

PAPER_2A = {
    # scale: (DRAM, NVDIMM) in TEPS e+8
    23: (3.423, 2.056),
    24: (3.459, 2.067),
    25: (3.481, 2.084),
    26: (3.343, 2.107),
    27: (2.990, 1.044),
}
PAPER_2B = {
    23: (0.418, 0.415),   # (HBM, DRAM)
    24: (0.402, 0.396),
}
#: Cells the bench holds to a reference value, per table half:
#: (scale, column) -> (reference, relative tolerance).
CHECKS = {
    "2a": {(23, "dram"): (3.423, 0.15)},
    "2b": {(23, "hbm"): (0.418, 0.2)},
}


def _teps(setup, pus, node, scale, nroots=4):
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(scale)
    cfg = Graph500Config(scale=scale, nroots=nroots, threads=16)
    result = driver.run_model(
        cfg, driver.placement_all_on(node, model), pus=pus, model=model
    )
    return result.harmonic_teps / 1e8


def _cell(ledger, table, scale, column, value, paper):
    """One Table II cell as an exact modeled row, with its provenance."""
    ledger.row(
        f"{table}.scale{scale}.{column}", value, "1e8 TEPS", "higher", "modeled",
        paper=paper, approx=CHECKS[table].get((scale, column)),
    )


def _check_cells(ledger, table):
    for (scale, column), (reference, rel) in CHECKS[table].items():
        value = ledger.metrics[f"{table}.scale{scale}.{column}"]["value"]
        assert value == pytest.approx(reference, rel=rel), (table, scale, column)


def test_table2a_xeon(record, ledger, xeon_setup, xeon_pus):
    rows = [
        f"{'Graph Size':>12} | {'DRAM':>7} | {'NVDIMM':>7} |"
        f" {'paper DRAM':>10} | {'paper NVDIMM':>12}"
    ]
    measured = {}
    for scale, (p_dram, p_nvd) in PAPER_2A.items():
        dram = _teps(xeon_setup, xeon_pus, 0, scale)
        nvd = _teps(xeon_setup, xeon_pus, 2, scale)
        measured[scale] = (dram, nvd)
        _cell(ledger, "2a", scale, "dram", dram, p_dram)
        _cell(ledger, "2a", scale, "nvdimm", nvd, p_nvd)
        size_gb = 16 * (1 << scale) * 16 / 1e9
        rows.append(
            f"{size_gb:>10.2f}GB | {dram:>7.3f} | {nvd:>7.3f} |"
            f" {p_dram:>10.3f} | {p_nvd:>12.3f}"
        )
    record("table2a_graph500_xeon", "\n".join(rows))

    # Shape assertions (who wins, by what factor, where the cliff is).
    for scale, (dram, nvd) in measured.items():
        assert 1.5 <= dram / nvd <= 3.3, f"scale {scale}"
    assert measured[27][1] < measured[26][1] * 0.7      # NVDIMM cliff at 34GB
    assert measured[27][0] > measured[23][0] * 0.8      # DRAM only sags gently
    # Absolute anchor: DRAM at scale 23 within 15% of the paper.
    _check_cells(ledger, "2a")


def test_table2b_knl(record, ledger, knl_setup, knl_pus):
    rows = [
        f"{'Graph Size':>12} | {'HBM':>7} | {'DRAM':>7} |"
        f" {'paper HBM':>9} | {'paper DRAM':>10}"
    ]
    measured = {}
    for scale, (p_hbm, p_dram) in PAPER_2B.items():
        hbm = _teps(knl_setup, knl_pus, 4, scale)
        dram = _teps(knl_setup, knl_pus, 0, scale)
        measured[scale] = (hbm, dram)
        _cell(ledger, "2b", scale, "hbm", hbm, p_hbm)
        _cell(ledger, "2b", scale, "dram", dram, p_dram)
        size_gb = 16 * (1 << scale) * 16 / 1e9
        rows.append(
            f"{size_gb:>10.2f}GB | {hbm:>7.3f} | {dram:>7.3f} |"
            f" {p_hbm:>9.3f} | {p_dram:>10.3f}"
        )
    record("table2b_graph500_knl", "\n".join(rows))

    # The paper's KNL finding: HBM ≈ DRAM (no reason to burn MCDRAM).
    for scale, (hbm, dram) in measured.items():
        assert 0.95 < hbm / dram < 1.05, f"scale {scale}"
    _check_cells(ledger, "2b")


def test_real_traversal_reduced_scale(record, xeon_setup, xeon_pus):
    """A real (generated, traversed, validated) Graph500 run at scale 16
    cross-checks the analytic-model pipeline end to end."""
    driver = Graph500Driver(xeon_setup.engine)
    cfg = Graph500Config(scale=16, nroots=4, threads=16)
    model = TrafficModel.analytic(16)

    result = driver.run_real(cfg, driver.placement_all_on(0, model), pus=xeon_pus)
    record(
        "table2_real_scale16_crosscheck",
        result.describe()
        + f"\nper-root TEPS: {[f'{t:.3e}' for t in result.teps_per_root]}",
    )
    assert result.harmonic_teps > 0
    assert harmonic_mean(result.teps_per_root) == result.harmonic_teps
