"""Table II: Graph500 TEPS under whole-process memory binding.

Regenerates both halves of the paper's Table II:

* (a) Xeon, 16 processes on one package, graph scales 23-27 (2.15-34.36
  GB), bound to local DRAM vs local NVDIMM;
* (b) KNL, 16 processes on one SubNUMA cluster, scales 23-24, bound to
  local MCDRAM vs local DDR4.

Traversal traffic at the paper's nominal scales comes from the analytic
Kronecker model (validated against real runs in the test suite), priced
by the recipes of :mod:`repro.experiments`; a real (generated +
validated) run at a reduced scale is also run.

Each of the 14 cells is an exact ``modeled`` ledger row carrying the
paper's value and, where the bench holds the cell to a reference, that
reference and its relative tolerance.
"""

import pytest

from repro.apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from repro.experiments import PAPER_2A, PAPER_2B, table2a, table2b
from repro.units import harmonic_mean

#: Cells the bench holds to a reference value, per table half:
#: (scale, column) -> (reference, relative tolerance).
CHECKS = {
    "2a": {(23, "dram"): (3.423, 0.15)},
    "2b": {(23, "hbm"): (0.418, 0.2)},
}


def _cells(ledger, table, columns, measured, paper):
    """Each Table II cell as an exact modeled row, with its provenance."""
    for scale, values in measured.items():
        for column, value, paper_value in zip(columns, values, paper[scale]):
            ledger.row(
                f"{table}.scale{scale}.{column}", value, "1e8 TEPS", "higher",
                "modeled", paper=paper_value,
                approx=CHECKS[table].get((scale, column)),
            )


def _check_cells(ledger, table):
    for (scale, column), (reference, rel) in CHECKS[table].items():
        value = ledger.metrics[f"{table}.scale{scale}.{column}"]["value"]
        assert value == pytest.approx(reference, rel=rel), (table, scale, column)


def test_table2a_xeon(archive, ledger, xeon_setup):
    measured = archive(table2a(xeon_setup)).values
    _cells(ledger, "2a", ("dram", "nvdimm"), measured, PAPER_2A)

    # Shape assertions (who wins, by what factor, where the cliff is).
    for scale, (dram, nvd) in measured.items():
        assert 1.5 <= dram / nvd <= 3.3, f"scale {scale}"
    assert measured[27][1] < measured[26][1] * 0.7      # NVDIMM cliff at 34GB
    assert measured[27][0] > measured[23][0] * 0.8      # DRAM only sags gently
    # Absolute anchor: DRAM at scale 23 within 15% of the paper.
    _check_cells(ledger, "2a")


def test_table2b_knl(archive, ledger, knl_setup):
    measured = archive(table2b(knl_setup)).values
    _cells(ledger, "2b", ("hbm", "dram"), measured, PAPER_2B)

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
