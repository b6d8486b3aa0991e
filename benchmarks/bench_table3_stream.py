"""Table III: STREAM Triad through the heterogeneous allocator.

Regenerates both halves of the paper's Table III — the application
requests its arrays by *criterion* and the harness reports Triad GB/s
under whatever placement ``mem_alloc`` produced:

* (a) Xeon, 20 threads: Capacity → NVDIMM (31.6/10.5/9.5 as the write
  buffer saturates) vs Latency → DRAM (75/75/OOM);
* (b) KNL, 16 threads on one cluster: Bandwidth → MCDRAM (85-90, then
  capacity fallback to DRAM at 17.9 GiB ⇒ 29.2) vs Latency → DRAM (29.2).

Both halves are priced by the recipes of :mod:`repro.experiments`, each
on a fresh stack.  Each of the 12 cells, the OOM one included, is an
exact ``modeled`` ledger row carrying the paper's value and, where the
bench holds the cell to a reference, that reference and its relative
tolerance.
"""

import pytest

import repro
from repro.apps import StreamApp
from repro.experiments import PAPER_3A, PAPER_3B, table3a, table3b
from repro.units import GiB

#: Cells the bench holds to a reference value, per table half:
#: (total GiB, column) -> (reference, relative tolerance).
CHECKS = {
    # Latency column flat at ~75 until OOM; Capacity column collapses
    # past the write buffer and flattens.
    "3a": {
        (22.4, "latency"): (75.06, 0.05),
        (89.4, "latency"): (75.24, 0.05),
        (22.4, "capacity"): (31.59, 0.08),
        (89.4, "capacity"): (10.49, 0.15),
        (223.5, "capacity"): (9.46, 0.15),
    },
    # Small sizes run on MCDRAM at ~88 GB/s; at 17.9 GiB the 4 GB MCDRAM
    # overflows, the allocator falls back whole-buffer to DRAM, and the
    # run lands exactly at DRAM speed — the paper's 29.16 crossover.
    # Latency column = DRAM speed at every size that fits.
    "3b": {
        (1.1, "bandwidth"): (88.6, 0.06),
        (3.4, "bandwidth"): (88.6, 0.06),
        (17.9, "bandwidth"): (29.3, 0.06),
        (1.1, "latency"): (29.3, 0.06),
    },
}


def _cells(ledger, table, columns, measured, paper):
    """Each Table III cell as an exact modeled row (``None`` = OOM).

    ``zip`` stops at the two columns: the fallback flag has no cell.
    """
    for gib, values in measured.items():
        for column, value, paper_value in zip(columns, values, paper[gib]):
            ledger.row(
                f"{table}.{gib}GiB.{column}", value, "GB/s", "higher", "modeled",
                paper=paper_value, approx=CHECKS[table].get((gib, column)),
            )


def _check_cells(ledger, table):
    for (gib, column), (reference, rel) in CHECKS[table].items():
        value = ledger.metrics[f"{table}.{gib}GiB.{column}"]["value"]
        assert value == pytest.approx(reference, rel=rel), (table, gib, column)


def test_table3a_xeon(archive, ledger):
    measured = archive(table3a(repro.quick_setup("xeon-cascadelake-1lm"))).values
    _cells(ledger, "3a", ("capacity", "latency"), measured, PAPER_3A)

    _check_cells(ledger, "3a")
    assert measured[223.5][1] is None


def test_table3b_knl(archive, ledger):
    measured = archive(table3b(repro.quick_setup("knl-snc4-flat"))).values
    _cells(ledger, "3b", ("bandwidth", "latency"), measured, PAPER_3B)

    _check_cells(ledger, "3b")
    assert measured[17.9][2], "capacity fallback must have triggered"


def test_custom_triad_criterion(record, knl_pus):
    """Footnote 16's custom attribute used as the allocation criterion:
    ranking by the combined 2R:1W metric picks the same target as
    Bandwidth on KNL."""
    from repro.core import stream_triad_attribute
    setup = repro.quick_setup("knl-snc4-flat")
    stream_triad_attribute(setup.memattrs)
    app = StreamApp(setup.engine, setup.allocator)
    result = app.run(int(1.1 * GiB), "StreamTriad", 0, threads=16, pus=knl_pus)
    record("table3_custom_triad_attribute", result.describe())
    assert "MCDRAM" in result.best_target_label
