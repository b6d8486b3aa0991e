"""Table III: STREAM Triad through the heterogeneous allocator.

Regenerates both halves of the paper's Table III — the application
requests its arrays by *criterion* and the harness reports Triad GB/s
under whatever placement ``mem_alloc`` produced:

* (a) Xeon, 20 threads: Capacity → NVDIMM (31.6/10.5/9.5 as the write
  buffer saturates) vs Latency → DRAM (75/75/OOM);
* (b) KNL, 16 threads on one cluster: Bandwidth → MCDRAM (85-90, then
  capacity fallback to DRAM at 17.9 GiB ⇒ 29.2) vs Latency → DRAM (29.2).

Each of the 12 cells, the OOM one included, is an exact ``modeled``
ledger row carrying the paper's value and, where the bench holds the
cell to a reference, that reference and its relative tolerance.
"""

import pytest

from repro.apps import StreamApp
from repro.errors import CapacityError
from repro.units import GiB

PAPER_3A = {
    # total GiB: (Capacity/NVDIMM, Latency/DRAM); None = blank cell (OOM)
    22.4: (31.59, 75.06),
    89.4: (10.49, 75.24),
    223.5: (9.46, None),
}
PAPER_3B = {
    1.1: (85.05, 29.17),     # (Bandwidth/HBM, Latency/DRAM)
    3.4: (89.90, 29.17),
    17.9: (29.16, None),
}
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


def _fresh_xeon_app():
    import repro
    setup = repro.quick_setup("xeon-cascadelake-1lm")
    return StreamApp(setup.engine, setup.allocator)


def _fresh_knl_app():
    import repro
    setup = repro.quick_setup("knl-snc4-flat")
    return StreamApp(setup.engine, setup.allocator)


def _cell(ledger, table, gib, column, value, paper):
    """One Table III cell as an exact modeled row (``None`` = OOM)."""
    ledger.row(
        f"{table}.{gib}GiB.{column}", value, "GB/s", "higher", "modeled",
        paper=paper, approx=CHECKS[table].get((gib, column)),
    )


def _check_cells(ledger, table):
    for (gib, column), (reference, rel) in CHECKS[table].items():
        value = ledger.metrics[f"{table}.{gib}GiB.{column}"]["value"]
        assert value == pytest.approx(reference, rel=rel), (table, gib, column)


def test_table3a_xeon(record, ledger, xeon_pus):
    app = _fresh_xeon_app()
    rows = [
        f"{'Total':>9} | {'Capacity':>9} | {'Latency':>8} |"
        f" {'paper Cap':>9} | {'paper Lat':>9}"
    ]
    measured = {}
    for gib, (p_cap, p_lat) in PAPER_3A.items():
        cap = app.run(
            int(gib * GiB), "Capacity", 0, threads=20, pus=xeon_pus
        ).triad_gbps
        try:
            lat = app.run(
                int(gib * GiB), "Latency", 0, threads=20, pus=xeon_pus,
                strict=True,
            ).triad_gbps
            lat_text = f"{lat:8.2f}"
        except CapacityError:
            lat = None
            lat_text = f"{'OOM':>8}"
        measured[gib] = (cap, lat)
        _cell(ledger, "3a", gib, "capacity", cap, p_cap)
        _cell(ledger, "3a", gib, "latency", lat, p_lat)
        rows.append(
            f"{gib:>7.1f}Gi | {cap:>9.2f} | {lat_text} |"
            f" {p_cap:>9.2f} | {p_lat if p_lat else 'blank':>9}"
        )
    record("table3a_stream_xeon", "\n".join(rows))

    _check_cells(ledger, "3a")
    assert measured[223.5][1] is None


def test_table3b_knl(record, ledger, knl_pus):
    app = _fresh_knl_app()
    rows = [
        f"{'Total':>9} | {'Bandwidth':>9} | {'Latency':>8} |"
        f" {'paper BW':>9} | {'paper Lat':>9}"
    ]
    measured = {}
    for gib, (p_bw, p_lat) in PAPER_3B.items():
        bw_res = app.run(
            int(gib * GiB), "Bandwidth", 0, threads=16, pus=knl_pus
        )
        bw = bw_res.triad_gbps
        try:
            lat = app.run(
                int(gib * GiB), "Latency", 0, threads=16, pus=knl_pus,
                strict=True,
            ).triad_gbps
            lat_text = f"{lat:8.2f}"
        except CapacityError:
            lat = None
            lat_text = f"{'OOM':>8}"
        measured[gib] = (bw, lat, bw_res.fallback_used)
        _cell(ledger, "3b", gib, "bandwidth", bw, p_bw)
        _cell(ledger, "3b", gib, "latency", lat, p_lat)
        rows.append(
            f"{gib:>7.1f}Gi | {bw:>9.2f} | {lat_text} |"
            f" {p_bw:>9.2f} | {p_lat if p_lat else 'blank':>9}"
        )
    record("table3b_stream_knl", "\n".join(rows))

    _check_cells(ledger, "3b")
    assert measured[17.9][2], "capacity fallback must have triggered"


def test_custom_triad_criterion(record, knl_pus):
    """Footnote 16's custom attribute used as the allocation criterion:
    ranking by the combined 2R:1W metric picks the same target as
    Bandwidth on KNL."""
    import repro
    from repro.core import stream_triad_attribute
    setup = repro.quick_setup("knl-snc4-flat")
    stream_triad_attribute(setup.memattrs)
    app = StreamApp(setup.engine, setup.allocator)
    result = app.run(int(1.1 * GiB), "StreamTriad", 0, threads=16, pus=knl_pus)
    record("table3_custom_triad_attribute", result.describe())
    assert "MCDRAM" in result.best_target_label
