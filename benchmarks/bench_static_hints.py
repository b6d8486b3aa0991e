"""Static hints vs the placement-search optimum (§V-C vs §V-A).

The paper's §V-C argues compilers *could* emit per-buffer attribute
hints but "are not ready"; :mod:`repro.analysis` implements that hint
compiler.  This bench closes the loop: for each app, take the
placement the AST pass's hints produce through plain ``mem_alloc`` —
zero profiling, zero search — and price it on the same phases the §V-A
branch-and-bound oracle optimizes.  The acceptance bar is the hint
placement landing within 10% of the search optimum's modeled seconds on
Graph500 (Xeon DRAM/NVDIMM) and STREAM Triad (KNL DRAM/MCDRAM).

The recipes of :mod:`repro.experiments` price both placements; the hint
and optimum seconds and their ratio are exact ``modeled`` rows of
``benchmarks/results/bench_static_hints.json``.
"""

from __future__ import annotations

from repro.experiments import static_hints_graph500, static_hints_stream


def _rows(ledger, prefix, entry) -> None:
    ledger.row(f"{prefix}.hint_seconds", entry["hint_seconds"], "s", "lower", "modeled")
    ledger.row(
        f"{prefix}.optimum_seconds", entry["optimum_seconds"], "s", "lower", "modeled",
        assignment=entry["optimum_assignment"],
    )
    ledger.row(f"{prefix}.ratio", entry["ratio"], "ratio", "lower", "modeled")


def test_graph500_hints_near_optimal(xeon_setup, archive, ledger):
    """Graph500 scale 20 on Xeon nodes (0=DRAM, 2=NVDIMM)."""
    entry = archive(static_hints_graph500(xeon_setup)).values
    _rows(ledger, "graph500_xeon", entry)
    assert entry["ratio"] <= 1.10


def test_stream_triad_hints_near_optimal(knl_setup, archive, ledger):
    """STREAM Triad, 3 x 256 MiB on KNL nodes (0=DRAM, 4=MCDRAM)."""
    entry = archive(static_hints_stream(knl_setup)).values
    _rows(ledger, "stream_triad_knl", entry)
    assert entry["ratio"] <= 1.10
