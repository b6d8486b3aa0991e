"""Static hints vs the placement-search optimum (§V-C vs §V-A).

The paper's §V-C argues compilers *could* emit per-buffer attribute
hints but "are not ready"; :mod:`repro.analysis` implements that hint
compiler.  This bench closes the loop: for each app, take the
placement the AST pass's hints produce through plain ``mem_alloc`` —
zero profiling, zero search — and price it on the same phases the §V-A
branch-and-bound oracle optimizes.  The acceptance bar is the hint
placement landing within 10% of the search optimum's modeled seconds on
Graph500 (Xeon DRAM/NVDIMM) and STREAM Triad (KNL DRAM/MCDRAM).

The hint and optimum seconds and their ratio are exact ``modeled`` rows
of ``benchmarks/results/bench_static_hints.json``.
"""

from __future__ import annotations

from repro.analysis import app_kernels, hint_placement, hints_for
from repro.apps.graph500 import Graph500Config, TrafficModel
from repro.apps.stream_app import triad_accesses
from repro.sensitivity import search_placements
from repro.sim import KernelPhase

XEON_PUS = tuple(range(40))
KNL_PUS = tuple(range(64))


def _spec(name):
    (spec,) = [k for k in app_kernels() if k.name == name]
    return spec


def _score(setup, spec, phases, sizes, nodes, pus):
    """Price the hint placement and the search optimum on equal terms."""
    hints = hints_for(spec.analyze(), param_buffers=spec.param_buffers)
    placement = hint_placement(setup.allocator, hints, sizes, 0)
    hint_seconds = setup.engine.price_run(phases, placement, pus=pus).seconds
    result = search_placements(
        setup.engine, phases, sizes, nodes,
        default_node=nodes[0], pus=pus, top_k=1,
    )
    best = result.candidates[0]
    return {
        "hints": hints,
        "hint_seconds": hint_seconds,
        "optimum_seconds": best.seconds,
        "optimum_assignment": dict(best.assignment),
        "ratio": hint_seconds / best.seconds,
    }


def _rows(ledger, prefix, entry) -> None:
    ledger.row(f"{prefix}.hint_seconds", entry["hint_seconds"], "s", "lower", "modeled")
    ledger.row(
        f"{prefix}.optimum_seconds", entry["optimum_seconds"], "s", "lower", "modeled",
        assignment=entry["optimum_assignment"],
    )
    ledger.row(f"{prefix}.ratio", entry["ratio"], "ratio", "lower", "modeled")


def test_graph500_hints_near_optimal(xeon_setup, record, ledger):
    """Graph500 scale 20 on Xeon nodes (0=DRAM, 2=NVDIMM)."""
    model = TrafficModel.analytic(20)
    cfg = Graph500Config(scale=20, nroots=1, threads=16)
    entry = _score(
        xeon_setup,
        _spec("graph500_bfs"),
        model.phases(cfg),
        model.buffer_sizes(),
        (0, 2),
        XEON_PUS,
    )
    _rows(ledger, "graph500_xeon", entry)
    record(
        "BENCH_static_hints_graph500",
        "\n".join(
            f"{b}: {entry['hints'][b]}" for b in sorted(entry["hints"])
        )
        + f"\nhint {entry['hint_seconds'] * 1e3:.2f}ms vs optimum "
        f"{entry['optimum_seconds'] * 1e3:.2f}ms ({entry['ratio']:.3f}x)",
    )
    assert entry["ratio"] <= 1.10


def test_stream_triad_hints_near_optimal(knl_setup, record, ledger):
    """STREAM Triad, 3 x 256 MiB on KNL nodes (0=DRAM, 4=MCDRAM)."""
    array_bytes = 256 << 20
    sizes = {"a": array_bytes, "b": array_bytes, "c": array_bytes}
    phase = KernelPhase(
        name="triad", threads=16, accesses=triad_accesses(array_bytes)
    )
    entry = _score(
        knl_setup, _spec("stream_triad"), [phase], sizes, (0, 4), KNL_PUS
    )
    _rows(ledger, "stream_triad_knl", entry)
    record(
        "BENCH_static_hints_stream",
        "\n".join(
            f"{b}: {entry['hints'][b]}" for b in sorted(entry["hints"])
        )
        + f"\nhint {entry['hint_seconds'] * 1e3:.2f}ms vs optimum "
        f"{entry['optimum_seconds'] * 1e3:.2f}ms ({entry['ratio']:.3f}x)",
    )
    assert entry["ratio"] <= 1.10

