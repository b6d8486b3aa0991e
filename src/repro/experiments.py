"""The paper's tables and figures, one recipe per archived artifact.

Each recipe regenerates one artifact on the stack it is given (the
:func:`~repro.quick_setup` stack it prices on; the topology figures
build their own) and returns an :class:`Artifact`: the exact text its
bench archives as ``benchmarks/results/<name>.txt``, paper columns
included, and the values behind that text.  The benches in
``benchmarks/`` call these recipes, gate the values in their ledgers
and assert on them.  ``repro-experiments`` (or ``python -m
repro.experiments``) prints the same archives, each under its file
name, so what it prints is what the benches archive::

    repro-experiments table2 table3
    repro-experiments all
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import quick_setup
from .analysis import app_kernels, hint_placement, hints_for
from .apps import StreamApp
from .apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from .apps.stream_app import triad_accesses
from .core import MemAttrs, discover_from_sysfs, render_memattrs
from .errors import CapacityError
from .firmware import build_sysfs
from .hw import get_platform
from .obs.cli import add_obs_arguments, finish_obs, start_obs
from .profiler import (
    analyze_run,
    object_analysis,
    render_bandwidth_timeline,
    render_object_report,
    render_summary_table,
)
from .sensitivity import classify_buffers, search_placements
from .sim import KernelPhase, Placement
from .topology import build_topology, render_lstopo
from .units import GiB

__all__ = [
    "Artifact", "EXPERIMENTS", "PAPER_2A", "PAPER_2B", "PAPER_3A", "PAPER_3B",
    "fig1", "fig2", "fig3", "fig5", "fig7a", "fig7b", "fig7_timeline", "main",
    "static_hints_graph500", "static_hints_stream", "table2a", "table2b",
    "table3a", "table3b", "table4", "table4_criteria",
]

XEON = "xeon-cascadelake-1lm"
KNL = "knl-snc4-flat"
_XEON_PUS = tuple(range(40))
_KNL_PUS = tuple(range(64))

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
#: Fig. 7a's allocation sites; ``parent`` is the figure's callstack line.
_GRAPH500_SITES = {
    "parent": "xmalloc bfs.c:31",
    "csr_targets": "xmalloc csr.c:88",
    "csr_offsets": "xmalloc csr.c:87",
    "frontier": "xmalloc bfs.c:47",
}


@dataclass(frozen=True)
class Artifact:
    """One regenerated artifact.

    ``text`` is what its bench archives as ``benchmarks/results/<name>.txt``;
    ``values`` holds the numbers (or objects) the bench gates and asserts on.
    """

    name: str
    text: str
    values: dict = field(default_factory=dict)


def _lstopo(name: str, platform: str, **kwargs) -> Artifact:
    topology = build_topology(get_platform(platform, **kwargs))
    return Artifact(name, render_lstopo(topology))


def fig1() -> Artifact:
    """Fig. 1: lstopo of the KNL in SNC4/Hybrid50 mode."""
    return _lstopo("fig1_knl_snc4_hybrid50", "knl-snc4-hybrid50")


def fig2() -> Artifact:
    """Fig. 2: lstopo of the dual Xeon 6230 with NVDIMMs in 1LM/SNC2."""
    return _lstopo("fig2_xeon_cascadelake_1lm_snc2", XEON, snc=2)


def fig3() -> Artifact:
    """Fig. 3: lstopo of the fictitious four-kind platform."""
    return _lstopo("fig3_fictitious_four_kind", "fictitious-four-kind")


def fig5() -> Artifact:
    """Fig. 5: ``lstopo --memattrs`` on the Fig. 2 Xeon, natively discovered."""
    topo = build_topology(get_platform(XEON, snc=2))
    memattrs = MemAttrs(topo)
    discover_from_sysfs(memattrs, build_sysfs(topo.machine_spec))
    text = render_memattrs(memattrs, only=("Capacity", "Bandwidth", "Latency"))
    return Artifact("fig5_lstopo_memattrs", text)


def _table2(name, setup, pus, columns, paper) -> Artifact:
    """Graph500 TEPS (e+8), 16 processes bound to each of two nodes.

    ``columns`` names the two (label, node) bindings; ``values`` maps each
    scale to the two TEPS in that order.
    """
    (left, left_node), (right, right_node) = columns
    rows = [
        f"{'Graph Size':>12} | {left:>7} | {right:>7} | paper {left} | paper {right}"
    ]
    width_l, width_r = len(f"paper {left}"), len(f"paper {right}")
    driver = Graph500Driver(setup.engine)
    values = {}
    for scale, (paper_l, paper_r) in paper.items():
        model = TrafficModel.analytic(scale)
        cfg = Graph500Config(scale=scale, nroots=4, threads=16)
        teps_l, teps_r = (
            driver.run_model(
                cfg, driver.placement_all_on(node, model), pus=pus, model=model
            ).harmonic_teps / 1e8
            for node in (left_node, right_node)
        )
        values[scale] = (teps_l, teps_r)
        size_gb = 16 * (1 << scale) * 16 / 1e9
        rows.append(
            f"{size_gb:>10.2f}GB | {teps_l:>7.3f} | {teps_r:>7.3f} |"
            f" {paper_l:>{width_l}.3f} | {paper_r:>{width_r}.3f}"
        )
    return Artifact(name, "\n".join(rows), values)


def table2a(setup) -> Artifact:
    """Table II(a): the Xeon, local DRAM (node 0) vs local NVDIMM (node 2)."""
    return _table2(
        "table2a_graph500_xeon", setup, _XEON_PUS,
        (("DRAM", 0), ("NVDIMM", 2)), PAPER_2A,
    )


def table2b(setup) -> Artifact:
    """Table II(b): the KNL's first cluster, MCDRAM (node 4) vs DDR4 (node 0)."""
    return _table2(
        "table2b_graph500_knl", setup, _KNL_PUS,
        (("HBM", 4), ("DRAM", 0)), PAPER_2B,
    )


def _table3(name, setup, criterion, short, threads, pus, paper) -> Artifact:
    """STREAM Triad GB/s through ``mem_alloc``: ``criterion`` vs strict Latency.

    ``values`` maps each total GiB to (``criterion`` GB/s, Latency GB/s or
    ``None`` when out of memory, whether ``criterion`` fell back).
    """
    app = StreamApp(setup.engine, setup.allocator)
    rows = [
        f"{'Total':>9} | {criterion:>9} | {'Latency':>8} |"
        f" {'paper ' + short:>9} | {'paper Lat':>9}"
    ]
    values = {}
    for gib, (paper_c, paper_lat) in paper.items():
        result = app.run(int(gib * GiB), criterion, 0, threads=threads, pus=pus)
        try:
            lat = app.run(
                int(gib * GiB), "Latency", 0, threads=threads, pus=pus,
                strict=True,
            ).triad_gbps
            lat_text = f"{lat:8.2f}"
        except CapacityError:
            lat = None
            lat_text = f"{'OOM':>8}"
        values[gib] = (result.triad_gbps, lat, result.fallback_used)
        rows.append(
            f"{gib:>7.1f}Gi | {result.triad_gbps:>9.2f} | {lat_text} |"
            f" {paper_c:>9.2f} | {paper_lat if paper_lat else 'blank':>9}"
        )
    return Artifact(name, "\n".join(rows), values)


def table3a(setup) -> Artifact:
    """Table III(a): the Xeon, 20 threads, Capacity vs Latency."""
    return _table3(
        "table3a_stream_xeon", setup, "Capacity", "Cap", 20, _XEON_PUS, PAPER_3A
    )


def table3b(setup) -> Artifact:
    """Table III(b): the KNL, 16 threads on one cluster, Bandwidth vs Latency."""
    return _table3(
        "table3b_stream_knl", setup, "Bandwidth", "BW", 16, _KNL_PUS, PAPER_3B
    )


def _graph500_run(setup, node, scale, *, per_level=False):
    """One Graph500 root on the Xeon, every buffer on ``node``."""
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(scale)
    cfg = Graph500Config(scale=scale, nroots=1, threads=16)
    return setup.engine.price_run(
        model.phases(cfg, per_level=per_level),
        driver.placement_all_on(node, model),
        pus=_XEON_PUS,
    )


def _triad_run(setup, node):
    """STREAM Triad over 22.4 GiB on the Xeon, 20 threads, arrays on ``node``."""
    phase = KernelPhase(
        name="triad", threads=20, accesses=triad_accesses(int(22.4 * GiB / 3))
    )
    return setup.engine.price_run(
        [phase], Placement.single(a=node, b=node, c=node), pus=_XEON_PUS
    )


def table4(setup) -> Artifact:
    """Table IV: VTune-style Memory Access summaries; ``values`` maps each
    row label to its :class:`~repro.profiler.MemoryAccessSummary`."""
    runs = {
        "Graph500 / DRAM": _graph500_run(setup, 0, 23),
        "Graph500 / NVDIMM": _graph500_run(setup, 2, 23),
        "STREAM Triad / DRAM": _triad_run(setup, 0),
        "STREAM Triad / NVDIMM": _triad_run(setup, 2),
    }
    summaries = {
        label: analyze_run(setup.machine, run) for label, run in runs.items()
    }
    return Artifact(
        "table4_vtune_summary", render_summary_table(summaries), summaries
    )


def table4_criteria(setup) -> Artifact:
    """§VI-B's reading of Table IV: per-buffer criteria from the profiles
    of Graph500 on NVDIMM and STREAM Triad on DRAM."""
    criteria = {
        "Graph500": classify_buffers(setup.machine, _graph500_run(setup, 2, 23)),
        "STREAM": classify_buffers(setup.machine, _triad_run(setup, 0)),
    }
    text = (
        f"Graph500 buffer criteria: {criteria['Graph500']}\n"
        f"STREAM buffer criteria:   {criteria['STREAM']}"
    )
    return Artifact("table4_derived_criteria", text, criteria)


def _dram_vs_nvdimm(heading: str, texts: dict[str, str]) -> str:
    return "\n\n".join(
        f"--- {heading} on {kind} ---\n{text}" for kind, text in texts.items()
    )


def fig7a(setup) -> Artifact:
    """Fig. 7a: Graph500's memory objects; ``values`` maps DRAM and NVDIMM
    to the objects of the run placed there."""
    objects = {
        kind: object_analysis(
            _graph500_run(setup, node, 23), alloc_sites=_GRAPH500_SITES
        )
        for kind, node in (("DRAM", 0), ("NVDIMM", 2))
    }
    texts = {kind: render_object_report(objs) for kind, objs in objects.items()}
    return Artifact(
        "fig7a_graph500_memory_objects", _dram_vs_nvdimm("placed", texts), objects
    )


def fig7b(setup) -> Artifact:
    """Fig. 7b: STREAM Triad's memory objects, keyed like :func:`fig7a`."""
    sites = {n: f"stream.c:{200 + i}" for i, n in enumerate("abc")}
    objects = {
        kind: object_analysis(_triad_run(setup, node), alloc_sites=sites)
        for kind, node in (("DRAM", 0), ("NVDIMM", 2))
    }
    texts = {kind: render_object_report(objs) for kind, objs in objects.items()}
    return Artifact(
        "fig7b_stream_memory_objects", _dram_vs_nvdimm("placed", texts), objects
    )


def fig7_timeline(setup) -> Artifact:
    """Fig. 7's bandwidth-over-time trace per BFS level (Graph500 scale
    22); ``values`` maps DRAM and NVDIMM to the priced run."""
    runs = {
        kind: _graph500_run(setup, node, 22, per_level=True)
        for kind, node in (("DRAM", 0), ("NVDIMM", 2))
    }
    texts = {
        kind: render_bandwidth_timeline(setup.machine, run)
        for kind, run in runs.items()
    }
    return Artifact(
        "fig7_bandwidth_timeline", _dram_vs_nvdimm("memory", texts), runs
    )


def _hint_score(name, setup, kernel, phases, sizes, nodes, pus) -> Artifact:
    """Price the static-hint placement and the search optimum on equal terms."""
    (spec,) = [k for k in app_kernels() if k.name == kernel]
    hints = hints_for(spec.analyze(), param_buffers=spec.param_buffers)
    placement = hint_placement(setup.allocator, hints, sizes, 0)
    hint_seconds = setup.engine.price_run(phases, placement, pus=pus).seconds
    best = search_placements(
        setup.engine, phases, sizes, nodes,
        default_node=nodes[0], pus=pus, top_k=1,
    ).best
    values = {
        "hints": hints,
        "hint_seconds": hint_seconds,
        "optimum_seconds": best.seconds,
        "optimum_assignment": dict(best.assignment),
        "ratio": hint_seconds / best.seconds,
    }
    text = "\n".join(f"{b}: {hints[b]}" for b in sorted(hints)) + (
        f"\nhint {hint_seconds * 1e3:.2f}ms vs optimum "
        f"{best.seconds * 1e3:.2f}ms ({values['ratio']:.3f}x)"
    )
    return Artifact(name, text, values)


def static_hints_graph500(setup) -> Artifact:
    """§V-C vs §V-A: Graph500 scale 20's hint placement against the search
    optimum over the Xeon's DRAM (node 0) and NVDIMM (node 2)."""
    model = TrafficModel.analytic(20)
    cfg = Graph500Config(scale=20, nroots=1, threads=16)
    return _hint_score(
        "BENCH_static_hints_graph500", setup, "graph500_bfs",
        model.phases(cfg), model.buffer_sizes(), (0, 2), _XEON_PUS,
    )


def static_hints_stream(setup) -> Artifact:
    """§V-C vs §V-A: STREAM Triad over 3 x 256 MiB against the search
    optimum over the KNL's DRAM (node 0) and MCDRAM (node 4)."""
    array_bytes = 256 << 20
    phase = KernelPhase(
        name="triad", threads=16, accesses=triad_accesses(array_bytes)
    )
    return _hint_score(
        "BENCH_static_hints_stream", setup, "stream_triad",
        [phase], dict.fromkeys("abc", array_bytes), (0, 4), _KNL_PUS,
    )


#: Artifact -> its recipes in archive order, each with the platform of the
#: ``quick_setup`` stack it prices on (``None``: it builds its own topology).
EXPERIMENTS = {
    "figs1-3": ((fig1, None), (fig2, None), (fig3, None)),
    "fig5": ((fig5, None),),
    "table2": ((table2a, XEON), (table2b, KNL)),
    "table3": ((table3a, XEON), (table3b, KNL)),
    "table4": ((table4, XEON), (table4_criteria, XEON)),
    "fig7": ((fig7a, XEON), (fig7b, XEON), (fig7_timeline, XEON)),
    "static-hints": ((static_hints_graph500, XEON), (static_hints_stream, KNL)),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Print the paper's tables and figures as the benchmarks "
        "archive them under benchmarks/results/",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifacts to regenerate",
    )
    add_obs_arguments(parser)
    args = parser.parse_args(argv)
    start_obs(args)
    names = sorted(EXPERIMENTS) if "all" in args.artifacts else args.artifacts
    for name in names:
        print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        for recipe, platform in EXPERIMENTS[name]:
            artifact = recipe() if platform is None else recipe(quick_setup(platform))
            print(f"### benchmarks/results/{artifact.name}.txt\n{artifact.text}")
    finish_obs(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
