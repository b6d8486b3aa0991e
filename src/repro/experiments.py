"""Standalone experiment runner: regenerate the paper's tables & figures
without pytest.

``repro-experiments`` (or ``python -m repro.experiments``) prints any of
the paper's artifacts in its layout::

    repro-experiments table2 table3
    repro-experiments all

The same underlying code paths power the assertion-carrying benchmarks in
``benchmarks/``; this module is the human-facing harness.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import quick_setup
from .apps import StreamApp
from .apps.graph500 import Graph500Config, Graph500Driver, TrafficModel
from .core import MemAttrs, discover_from_sysfs, render_memattrs
from .errors import CapacityError
from .firmware import build_sysfs
from .hw import get_platform
from .obs.cli import add_obs_arguments, finish_obs, start_obs
from .profiler import analyze_run, object_analysis, render_object_report, render_summary_table
from .sensitivity import search_placements
from .sim import BufferAccess, KernelPhase, PatternKind, Placement
from .topology import build_topology, render_lstopo
from .units import GiB

__all__ = ["main", "EXPERIMENTS"]

_XEON_PUS = tuple(range(40))
_KNL_PUS = tuple(range(64))


def figs_topology() -> str:
    """Figs. 1-3: the three platform renderings."""
    parts = []
    for title, name, kwargs in (
        ("Fig. 1 — KNL SNC4/Hybrid50", "knl-snc4-hybrid50", {}),
        ("Fig. 2 — dual Xeon 6230 + NVDIMM (1LM, SNC2)",
         "xeon-cascadelake-1lm", {"snc": 2}),
        ("Fig. 3 — fictitious four-kind platform", "fictitious-four-kind", {}),
    ):
        topo = build_topology(get_platform(name, **kwargs))
        parts.append(f"### {title}\n{render_lstopo(topo)}")
    return "\n\n".join(parts)


def fig5() -> str:
    """Fig. 5: lstopo --memattrs on the Fig. 2 Xeon."""
    topo = build_topology(get_platform("xeon-cascadelake-1lm", snc=2))
    memattrs = MemAttrs(topo)
    discover_from_sysfs(memattrs, build_sysfs(topo.machine_spec))
    return render_memattrs(memattrs, only=("Capacity", "Bandwidth", "Latency"))


def table2() -> str:
    """Table II: Graph500 TEPS (e+8) under whole-process binding."""
    lines = ["(a) Xeon, 16 processes, local DRAM vs local NVDIMM"]
    xeon = quick_setup("xeon-cascadelake-1lm")
    driver = Graph500Driver(xeon.engine)
    lines.append(f"{'Graph Size':>12} | {'DRAM':>7} | {'NVDIMM':>7}")
    for scale in (23, 24, 25, 26, 27):
        model = TrafficModel.analytic(scale)
        cfg = Graph500Config(scale=scale, nroots=4, threads=16)
        dram = driver.run_model(
            cfg, driver.placement_all_on(0, model), pus=_XEON_PUS, model=model
        ).harmonic_teps / 1e8
        nvd = driver.run_model(
            cfg, driver.placement_all_on(2, model), pus=_XEON_PUS, model=model
        ).harmonic_teps / 1e8
        size = 16 * (1 << scale) * 16 / 1e9
        lines.append(f"{size:>10.2f}GB | {dram:>7.3f} | {nvd:>7.3f}")

    lines.append("")
    lines.append("(b) KNL, 16 processes on one SubNUMA cluster, HBM vs DRAM")
    knl = quick_setup("knl-snc4-flat")
    driver = Graph500Driver(knl.engine)
    lines.append(f"{'Graph Size':>12} | {'HBM':>7} | {'DRAM':>7}")
    for scale in (23, 24):
        model = TrafficModel.analytic(scale)
        cfg = Graph500Config(scale=scale, nroots=4, threads=16)
        hbm = driver.run_model(
            cfg, driver.placement_all_on(4, model), pus=_KNL_PUS, model=model
        ).harmonic_teps / 1e8
        dram = driver.run_model(
            cfg, driver.placement_all_on(0, model), pus=_KNL_PUS, model=model
        ).harmonic_teps / 1e8
        size = 16 * (1 << scale) * 16 / 1e9
        lines.append(f"{size:>10.2f}GB | {hbm:>7.3f} | {dram:>7.3f}")
    return "\n".join(lines)


def _triad_cell(platform, gib, criterion, threads, pus, strict=False):
    setup = quick_setup(platform)
    app = StreamApp(setup.engine, setup.allocator)
    try:
        result = app.run(
            int(gib * GiB), criterion, 0, threads=threads, pus=pus,
            strict=strict,
        )
        return f"{result.triad_gbps:9.2f}" + ("*" if result.fallback_used else " ")
    except CapacityError:
        return f"{'OOM':>9} "


def table3() -> str:
    """Table III: STREAM Triad GB/s per criterion and size."""
    lines = ["(a) Xeon, 20 threads (Latency column uses strict binding)"]
    lines.append(f"{'Total':>9} | {'Capacity':>10} | {'Latency':>10}")
    for gib in (22.4, 89.4, 223.5):
        cap = _triad_cell("xeon-cascadelake-1lm", gib, "Capacity", 20, _XEON_PUS)
        lat = _triad_cell(
            "xeon-cascadelake-1lm", gib, "Latency", 20, _XEON_PUS, strict=True
        )
        lines.append(f"{gib:>7.1f}Gi | {cap} | {lat}")
    lines.append("")
    lines.append("(b) KNL, 16 threads on one SubNUMA cluster")
    lines.append(f"{'Total':>9} | {'Bandwidth':>10} | {'Latency':>10}")
    for gib in (1.1, 3.4, 17.9):
        bw = _triad_cell("knl-snc4-flat", gib, "Bandwidth", 16, _KNL_PUS)
        lat = _triad_cell("knl-snc4-flat", gib, "Latency", 16, _KNL_PUS)
        lines.append(f"{gib:>7.1f}Gi | {bw} | {lat}")
    lines.append("(* = capacity fallback)")
    return "\n".join(lines)


def _stream_phase(total_bytes: int, threads: int) -> KernelPhase:
    arr = total_bytes // 3
    return KernelPhase(
        name="triad",
        threads=threads,
        accesses=(
            BufferAccess(buffer="a", pattern=PatternKind.STREAM,
                         bytes_written=arr, working_set=arr),
            BufferAccess(buffer="b", pattern=PatternKind.STREAM,
                         bytes_read=arr, working_set=arr),
            BufferAccess(buffer="c", pattern=PatternKind.STREAM,
                         bytes_read=arr, working_set=arr),
        ),
    )


def table4() -> str:
    """Table IV: the VTune-style Memory Access summary."""
    setup = quick_setup("xeon-cascadelake-1lm")
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(23)
    cfg = Graph500Config(scale=23, nroots=1, threads=16)
    rows = {}
    for label, node in (("Graph500 / DRAM", 0), ("Graph500 / NVDIMM", 2)):
        run = setup.engine.price_run(
            model.phases(cfg), driver.placement_all_on(node, model),
            pus=_XEON_PUS,
        )
        rows[label] = analyze_run(setup.machine, run)
    for label, node in (("STREAM / DRAM", 0), ("STREAM / NVDIMM", 2)):
        run = setup.engine.price_run(
            [_stream_phase(int(22.4 * GiB), 20)],
            Placement.single(a=node, b=node, c=node),
            pus=_XEON_PUS,
        )
        rows[label] = analyze_run(setup.machine, run)
    return render_summary_table(rows)


def fig7() -> str:
    """Fig. 7: per-buffer memory-object analysis."""
    setup = quick_setup("xeon-cascadelake-1lm")
    driver = Graph500Driver(setup.engine)
    model = TrafficModel.analytic(23)
    cfg = Graph500Config(scale=23, nroots=1, threads=16)
    run = setup.engine.price_run(
        model.phases(cfg), driver.placement_all_on(2, model), pus=_XEON_PUS
    )
    objs = object_analysis(run, alloc_sites={"parent": "xmalloc bfs.c:31"})
    return render_object_report(objs)


def search(
    *,
    platform: str = "xeon-cascadelake-1lm",
    scale: int = 20,
    nodes: tuple[int, ...] = (0, 2),
    top_k: int | None = 8,
    budget: int | None = None,
    per_level: bool = False,
    hints: str = "none",
) -> str:
    """§V-A oracle: the branch-and-bound placement search on Graph500.

    ``hints="static"`` additionally scores the zero-profiling path: the
    placement the AST pass's hints produce through ``mem_alloc``, priced
    on the same phases and compared against the search optimum.
    """
    setup = quick_setup(platform)
    model = TrafficModel.analytic(scale)
    cfg = Graph500Config(scale=scale, nroots=1, threads=16)
    phases = model.phases(cfg, per_level=per_level)
    sizes = model.buffer_sizes()
    result = search_placements(
        setup.engine,
        phases,
        sizes,
        nodes,
        default_node=nodes[0],
        pus=_XEON_PUS,
        top_k=top_k,
        max_candidates=budget,
    )
    buffers = [b for b, _ in result.candidates[0].assignment]
    header = " | ".join(f"{b:>12}" for b in buffers) + f" | {'seconds':>10}"
    lines = [
        f"Graph500 scale {scale} placement search over nodes {list(nodes)}",
        header,
    ]
    for c in result.candidates:
        row = " | ".join(f"{node:>12}" for _, node in c.assignment)
        lines.append(f"{row} | {c.seconds * 1e3:>8.2f}ms")
    lines.append("")
    lines.append(result.stats.report())
    if hints == "static":
        from .analysis import app_kernels, hint_placement, hints_for

        (spec,) = [k for k in app_kernels() if k.name == "graph500_bfs"]
        static_hints = hints_for(spec.analyze(), param_buffers=spec.param_buffers)
        placement = hint_placement(setup.allocator, static_hints, sizes, 0)
        seconds = setup.engine.price_run(phases, placement, pus=_XEON_PUS).seconds
        best = result.candidates[0].seconds
        lines.append("")
        lines.append("static hints (source -> mem_alloc, no profiling):")
        for buffer in sorted(static_hints):
            where = ", ".join(
                f"node{n}:{f:.0%}" for n, f in sorted(placement.of(buffer).items())
            )
            lines.append(f"  {buffer:>12}: {static_hints[buffer]:<15} -> {where}")
        lines.append(
            f"  static-hint time {seconds * 1e3:.2f}ms vs optimum "
            f"{best * 1e3:.2f}ms ({seconds / best:.3f}x)"
        )
    return "\n".join(lines)


EXPERIMENTS: dict[str, Callable[[], str]] = {
    "figs1-3": figs_topology,
    "fig5": fig5,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig7": fig7,
    "search": search,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifacts to regenerate",
    )
    group = parser.add_argument_group(
        "search knobs", "only apply to the 'search' artifact"
    )
    group.add_argument(
        "--search-nodes",
        default="0,2",
        help="comma-separated candidate NUMA nodes (default: 0,2)",
    )
    group.add_argument(
        "--search-top-k",
        type=int,
        default=8,
        help="keep only the k best placements (0 = keep all)",
    )
    group.add_argument(
        "--search-budget",
        type=int,
        default=None,
        help="max placements to price before truncating (default: unlimited)",
    )
    group.add_argument(
        "--search-scale",
        type=int,
        default=20,
        help="Graph500 scale of the searched workload",
    )
    group.add_argument(
        "--search-per-level",
        action="store_true",
        help="search over per-BFS-level phases instead of the folded phase",
    )
    group.add_argument(
        "--search-hints",
        choices=("none", "static"),
        default="none",
        help="also score the static-analysis hint placement against the "
        "search optimum",
    )
    add_obs_arguments(parser)
    args = parser.parse_args(argv)
    start_obs(args)
    names = sorted(EXPERIMENTS) if "all" in args.artifacts else args.artifacts
    for name in names:
        print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        if name == "search":
            nodes = tuple(int(n) for n in args.search_nodes.split(","))
            print(
                search(
                    scale=args.search_scale,
                    nodes=nodes,
                    top_k=args.search_top_k or None,
                    budget=args.search_budget,
                    per_level=args.search_per_level,
                    hints=args.search_hints,
                )
            )
        else:
            print(EXPERIMENTS[name]())
    finish_obs(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
