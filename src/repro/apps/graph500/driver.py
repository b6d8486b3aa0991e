"""Graph500 driver: real traversals, analytic traffic, TEPS via the simulator.

Two modes share one :class:`TrafficModel` abstraction:

* **real** — generate the graph, run (and validate) BFS from ``nroots``
  random keys, and build the traffic model from *measured* counts;
* **analytic** — derive the counts from Kronecker statistics (validated
  against real runs in the tests), enabling the paper's nominal scales
  (23-27, up to 34 GB) without materializing the graphs.

Performance = the simulator's price for the traversal phases under a given
buffer placement; TEPS aggregates harmonically over roots, as the
benchmark mandates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import SimulationError, ValidationError
from ...sim.access import BufferAccess, KernelPhase, PatternKind, Placement
from ...sim.engine import SimEngine
from ...units import harmonic_mean
from .bfs import BFSResult, bfs, validate_bfs
from .csr import CSRGraph, build_csr
from .generator import EDGEFACTOR, kronecker_edges

__all__ = ["Graph500Config", "TrafficModel", "TEPSResult", "Graph500Driver", "BUFFERS"]

#: The traversal's buffers, in the roles the profiler/Fig. 7 discuss.
BUFFERS = ("csr_offsets", "csr_targets", "parent", "frontier")

#: Kronecker constants measured on real runs (tests pin them):
#: fraction of vertices reachable from a high-degree root, and the surviving
#: fraction of directed edges after self-loop/duplicate removal.
REACHED_FRACTION = 0.62
DEDUP_FACTOR = 0.74


@dataclass(frozen=True)
class Graph500Config:
    """One experiment configuration."""

    scale: int
    edgefactor: int = EDGEFACTOR
    nroots: int = 8
    threads: int = 16
    seed: int = 1
    validate: bool = True
    #: CPU work per scanned edge / visited vertex (calibration constants;
    #: see EXPERIMENTS.md).
    cpu_ops_per_edge: float = 30.0
    cpu_ops_per_vertex: float = 30.0

    def __post_init__(self) -> None:
        if self.scale < 1 or self.nroots < 1 or self.threads < 1:
            raise ValidationError("scale, nroots and threads must be >= 1")
        if self.scale > 62:
            # The generator's vertex ids are int64.
            raise ValidationError(f"scale must be <= 62, got {self.scale}")


@dataclass(frozen=True)
class TrafficModel:
    """Per-BFS memory-traffic statistics."""

    num_vertices: int
    directed_edges: int
    reached_vertices: int
    edges_scanned: int
    num_levels: int
    #: per-level frontier sizes; measured on real runs, synthesized for
    #: analytic models (drives the per-level timeline of Fig. 7).
    frontier_sizes: tuple[int, ...] = ()

    @classmethod
    def from_bfs(cls, graph: CSRGraph, result: BFSResult) -> "TrafficModel":
        return cls(
            num_vertices=graph.num_vertices,
            directed_edges=graph.num_directed_edges,
            reached_vertices=result.vertices_visited,
            edges_scanned=result.edges_scanned,
            num_levels=result.num_levels,
            frontier_sizes=tuple(result.frontier_sizes),
        )

    @classmethod
    def analytic(
        cls,
        scale: int,
        *,
        edgefactor: int = EDGEFACTOR,
        reached_fraction: float = REACHED_FRACTION,
        dedup_factor: float = DEDUP_FACTOR,
    ) -> "TrafficModel":
        """Kronecker-statistics traffic model for nominal scales."""
        n = 1 << scale
        directed = int(2 * edgefactor * n * dedup_factor)
        reached = int(n * reached_fraction)
        levels = max(6, scale // 3)
        # Kronecker BFS frontier profile: explosive growth, a dominant
        # middle level, a fast tail (matches measured small-scale runs).
        shares = [1.5 ** i for i in range(levels // 2)]
        shares += [shares[-1] * 3]
        shares += [shares[-1] / (4 ** (i + 1)) for i in range(levels - len(shares))]
        total = sum(shares)
        frontiers = tuple(max(1, int(reached * s / total)) for s in shares)
        return cls(
            num_vertices=n,
            directed_edges=directed,
            reached_vertices=reached,
            edges_scanned=directed,   # BFS scans the whole component
            num_levels=levels,
            frontier_sizes=frontiers,
        )

    # ------------------------------------------------------------------
    def buffer_sizes(self) -> dict[str, int]:
        n, m = self.num_vertices, self.directed_edges
        return {
            "csr_offsets": (n + 1) * 8,
            "csr_targets": m * 8,
            "parent": n * 8,
            "frontier": 2 * n * 8,
        }

    def total_bytes(self) -> int:
        return sum(self.buffer_sizes().values())

    def phases(
        self, config: Graph500Config, *, per_level: bool = False
    ) -> tuple[KernelPhase, ...]:
        """The traversal of one root as simulator phases.

        By default one level-synchronous phase covers the whole BFS
        (level phases have identical per-byte behaviour, so folding them
        loses nothing the placement experiments care about).
        ``per_level=True`` emits one phase per BFS level, scaled by the
        frontier profile — the timeline view Fig. 7 plots bandwidth over.
        """
        if per_level:
            return self._phases_per_level(config)
        sizes = self.buffer_sizes()
        scanned = self.edges_scanned
        reached = self.reached_vertices
        accesses = (
            # Two offset lookups per frontier vertex: random 8-byte reads.
            BufferAccess(
                buffer="csr_offsets",
                pattern=PatternKind.RANDOM,
                bytes_read=2 * reached * 8,
                working_set=sizes["csr_offsets"],
                granularity=8,
                hot_fraction=0.6,
            ),
            # Adjacency gathers: random per vertex, sequential within a
            # vertex — line-granular random reads.
            BufferAccess(
                buffer="csr_targets",
                pattern=PatternKind.RANDOM,
                bytes_read=scanned * 8,
                working_set=sizes["csr_targets"],
                granularity=64,
                hot_fraction=0.3,
            ),
            # The visited/parent check: one dependent random 8-byte read
            # per scanned edge and one write per reached vertex.
            # Kronecker graphs are power-law: most visited-checks hit the
            # cached hub entries (hot_fraction measured on real traversals).
            BufferAccess(
                buffer="parent",
                pattern=PatternKind.RANDOM,
                bytes_read=scanned * 8,
                bytes_written=reached * 8,
                working_set=sizes["parent"],
                granularity=8,
                hot_fraction=0.8,
            ),
            # Frontier queues are streamed.
            BufferAccess(
                buffer="frontier",
                pattern=PatternKind.STREAM,
                bytes_read=reached * 8,
                bytes_written=reached * 8,
                working_set=sizes["frontier"],
                granularity=8,
            ),
        )
        cpu_ops = (
            config.cpu_ops_per_edge * scanned
            + config.cpu_ops_per_vertex * reached
        )
        return (
            KernelPhase(
                name=f"bfs_scale{int(self.num_vertices).bit_length() - 1}",
                accesses=accesses,
                threads=config.threads,
                cpu_ops=cpu_ops,
            ),
        )

    def _phases_per_level(self, config: Graph500Config) -> tuple[KernelPhase, ...]:
        if not self.frontier_sizes:
            raise SimulationError(
                "per-level phases need frontier sizes (real run or analytic)"
            )
        (folded,) = self.phases(config)
        total_frontier = sum(self.frontier_sizes) or 1
        out = []
        for level, frontier in enumerate(self.frontier_sizes):
            share = frontier / total_frontier
            accesses = tuple(
                BufferAccess(
                    buffer=a.buffer,
                    pattern=a.pattern,
                    bytes_read=max(a.bytes_read * share, 1.0)
                    if a.bytes_read
                    else 0.0,
                    bytes_written=max(a.bytes_written * share, 1.0)
                    if a.bytes_written
                    else 0.0,
                    working_set=a.working_set,
                    granularity=a.granularity,
                    hot_fraction=a.hot_fraction,
                )
                for a in folded.accesses
            )
            out.append(
                KernelPhase(
                    name=f"bfs_level{level}",
                    accesses=accesses,
                    threads=config.threads,
                    cpu_ops=folded.cpu_ops * share,
                )
            )
        return tuple(out)


@dataclass
class TEPSResult:
    """TEPS over all roots, plus per-root detail."""

    config: Graph500Config
    teps_per_root: list[float] = field(default_factory=list)
    seconds_per_root: list[float] = field(default_factory=list)
    traversed_edges_per_root: list[int] = field(default_factory=list)

    @property
    def harmonic_teps(self) -> float:
        return harmonic_mean(self.teps_per_root)

    @property
    def mean_seconds(self) -> float:
        return float(np.mean(self.seconds_per_root))

    def describe(self) -> str:
        return (
            f"Graph500 scale {self.config.scale}: "
            f"harmonic TEPS {self.harmonic_teps:.3e} "
            f"({len(self.teps_per_root)} roots, "
            f"mean {self.mean_seconds * 1e3:.1f} ms/root)"
        )


class Graph500Driver:
    """Runs Graph500 experiments against one machine."""

    def __init__(self, engine: SimEngine) -> None:
        self.engine = engine

    # ------------------------------------------------------------------
    def placement_all_on(self, node: int, model: TrafficModel) -> Placement:
        """Whole-process binding: every buffer on one node (Table II)."""
        return Placement({name: {node: 1.0} for name in model.buffer_sizes()})

    # ------------------------------------------------------------------
    def run_real(
        self,
        config: Graph500Config,
        placement: Placement,
        *,
        pus: tuple[int, ...],
    ) -> TEPSResult:
        """Generate, traverse for real, validate, and price each root."""
        edges = kronecker_edges(
            config.scale, edgefactor=config.edgefactor, seed=config.seed
        )
        graph = build_csr(edges, num_vertices=1 << config.scale)
        rng = np.random.default_rng(config.seed + 1)
        degrees = graph.degree()
        candidates = np.flatnonzero(degrees > 0)
        if candidates.size == 0:
            raise SimulationError("graph has no connected vertices")
        roots = rng.choice(candidates, size=config.nroots, replace=True)

        result = TEPSResult(config=config)
        for root in roots:
            bfs_result = bfs(graph, int(root))
            if config.validate:
                validate_bfs(graph, bfs_result)
            model = TrafficModel.from_bfs(graph, bfs_result)
            self._price_root(config, model, placement, pus, result)
        return result

    def run_model(
        self,
        config: Graph500Config,
        placement: Placement,
        *,
        pus: tuple[int, ...],
        model: TrafficModel | None = None,
    ) -> TEPSResult:
        """Price the analytic traffic model (paper-scale runs)."""
        model = model or TrafficModel.analytic(
            config.scale, edgefactor=config.edgefactor
        )
        result = TEPSResult(config=config)
        for _ in range(config.nroots):
            self._price_root(config, model, placement, pus, result)
        return result

    # ------------------------------------------------------------------
    def _price_root(
        self,
        config: Graph500Config,
        model: TrafficModel,
        placement: Placement,
        pus: tuple[int, ...],
        result: TEPSResult,
    ) -> None:
        timing = self.engine.price_run(model.phases(config), placement, pus=pus)
        traversed = model.edges_scanned // 2
        if traversed <= 0:
            raise SimulationError("BFS traversed no edges; pick a better root")
        result.seconds_per_root.append(timing.seconds)
        result.traversed_edges_per_root.append(traversed)
        result.teps_per_root.append(traversed / timing.seconds)
