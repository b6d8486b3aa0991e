"""The placement search's walk against its frozen bookkeeping oracle.

``tests/sensitivity/walk_oracle.py`` keeps the walk as it was before the
running-max bound and the combo-keyed leaf memo.  A seeded differential
drives both over the repo benchmark's six search problem classes (at
reduced buffer counts) and the Graph500 per-level phases, across
``top_k``, pruning, capacity shapes, pricing budgets and critical
subsets.  Candidates (seconds bit for bit), every ``SearchStats`` field,
and the bound at every prefix the walk visits must match.
"""

import random

import pytest

import repro
from repro.apps.graph500 import Graph500Config, TrafficModel
from repro.errors import ReproError
from repro.sensitivity import search_placements
from repro.sensitivity.search import _BoundModel
from repro.sim import BufferAccess, KernelPhase, PatternKind, SimEngine
from repro.units import MiB
from tests.sensitivity.walk_oracle import OracleBoundModel, oracle_search

#: The repo benchmark's search classes, buffer counts halved.
CLASSES = (
    ("xeon-cascadelake-1lm", (0, 2), 6),
    ("xeon-cascadelake-1lm", (0, 2), 7),
    ("xeon-cascadelake-1lm", (0, 1, 2, 3), 3),
    ("xeon-cascadelake-1lm", (0, 1, 2, 3), 4),
    ("knl-snc4-flat", (0, 4), 5),
    ("knl-snc4-flat", (0, 4), 6),
    ("xeon-cascadelake-1lm", (0, 1, 2, 3), "graph500"),
)
TOP_KS = (1, 8, 64, None)
BUDGETS = (5, 40, None)
CASES = 160


@pytest.fixture(scope="module")
def setups():
    return {
        p: repro.quick_setup(p)
        for p in ("xeon-cascadelake-1lm", "knl-snc4-flat")
    }


def _random_phases(rng: random.Random, n_buffers: int):
    """The benchmark's search problem generator, with no more phases
    than buffers (so none is empty at these reduced counts)."""
    names = [f"b{i:02d}" for i in range(n_buffers)]
    sizes = {n: rng.choice((8, 32, 128, 512)) * MiB for n in names}
    n_phases = min(rng.randint(2, 4), n_buffers)
    members: list[set[str]] = [set() for _ in range(n_phases)]
    for i, name in enumerate(names):
        members[i % n_phases].add(name)
    for phase in members:
        phase.update(n for n in names if rng.random() < 0.3)
    phases = []
    for p, phase in enumerate(members):
        accesses = []
        for name in sorted(phase):
            ws = sizes[name]
            accesses.append(
                BufferAccess(
                    buffer=name,
                    pattern=rng.choice(list(PatternKind)),
                    bytes_read=rng.uniform(0.5, 8.0) * ws,
                    bytes_written=(
                        rng.uniform(0.1, 2.0) * ws if rng.random() < 0.5 else 0.0
                    ),
                    working_set=ws,
                )
            )
        phases.append(
            KernelPhase(
                name=f"p{p}",
                threads=rng.choice((8, 16, 32)),
                accesses=tuple(accesses),
            )
        )
    return tuple(phases), sizes


def _graph500():
    model = TrafficModel.analytic(20)
    cfg = Graph500Config(scale=20, nroots=1, threads=16)
    return model.phases(cfg, per_level=True), model.buffer_sizes()


def _capacity(shape: int, nodes, sizes, critical):
    """test_batch_equals_lazy_randomized's five shapes on ``nodes``: none,
    a 0-capacity node, a node missing from the dict (unlimited), a tight
    limit, and room for half the bytes."""
    first, last = nodes[0], nodes[-1]
    total = sum(sizes[b] for b in critical)
    return (
        None,
        {last: 0},
        {first: 0, last: total},
        {last: max(sizes[b] for b in critical)},
        {first: total // 2, last: total},
    )[shape]


def _case(i: int):
    rng = random.Random(f"walk-oracle/{i}")
    platform, nodes, n_buffers = CLASSES[i % len(CLASSES)]
    if n_buffers == "graph500":
        phases, sizes = _graph500()
    else:
        phases, sizes = _random_phases(rng, n_buffers)
    buffers = sorted({a.buffer for ph in phases for a in ph.accesses})
    critical = None
    if rng.random() < 0.3:
        critical = tuple(rng.sample(buffers, len(buffers) - rng.randint(1, 2)))
    kw = dict(
        default_node=nodes[0],
        critical_buffers=critical,
        node_capacity=_capacity(
            i % 5, nodes, sizes, critical if critical else buffers
        ),
        top_k=rng.choice(TOP_KS),
        max_candidates=rng.choice(BUDGETS),
        prune=rng.random() < 0.75,
    )
    return platform, nodes, phases, sizes, kw


def _record_bounds(monkeypatch, cls) -> list:
    """Patch ``cls`` so each ``bound`` call logs ``(prefix, value)``."""
    calls: list[tuple[tuple[int, ...], float]] = []
    path: list[int] = []
    apply, bound = cls.apply, cls.bound

    def recording_apply(self, index, node):
        del path[index:]
        path.append(node)
        return apply(self, index, node)

    def recording_bound(self, depth):
        value = bound(self, depth)
        calls.append((tuple(path[:depth]), value))
        return value

    monkeypatch.setattr(cls, "apply", recording_apply)
    monkeypatch.setattr(cls, "bound", recording_bound)
    return calls


def _outcome(search, engine, phases, sizes, nodes, kw):
    """Candidates with seconds as hex, and every stats field; or the error."""
    try:
        candidates, stats = search(engine, phases, sizes, nodes, **kw)
    except ReproError as exc:
        return ("error", str(exc))
    return (
        [(c.assignment, c.seconds.hex()) for c in candidates],
        stats,
    )


def _production(engine, phases, sizes, nodes, **kw):
    result = search_placements(engine, phases, sizes, nodes, **kw)
    return result.candidates, result.stats


def test_walk_matches_frozen_oracle(setups, monkeypatch):
    production_bounds = _record_bounds(monkeypatch, _BoundModel)
    oracle_bounds = _record_bounds(monkeypatch, OracleBoundModel)
    bound_pruned = capacity_pruned = truncated = bounds_checked = 0
    for i in range(CASES):
        platform, nodes, phases, sizes, kw = _case(i)
        setup = setups[platform]
        production_bounds.clear()
        oracle_bounds.clear()
        got = _outcome(
            _production, SimEngine(setup.machine, setup.topology),
            phases, sizes, nodes, kw,
        )
        want = _outcome(
            oracle_search, SimEngine(setup.machine, setup.topology),
            phases, sizes, nodes, kw,
        )
        assert got == want, f"case {i}: {platform} {nodes} {kw}"
        assert production_bounds == oracle_bounds, f"case {i}: bounds differ"
        bounds_checked += len(oracle_bounds)
        if got[0] != "error":
            stats = got[1]
            bound_pruned += stats.bound_pruned > 0
            capacity_pruned += stats.capacity_pruned > 0
            truncated += stats.truncated
    # Coverage guard: the sweep must reach every walk outcome.
    assert bound_pruned and capacity_pruned and truncated and bounds_checked
