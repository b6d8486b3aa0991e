"""The scalar pricer against its frozen body, field by field.

:meth:`SimEngine.price_prepared` must reproduce the frozen body in
``tests/sim/scalar_oracle.py`` exactly: every float bit for bit, and
every ``node_traffic``/``buffer_timings`` entry (``nodes`` dicts
included) in the same key order, over random phases whose buffers sit on
one node or split over two or three nodes in arbitrary order.  The four
§VI presets cover NVDIMM write buffers, latency knees and both
memory-side caches (Xeon 2LM, KNL Cache mode).
"""

import dataclasses
import random

import pytest

from repro.hw.platforms import (
    knl_snc4_cache,
    knl_snc4_flat,
    xeon_cascadelake_1lm,
    xeon_cascadelake_2lm,
)
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement, SimEngine
from repro.topology import build_topology
from repro.units import MiB
from tests.sim import scalar_oracle

N_SEEDS = 100


@pytest.fixture(
    scope="module",
    params=(
        xeon_cascadelake_1lm,
        knl_snc4_flat,
        xeon_cascadelake_2lm,
        knl_snc4_cache,
    ),
)
def engine(request):
    machine = request.param()
    return SimEngine(machine, build_topology(machine))


def _exact(value):
    """``value`` with floats as hex and dicts as ordered item lists."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return [(_exact(k), _exact(v)) for k, v in value.items()]
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            [(f.name, _exact(getattr(value, f.name)))
             for f in dataclasses.fields(value)],
        )
    return value


def _random_phase(rng: random.Random, n_pus: int):
    threads = min(rng.choice((1, 2, 4, 8, 16, 32, 64)), n_pus)
    accesses = []
    for b in range(rng.randint(1, 6)):
        working_set = int(MiB * 2 ** rng.uniform(0, 15))
        accesses.append(
            BufferAccess(
                buffer=f"b{b}",
                pattern=rng.choice(list(PatternKind)),
                bytes_read=rng.uniform(0.1, 8.0) * working_set,
                bytes_written=rng.choice((0.0, rng.uniform(0.1, 2.0) * working_set)),
                working_set=working_set,
                granularity=rng.choice((8, 64)),
                hot_fraction=rng.choice((0.0, 0.3, 0.7)),
            )
        )
    phase = KernelPhase(
        name="fuzz",
        threads=threads,
        accesses=tuple(accesses),
        cpu_ops=rng.choice((0.0, rng.uniform(1e8, 1e10))),
    )
    start = rng.randint(0, n_pus - threads)
    return phase, tuple(range(start, start + threads))


def _random_split(rng: random.Random, axis) -> dict[int, float]:
    """One node, or two or three in random (not axis) order."""
    ways = rng.choice((1, 2, 3)[: len(axis)])
    nodes = rng.sample(axis, ways)
    if ways == 1:
        return {nodes[0]: 1.0}
    if ways == 2:
        share = rng.choice((0.0, rng.uniform(0.05, 0.95)))
        return {nodes[0]: 1.0 - share, nodes[1]: share}
    first = rng.uniform(0.05, 0.6)
    second = rng.uniform(0.05, 0.9 - first)
    return {nodes[0]: first, nodes[1]: second, nodes[2]: 1.0 - first - second}


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_price_prepared_equals_frozen_body(engine, seed):
    rng = random.Random(seed)
    axis = sorted(engine._nodes)
    n_pus = len(tuple(engine.topology.complete_cpuset))
    phase, pus = _random_phase(rng, n_pus)
    prepared = engine.prepare_phase(phase, pus=pus)
    for _ in range(6):
        placement = Placement(
            {a.buffer: _random_split(rng, axis) for a in phase.accesses}
        )
        got = engine.price_prepared(prepared, placement)
        want = scalar_oracle.price_prepared(engine, prepared, placement)
        assert _exact(got) == _exact(want)
