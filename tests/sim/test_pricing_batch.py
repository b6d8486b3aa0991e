"""A batch of placements priced on one prepared phase, against the oracle.

The placement search and the auto-tier daemon's priced step price one
phase under many placements: they prepare it once and call
:meth:`SimEngine.price_prepared` per placement, and the search's
branch-and-bound prices single accesses alone
(``SimEngine._price_access_alone``).  This suite drives 100 seeded random
machine/phase/placement combos through that route and compares with
``==`` against the frozen bodies in ``tests/sim/scalar_oracle.py``,
covers the §VI presets' curve corners, and checks that a placement's
price depends neither on the order a batch is priced in nor on what the
engine priced before.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw.platforms import (
    knl_snc4_cache,
    knl_snc4_flat,
    xeon_cascadelake_1lm,
    xeon_cascadelake_2lm,
)
from repro.sim import (
    BufferAccess,
    KernelPhase,
    PatternKind,
    Placement,
    SimEngine,
)
from repro.topology import build_topology
from repro.units import GB, MiB
from tests.obs.test_differential import random_machine
from tests.sim import scalar_oracle

N_SEEDS = 100

PATTERNS = (
    PatternKind.STREAM,
    PatternKind.STRIDED,
    PatternKind.RANDOM,
    PatternKind.POINTER_CHASE,
)


def _random_phase(rng: random.Random, buffers, max_threads) -> KernelPhase:
    return KernelPhase(
        name="fuzz",
        threads=min(rng.choice((1, 2, 4, 16)), max_threads),
        accesses=tuple(
            BufferAccess(
                buffer=b,
                pattern=rng.choice(PATTERNS),
                bytes_read=rng.randint(1, 64) * MiB,
                bytes_written=rng.choice((0, rng.randint(1, 32) * MiB)),
                working_set=rng.randint(1, 128) * MiB,
            )
            for b in buffers
        ),
    )


def _random_placements(rng, buffers, axis, n):
    """Singles, two-node splits and degenerate zero-fraction entries."""
    placements = []
    for _ in range(n):
        fractions = {}
        for b in buffers:
            kind = rng.random()
            if kind < 0.5 or len(axis) == 1:
                fractions[b] = {rng.choice(axis): 1.0}
            elif kind < 0.85:
                k1, k2 = sorted(rng.sample(range(len(axis)), 2))
                f = rng.uniform(0.05, 0.95)
                fractions[b] = {axis[k1]: f, axis[k2]: 1.0 - f}
            else:
                k1, k2 = sorted(rng.sample(range(len(axis)), 2))
                fractions[b] = {axis[k1]: 1.0, axis[k2]: 0.0}
        placements.append(Placement(fractions))
    return placements


def _scenario(seed: int):
    rng = random.Random(seed)
    machine = random_machine(rng)
    topo = build_topology(machine)
    engine = SimEngine(machine, topo)
    axis = tuple(sorted(engine._nodes))
    buffers = [f"b{i}" for i in range(rng.randint(1, 4))]
    phase = _random_phase(rng, buffers, len(tuple(topo.complete_cpuset)))
    placements = _random_placements(rng, buffers, axis, rng.randint(1, 8))
    return engine, axis, phase, placements


class TestDifferential:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_batch_equals_scalar(self, seed):
        """Every placement priced on one prepared phase equals the frozen
        scalar body and a fresh ``price_phase``, every field."""
        engine, _, phase, placements = _scenario(seed)
        prepared = engine.prepare_phase(phase)
        for placement in placements:
            got = engine.price_prepared(prepared, placement)
            assert got == scalar_oracle.price_prepared(engine, prepared, placement)
            assert got == engine.price_phase(phase, placement)

    @pytest.mark.parametrize("seed", range(0, N_SEEDS, 7))
    def test_accesses_alone_equals_scalar(self, seed):
        engine, axis, phase, _ = _scenario(seed)
        prepared = engine.prepare_phase(phase)
        for index in range(len(prepared.filtered)):
            for node in axis:
                assert engine._price_access_alone(
                    prepared, index, node
                ) == scalar_oracle.price_access_alone(engine, prepared, index, node)


PRESET_BUILDERS = (
    xeon_cascadelake_1lm,   # DRAM + NVDIMM (write-buffer collapse)
    xeon_cascadelake_2lm,   # memory-side cached DRAM
    knl_snc4_flat,          # MCDRAM flat
    knl_snc4_cache,         # MCDRAM as memory-side cache
)


class TestPresetEdges:
    """The §VI platforms cover the nonlinear curve corners: NVDIMM write
    buffers, latency knees, memory-side caches."""

    @pytest.mark.parametrize("build", PRESET_BUILDERS)
    def test_curve_corners_bit_identical(self, build):
        machine = build()
        engine = SimEngine(machine)
        axis = tuple(sorted(engine._nodes))
        rng = random.Random(hash(machine.name) & 0xFFFF)
        # Working sets straddling knees/buffers, incl. writes and chases.
        phase = KernelPhase(
            name="corners",
            threads=8,
            accesses=(
                BufferAccess(
                    buffer="small", pattern=PatternKind.STREAM,
                    bytes_read=64 * MiB, bytes_written=64 * MiB,
                    working_set=64 * MiB,
                ),
                BufferAccess(
                    buffer="big", pattern=PatternKind.STREAM,
                    bytes_read=8 * GB, bytes_written=8 * GB,
                    working_set=8 * GB,
                ),
                BufferAccess(
                    buffer="chase", pattern=PatternKind.POINTER_CHASE,
                    bytes_read=512 * MiB, working_set=4 * GB,
                ),
            ),
        )
        prepared = engine.prepare_phase(phase)
        placements = _random_placements(
            rng, ("small", "big", "chase"), axis, 20
        )
        for placement in placements:
            assert engine.price_prepared(
                prepared, placement
            ) == scalar_oracle.price_prepared(engine, prepared, placement)
        for index in range(len(prepared.filtered)):
            for node in axis:
                assert engine._price_access_alone(
                    prepared, index, node
                ) == scalar_oracle.price_access_alone(engine, prepared, index, node)

    def test_zero_traffic_access(self):
        engine = SimEngine(xeon_cascadelake_1lm())
        axis = tuple(sorted(engine._nodes))
        phase = KernelPhase(
            name="idle",
            threads=2,
            accesses=(
                BufferAccess(
                    buffer="warm", pattern=PatternKind.STREAM,
                    bytes_read=2 * MiB, working_set=2 * MiB,
                ),
            ),
            cpu_ops=10**9,
        )
        prepared = engine.prepare_phase(phase)
        placement = Placement.single(warm=axis[0])
        got = engine.price_prepared(prepared, placement)
        assert got == scalar_oracle.price_prepared(engine, prepared, placement)
        assert got.bound == "cpu"


def _hyp_scenario(seed: int):
    engine, axis, phase, _ = _scenario(seed)
    rng = random.Random(seed ^ 0x5EED)
    buffers = tuple(a.buffer for a in phase.accesses)
    placements = _random_placements(rng, buffers, axis, 12)
    return engine, phase, placements


class TestInvariants:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        data=st.data(),
    )
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_row_order_independent(self, seed, data):
        """Pricing a batch in another order permutes the results: the
        engine's warm memo never changes a price."""
        engine, phase, placements = _hyp_scenario(seed)
        prepared = engine.prepare_phase(phase)
        perm = data.draw(st.permutations(range(len(placements))))
        base = [engine.price_prepared(prepared, p) for p in placements]
        shuffled = [engine.price_prepared(prepared, placements[i]) for i in perm]
        for new_row, old_row in enumerate(perm):
            assert shuffled[new_row] == base[old_row]

    @given(
        seed=st.integers(min_value=0, max_value=500),
        data=st.data(),
    )
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_slice_equals_individual(self, seed, data):
        """Any sub-batch, priced on a cold engine, equals the full
        batch's rows."""
        engine, phase, placements = _hyp_scenario(seed)
        rows = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(placements) - 1),
                min_size=1,
                max_size=len(placements),
            )
        )
        prepared = engine.prepare_phase(phase)
        base = [engine.price_prepared(prepared, p) for p in placements]
        cold = SimEngine(engine.machine, engine.topology)
        cold_prepared = cold.prepare_phase(phase)
        for i in rows:
            assert cold.price_prepared(cold_prepared, placements[i]) == base[i]
