"""Batch pricing differential suite: compiled tensors vs the scalar oracle.

The vectorized pricer (:meth:`SimEngine.price_placements_batch`) promises
**bit identity** with the scalar path (docs/MODEL.md §7c): same floats,
not merely close ones.  This suite drives 100 seeded random
machine/phase/placement combos through both paths and compares with
``==``, plus hypothesis invariants (row-order independence, slicing =
individual rows) and the generation-keyed staleness contract.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import native_discovery
from repro.errors import SimulationError
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
    """Axis-order-compatible placements: singles, ordered splits,
    degenerate zero-fraction entries."""
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


def _axis_ordered(compiled, placement) -> bool:
    """Batch rows equal the scalar path bit for bit when each buffer's
    split iterates in node-axis order (docs/MODEL.md §7c)."""
    for name in compiled.buffers:
        positions = [compiled.node_pos[node] for node in placement.of(name)]
        if positions != sorted(positions):
            return False
    return True


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
        engine, axis, phase, placements = _scenario(seed)
        compiled = engine.compile_phase(phase, axis)
        for p in placements:
            assert _axis_ordered(compiled, p)
        batch = engine.price_placements_batch(compiled, placements)
        for i, placement in enumerate(placements):
            scalar = engine.price_phase(phase, placement)
            assert batch.seconds[i] == scalar.seconds
            assert batch.latency_seconds[i] == scalar.latency_seconds
            assert batch.bandwidth_seconds[i] == scalar.bandwidth_seconds
            for k, node in enumerate(batch.nodes):
                traffic = scalar.node_traffic.get(node)
                expected = traffic.bw_seconds if traffic else 0.0
                assert batch.node_bw_seconds[i, k] == expected

    @pytest.mark.parametrize("seed", range(0, N_SEEDS, 7))
    def test_accesses_alone_equals_scalar(self, seed):
        engine, axis, phase, _ = _scenario(seed)
        prepared = engine.prepare_phase(phase)
        compiled = engine.compile_prepared(prepared, axis)
        lat, bw = engine.price_accesses_alone_batch(compiled)
        for index in range(len(prepared.filtered)):
            for k, node in enumerate(axis):
                s_lat, s_bw = scalar_oracle.price_access_alone(
                    engine, prepared, index, node
                )
                assert lat[index, k] == s_lat
                assert bw[index, k] == s_bw


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
        compiled = engine.compile_phase(phase, axis)
        placements = _random_placements(
            rng, ("small", "big", "chase"), axis, 20
        )
        batch = engine.price_placements_batch(compiled, placements)
        for i, placement in enumerate(placements):
            assert batch.seconds[i] == engine.price_phase(phase, placement).seconds

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
        compiled = engine.compile_phase(phase, axis)
        placement = Placement.single(warm=axis[0])
        batch = engine.price_placements_batch(compiled, [placement])
        assert batch.seconds[0] == engine.price_phase(phase, placement).seconds

    def test_empty_batch(self):
        engine = SimEngine(xeon_cascadelake_1lm())
        compiled = engine.compile_phase(
            KernelPhase(
                name="p", threads=1,
                accesses=(
                    BufferAccess(
                        buffer="a", pattern=PatternKind.STREAM,
                        bytes_read=MiB, working_set=MiB,
                    ),
                ),
            )
        )
        batch = engine.price_placements_batch(compiled, [])
        assert batch.rows == 0

    def test_bad_tensor_shape_rejected(self):
        engine = SimEngine(xeon_cascadelake_1lm())
        compiled = engine.compile_phase(
            KernelPhase(
                name="p", threads=1,
                accesses=(
                    BufferAccess(
                        buffer="a", pattern=PatternKind.STREAM,
                        bytes_read=MiB, working_set=MiB,
                    ),
                ),
            )
        )
        bad = np.zeros((2, compiled.n_buffers + 1, compiled.n_nodes))
        with pytest.raises(SimulationError):
            engine.price_placements_batch(compiled, bad)

    def test_off_axis_placement_rejected(self):
        engine = SimEngine(xeon_cascadelake_1lm())
        axis = tuple(sorted(engine._nodes))
        phase = KernelPhase(
            name="p", threads=1,
            accesses=(
                BufferAccess(
                    buffer="a", pattern=PatternKind.STREAM,
                    bytes_read=MiB, working_set=MiB,
                ),
            ),
        )
        compiled = engine.compile_phase(phase, axis[:1])
        off_axis = Placement.single(a=axis[-1])
        with pytest.raises(SimulationError):
            engine.price_placements_batch(compiled, [off_axis])

    def test_accepts_rejects_out_of_order_split(self):
        """The bit-identity precondition holds for an in-order split and
        not for a backwards one, which prices as its axis-ordered twin."""
        engine = SimEngine(xeon_cascadelake_1lm())
        axis = tuple(sorted(engine._nodes))
        if len(axis) < 2:
            pytest.skip("needs two nodes")
        phase = KernelPhase(
            name="p", threads=1,
            accesses=(
                BufferAccess(
                    buffer="a", pattern=PatternKind.STREAM,
                    bytes_read=MiB, working_set=MiB,
                ),
            ),
        )
        compiled = engine.compile_phase(phase, axis)
        backwards = Placement({"a": {axis[1]: 0.25, axis[0]: 0.75}})
        assert not _axis_ordered(compiled, backwards)
        in_order = Placement({"a": {axis[0]: 0.75, axis[1]: 0.25}})
        assert _axis_ordered(compiled, in_order)
        # The tensor is laid out on the axis, so a backwards split is
        # priced as its axis-ordered twin, which the scalar path matches.
        batch = engine.price_placements_batch(compiled, [backwards, in_order])
        assert batch.seconds[0] == batch.seconds[1]
        scalar = engine.price_prepared(compiled.prepared, in_order)
        assert batch.seconds[1] == scalar.seconds


def _hyp_scenario(seed: int):
    engine, axis, phase, _ = _scenario(seed)
    rng = random.Random(seed ^ 0x5EED)
    buffers = tuple(a.buffer for a in phase.accesses)
    placements = _random_placements(rng, buffers, axis, 12)
    compiled = engine.compile_phase(phase, axis)
    return engine, compiled, placements


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
        """Permuting batch rows permutes results — rows never interact."""
        engine, compiled, placements = _hyp_scenario(seed)
        perm = data.draw(st.permutations(range(len(placements))))
        base = engine.price_placements_batch(compiled, placements)
        shuffled = engine.price_placements_batch(
            compiled, [placements[i] for i in perm]
        )
        for new_row, old_row in enumerate(perm):
            assert shuffled.seconds[new_row] == base.seconds[old_row]
            assert np.array_equal(
                shuffled.node_bw_seconds[new_row],
                base.node_bw_seconds[old_row],
            )

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
        """Any sub-batch prices identically to the full batch's rows."""
        engine, compiled, placements = _hyp_scenario(seed)
        rows = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(placements) - 1),
                min_size=1,
                max_size=len(placements),
            )
        )
        base = engine.price_placements_batch(compiled, placements)
        sub = engine.price_placements_batch(
            compiled, [placements[i] for i in rows]
        )
        for j, i in enumerate(rows):
            assert sub.seconds[j] == base.seconds[i]
            assert sub.latency_seconds[j] == base.latency_seconds[i]
            assert sub.bandwidth_seconds[j] == base.bandwidth_seconds[i]


class TestGenerationStaleness:
    """Satellite: degraded attrs must never serve stale prices."""

    def _bound_engine(self):
        machine = xeon_cascadelake_1lm()
        topo = build_topology(machine)
        attrs = native_discovery(topo)
        engine = SimEngine(machine, topo, attrs=attrs)
        return engine, topo, attrs

    def _any_target(self, topo, attrs):
        return topo.numanodes()[0]

    def test_blend_memo_evicted_on_generation_bump(self):
        engine, topo, attrs = self._bound_engine()
        phase = KernelPhase(
            name="p", threads=4,
            accesses=(
                BufferAccess(
                    buffer="a", pattern=PatternKind.STREAM,
                    bytes_read=GB, working_set=GB,
                ),
            ),
        )
        node = min(engine._nodes)
        engine.price_phase(phase, Placement.single(a=node))
        stats = engine.memo_stats()
        assert stats["blend_entries"] > 0
        assert stats["evictions"] == 0

        target = self._any_target(topo, attrs)
        assert attrs.degrade_target("Bandwidth", target, 0.5) > 0
        engine.price_phase(phase, Placement.single(a=node))
        stats = engine.memo_stats()
        assert stats["generation"] == attrs.generation
        assert stats["evictions"] > 0

    def test_stale_compiled_phase_refused(self):
        engine, topo, attrs = self._bound_engine()
        phase = KernelPhase(
            name="p", threads=4,
            accesses=(
                BufferAccess(
                    buffer="a", pattern=PatternKind.STREAM,
                    bytes_read=GB, working_set=GB,
                ),
            ),
        )
        compiled = engine.compile_phase(phase)
        node = min(engine._nodes)
        placement = Placement.single(a=node)
        engine.price_placements_batch(compiled, [placement])  # fresh: fine

        target = self._any_target(topo, attrs)
        attrs.degrade_target("Latency", target, 2.0)
        with pytest.raises(SimulationError, match="generation"):
            engine.price_placements_batch(compiled, [placement])
        # Recompiling under the new generation restores service, and the
        # fresh tables price identically to the scalar path again.
        fresh = engine.compile_phase(phase)
        batch = engine.price_placements_batch(fresh, [placement])
        assert batch.seconds[0] == engine.price_phase(phase, placement).seconds

    def test_unbound_engine_never_evicts(self):
        engine = SimEngine(xeon_cascadelake_1lm())
        phase = KernelPhase(
            name="p", threads=4,
            accesses=(
                BufferAccess(
                    buffer="a", pattern=PatternKind.STREAM,
                    bytes_read=GB, working_set=GB,
                ),
            ),
        )
        node = min(engine._nodes)
        for _ in range(3):
            engine.price_phase(phase, Placement.single(a=node))
        stats = engine.memo_stats()
        assert stats["generation"] == 0
        assert stats["evictions"] == 0
