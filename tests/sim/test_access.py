"""Access descriptor and placement tests."""

import pytest

from repro.errors import SimulationError
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement


def acc(**kw):
    base = dict(
        buffer="b", pattern=PatternKind.STREAM, bytes_read=1024, working_set=1024
    )
    base.update(kw)
    return BufferAccess(**base)


class TestBufferAccess:
    def test_valid_construction(self):
        a = acc()
        assert a.bytes_written == 0

    def test_requires_traffic(self):
        with pytest.raises(SimulationError):
            acc(bytes_read=0)

    def test_requires_positive_working_set(self):
        with pytest.raises(SimulationError):
            acc(working_set=0)

    def test_rejects_negative_traffic(self):
        with pytest.raises(SimulationError):
            acc(bytes_read=-1)

    def test_rejects_empty_name(self):
        with pytest.raises(SimulationError):
            acc(buffer="")

    def test_hot_fraction_range(self):
        with pytest.raises(SimulationError):
            acc(hot_fraction=1.0)
        with pytest.raises(SimulationError):
            acc(hot_fraction=-0.1)
        assert acc(hot_fraction=0.9).hot_fraction == 0.9

    def test_pattern_properties(self):
        assert PatternKind.POINTER_CHASE.is_latency_bound
        assert PatternKind.RANDOM.is_latency_bound
        assert not PatternKind.STREAM.is_latency_bound
        assert PatternKind.POINTER_CHASE.cpu_mlp == 1.0
        assert PatternKind.STREAM.cpu_mlp > PatternKind.RANDOM.cpu_mlp


class TestKernelPhase:
    def test_duplicate_buffers_rejected(self):
        with pytest.raises(SimulationError):
            KernelPhase(name="p", threads=1, accesses=(acc(), acc()))

    def test_needs_accesses(self):
        with pytest.raises(SimulationError):
            KernelPhase(name="p", threads=1, accesses=())

    def test_needs_threads(self):
        with pytest.raises(SimulationError):
            KernelPhase(name="p", threads=0, accesses=(acc(),))

    def test_access_lookup(self):
        phase = KernelPhase(name="p", threads=1, accesses=(acc(),))
        assert phase.access("b").buffer == "b"
        with pytest.raises(SimulationError):
            phase.access("nope")


class TestPlacement:
    def test_single_helper(self):
        p = Placement.single(a=0, b=3)
        assert p.of("a") == {0: 1.0}
        assert p.nodes_used() == (0, 3)

    def test_missing_buffer_raises(self):
        with pytest.raises(SimulationError):
            Placement().of("ghost")

    def test_fractions_must_sum_to_one(self):
        # Malformed splits are rejected when they enter the placement
        # (construction), not lazily in the of() hot path.
        with pytest.raises(SimulationError):
            Placement({"a": {0: 0.5, 1: 0.4}})

    def test_set_rejects_bad_fractions(self):
        p = Placement.single(a=0)
        with pytest.raises(SimulationError):
            p.set("a", {0: 0.5, 1: 0.6})
        assert p.of("a") == {0: 1.0}  # rejected split did not stick

    def test_negative_fraction_rejected(self):
        # Sums to 1, but node 2 would carry negative traffic and price
        # faster than any real placement.
        with pytest.raises(SimulationError, match="'a'.*node 2"):
            Placement({"a": {0: 1.25, 2: -0.25}, "b": {2: 1.0}})
        p = Placement.single(a=0)
        with pytest.raises(SimulationError, match="'a'.*node 2"):
            p.set("a", {0: 1.25, 2: -0.25})
        assert p.of("a") == {0: 1.0}
        # A zero fraction stays legal.
        assert Placement({"a": {0: 1.0, 2: 0.0}}).of("a") == {0: 1.0, 2: 0.0}

    def test_split_placement_ok(self):
        p = Placement({"a": {0: 0.25, 1: 0.75}})
        assert p.of("a")[1] == 0.75

    def test_from_allocations(self, xeon_kernel):
        from repro.kernel import bind_policy
        alloc = xeon_kernel.allocate(1 << 30, bind_policy(0))
        p = Placement.from_allocations({"buf": alloc})
        assert p.of("buf") == {0: pytest.approx(1.0)}
        xeon_kernel.free(alloc)

    def test_set_overrides(self):
        p = Placement.single(a=0)
        p.set("a", {1: 1.0})
        assert p.of("a") == {1: 1.0}
