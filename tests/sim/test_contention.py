"""Concurrent multi-job pricing tests (§III-B3 contention)."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    BufferAccess,
    ConcurrentJob,
    KernelPhase,
    PatternKind,
    Placement,
    price_concurrent,
)
from repro.units import GB


def stream_job(name, node, nbytes, threads=10, pus=tuple(range(20))):
    return ConcurrentJob(
        name=name,
        phase=KernelPhase(
            name=name,
            threads=threads,
            accesses=(
                BufferAccess(
                    buffer="b",
                    pattern=PatternKind.STREAM,
                    bytes_read=nbytes,
                    working_set=nbytes,
                ),
            ),
        ),
        placement=Placement.single(b=node),
        pus=pus,
    )


def chase_job(name, node, accesses=1 << 16):
    return ConcurrentJob(
        name=name,
        phase=KernelPhase(
            name=name,
            threads=1,
            accesses=(
                BufferAccess(
                    buffer="b",
                    pattern=PatternKind.POINTER_CHASE,
                    bytes_read=accesses * 8,
                    working_set=2 * GB,
                ),
            ),
        ),
        placement=Placement.single(b=node),
        pus=(0,),
    )


class TestProcessorSharing:
    def test_single_job_equals_solo(self, xeon_engine):
        (out,) = price_concurrent(xeon_engine, (stream_job("a", 0, 8 * GB),))
        assert out.slowdown == pytest.approx(1.0)

    def test_two_equal_jobs_same_node_double(self, xeon_engine):
        outs = price_concurrent(
            xeon_engine,
            (stream_job("a", 0, 8 * GB), stream_job("b", 0, 8 * GB)),
        )
        for out in outs:
            assert out.slowdown == pytest.approx(2.0, rel=0.01)

    def test_disjoint_nodes_no_contention(self, xeon_engine):
        outs = price_concurrent(
            xeon_engine,
            (stream_job("a", 0, 8 * GB), stream_job("b", 2, 8 * GB)),
        )
        for out in outs:
            assert out.slowdown == pytest.approx(1.0, rel=0.01)

    def test_unequal_jobs_small_finishes_first(self, xeon_engine):
        outs = price_concurrent(
            xeon_engine,
            (stream_job("small", 0, 2 * GB), stream_job("big", 0, 16 * GB)),
        )
        by_name = {o.name: o for o in outs}
        assert by_name["small"].seconds < by_name["big"].seconds
        # Processor sharing: small job finishes at 2×its solo time; the big
        # one gets the residual capacity afterwards.
        assert by_name["small"].slowdown == pytest.approx(2.0, rel=0.02)
        assert by_name["big"].slowdown < 2.0

    def test_three_way_sharing(self, xeon_engine):
        outs = price_concurrent(
            xeon_engine,
            tuple(stream_job(f"j{i}", 0, 8 * GB) for i in range(3)),
        )
        for out in outs:
            assert out.slowdown == pytest.approx(3.0, rel=0.01)

    def test_latency_job_unaffected_by_bandwidth_job(self, xeon_engine):
        """Serial latency chains don't contend for bandwidth in this model:
        the chase's dependent loads trickle."""
        outs = price_concurrent(
            xeon_engine,
            (chase_job("chase", 0), stream_job("stream", 0, 8 * GB)),
        )
        by_name = {o.name: o for o in outs}
        assert by_name["chase"].slowdown < 1.5

    def test_heterogeneity_as_isolation(self, xeon_engine):
        """Placing the second tenant on the other memory kind trades peak
        bandwidth for freedom from contention."""
        shared = price_concurrent(
            xeon_engine,
            (stream_job("a", 0, 8 * GB), stream_job("b", 0, 8 * GB)),
        )
        isolated = price_concurrent(
            xeon_engine,
            (stream_job("a", 0, 8 * GB), stream_job("b", 2, 8 * GB)),
        )
        a_shared = next(o for o in shared if o.name == "a")
        a_isolated = next(o for o in isolated if o.name == "a")
        assert a_isolated.seconds < a_shared.seconds

    def test_validation(self, xeon_engine):
        with pytest.raises(SimulationError):
            price_concurrent(xeon_engine, ())
        with pytest.raises(SimulationError):
            price_concurrent(
                xeon_engine,
                (stream_job("x", 0, GB), stream_job("x", 0, GB)),
            )


class TestSoloPricing:
    """Each job is solo-priced once on the scalar route: every outcome's
    ``solo_seconds`` is ``price_phase``'s, bit for bit."""

    def _shared_phase_jobs(self, nodes):
        phase = KernelPhase(
            name="shared",
            threads=10,
            accesses=(
                BufferAccess(
                    buffer="b",
                    pattern=PatternKind.STREAM,
                    bytes_read=8 * GB,
                    working_set=8 * GB,
                ),
            ),
        )
        return tuple(
            ConcurrentJob(
                name=f"j{i}",
                phase=phase,
                placement=Placement.single(b=node),
                pus=tuple(range(20)),
            )
            for i, node in enumerate(nodes)
        )

    def _assert_solo_is_price_phase(self, engine, jobs):
        outs = price_concurrent(engine, jobs)
        assert [o.name for o in outs] == [j.name for j in jobs]
        for job, out in zip(jobs, outs):
            solo = engine.price_phase(job.phase, job.placement, pus=job.pus)
            assert out.solo_seconds == solo.seconds

    def test_shared_phase_group_solo_is_price_phase(self, xeon_engine):
        self._assert_solo_is_price_phase(
            xeon_engine, self._shared_phase_jobs((0, 2, 0))
        )

    def test_mixed_groups_solo_is_price_phase(self, xeon_engine):
        jobs = self._shared_phase_jobs((0, 2)) + (
            chase_job("chaser", 0),
            stream_job("solo", 2, 4 * GB),
        )
        self._assert_solo_is_price_phase(xeon_engine, jobs)

    def test_out_of_order_split_solo_is_price_phase(self, xeon_engine):
        phase = self._shared_phase_jobs((0,))[0].phase
        jobs = (
            ConcurrentJob(
                name="ordered",
                phase=phase,
                placement=Placement(fractions={"b": {0: 0.75, 2: 0.25}}),
                pus=tuple(range(20)),
            ),
            ConcurrentJob(
                name="backwards",
                phase=phase,
                placement=Placement(fractions={"b": {2: 0.25, 0: 0.75}}),
                pus=tuple(range(20)),
            ),
        )
        self._assert_solo_is_price_phase(xeon_engine, jobs)
