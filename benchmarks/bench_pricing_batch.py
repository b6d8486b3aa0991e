"""Batch pricing throughput: compiled tensors vs the scalar hot loop.

The placement search, the auto-tier daemon and the multi-tenant fixpoint
all reduce to "price one phase under many placements".  This bench
measures that primitive on the two §VI servers: placements/second through
the scalar :meth:`SimEngine.price_prepared` loop vs one
:meth:`SimEngine.price_placements_batch` call — first end-to-end
(``Placement`` objects in, including the fraction-tensor flattening),
then on a prebuilt tensor (the search/autotier fast path, which builds
one-hot tensors directly).  Every batch row is asserted **bit-identical**
to its scalar pricing before any timing is trusted.  Rates and speedups
are ``wall`` rows of ``benchmarks/results/bench_pricing_batch.json``.
"""

from __future__ import annotations

import random
import time

import repro
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GB, MiB

N_PLACEMENTS = 4096
REPEATS = 3
MIN_SPEEDUP = 10.0
SHAPE = {"placements": N_PLACEMENTS, "repeats": REPEATS}


def _phase() -> KernelPhase:
    """Four buffers across the pattern zoo — the Graph500-ish shape the
    search prices millions of times."""
    return KernelPhase(
        name="bench",
        threads=16,
        accesses=(
            BufferAccess(
                buffer="stream", pattern=PatternKind.STREAM,
                bytes_read=4 * GB, bytes_written=2 * GB, working_set=4 * GB,
            ),
            BufferAccess(
                buffer="strided", pattern=PatternKind.STRIDED,
                bytes_read=GB, working_set=2 * GB,
            ),
            BufferAccess(
                buffer="random", pattern=PatternKind.RANDOM,
                bytes_read=512 * MiB, working_set=GB,
            ),
            BufferAccess(
                buffer="chase", pattern=PatternKind.POINTER_CHASE,
                bytes_read=256 * MiB, working_set=GB,
            ),
        ),
    )


def _placements(rng: random.Random, axis, n: int) -> list[Placement]:
    buffers = ("stream", "strided", "random", "chase")
    out = []
    for _ in range(n):
        fractions = {}
        for b in buffers:
            if rng.random() < 0.7 or len(axis) == 1:
                fractions[b] = {rng.choice(axis): 1.0}
            else:
                k1, k2 = sorted(rng.sample(range(len(axis)), 2))
                f = rng.uniform(0.1, 0.9)
                fractions[b] = {axis[k1]: f, axis[k2]: 1.0 - f}
        out.append(Placement(fractions))
    return out


def _timed(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _run_preset(preset: str, prefix: str, record, ledger) -> dict[str, float]:
    """Check, time and record one preset; returns the batch speedups."""
    setup = repro.quick_setup(preset)
    engine = setup.engine
    axis = tuple(sorted(n.os_index for n in setup.machine.numa_nodes()))
    rng = random.Random(0xBA7C4)
    phase = _phase()
    prepared = engine.prepare_phase(phase)
    compiled = engine.compile_prepared(prepared, axis)
    placements = _placements(rng, axis, N_PLACEMENTS)
    # Bit identity holds for splits iterating in node-axis order.
    for p in placements:
        for name in compiled.buffers:
            positions = [compiled.node_pos[node] for node in p.of(name)]
            assert positions == sorted(positions)

    # Correctness before speed: every row bit-identical to the scalar.
    batch = engine.price_placements_batch(compiled, placements)
    for i, placement in enumerate(placements):
        scalar = engine.price_prepared(prepared, placement)
        assert batch.seconds[i] == scalar.seconds, (preset, i)

    scalar_s = _timed(
        lambda: [engine.price_prepared(prepared, p) for p in placements]
    )
    e2e_s = _timed(
        lambda: engine.price_placements_batch(compiled, placements)
    )
    tensor = compiled.fractions(placements)
    tensor_s = _timed(
        lambda: engine.price_placements_batch(compiled, tensor)
    )

    timings = {"scalar": scalar_s, "batch": e2e_s, "tensor": tensor_s}
    for name, seconds in timings.items():
        rate = N_PLACEMENTS / seconds
        ledger.row(f"{prefix}.{name}_rows_per_s", rate, "1/s", "higher", "wall")
    speedups = {"e2e": scalar_s / e2e_s, "tensor": scalar_s / tensor_s}
    for name, speedup in speedups.items():
        ledger.row(f"{prefix}.speedup_{name}", speedup, "ratio", "higher", "wall")
    record(
        f"pricing_batch_{prefix}",
        f"scalar {round(N_PLACEMENTS / scalar_s):>9,} rows/s | "
        f"batch {round(N_PLACEMENTS / e2e_s):>9,} rows/s "
        f"({speedups['e2e']:.1f}x) | "
        f"tensor {round(N_PLACEMENTS / tensor_s):>9,} rows/s "
        f"({speedups['tensor']:.1f}x)",
    )
    return speedups


def test_xeon_batch_throughput(record, ledger):
    speedups = _run_preset("xeon-cascadelake-1lm", "xeon", record, ledger)
    assert speedups["tensor"] >= MIN_SPEEDUP
    assert speedups["e2e"] >= 3.0


def test_knl_batch_throughput(record, ledger):
    speedups = _run_preset("knl-snc4-flat", "knl", record, ledger)
    assert speedups["tensor"] >= MIN_SPEEDUP
    assert speedups["e2e"] >= 3.0
