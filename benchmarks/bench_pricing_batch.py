"""Batch pricing throughput: compiled tensors vs the scalar hot loop.

The placement search, the auto-tier daemon and the multi-tenant fixpoint
all reduce to "price one phase under many placements".  This bench
measures that primitive on the two §VI servers: placements/second through
the scalar :meth:`SimEngine.price_prepared` loop vs one
:meth:`SimEngine.price_placements_batch` call — first end-to-end
(``Placement`` objects in, including the fraction-tensor flattening),
then on a prebuilt tensor (the search/autotier fast path, which builds
one-hot tensors directly).  Every batch row is asserted **bit-identical**
to its scalar pricing before any timing is trusted.  Results land in
``benchmarks/results/BENCH_pricing_batch.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

import repro
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GB, MiB

RESULTS_JSON = (
    pathlib.Path(__file__).parent / "results" / "BENCH_pricing_batch.json"
)

# REPRO_BENCH_QUICK=1 shrinks the batches ~8x for CI smoke runs: same
# identity assertions, noisier throughput numbers.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

N_PLACEMENTS = 512 if QUICK else 4096
REPEATS = 3
MIN_SPEEDUP = 10.0

PRESETS = ("xeon-cascadelake-1lm", "knl-snc4-flat")

_results: dict[str, dict] = {}


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


def _run_preset(preset: str) -> dict:
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

    n = len(placements)
    return {
        "rows": n,
        "nodes": len(axis),
        "scalar_rows_per_s": round(n / scalar_s),
        "batch_rows_per_s": round(n / e2e_s),
        "batch_tensor_rows_per_s": round(n / tensor_s),
        "speedup_e2e": round(scalar_s / e2e_s, 2),
        "speedup_tensor": round(scalar_s / tensor_s, 2),
        "bit_identical": True,
    }


def _fmt(result: dict) -> str:
    return (
        f"scalar {result['scalar_rows_per_s']:>9,} rows/s | "
        f"batch {result['batch_rows_per_s']:>9,} rows/s "
        f"({result['speedup_e2e']:.1f}x) | "
        f"tensor {result['batch_tensor_rows_per_s']:>9,} rows/s "
        f"({result['speedup_tensor']:.1f}x)"
    )


def test_xeon_batch_throughput(record):
    _results["xeon-cascadelake-1lm"] = r = _run_preset("xeon-cascadelake-1lm")
    record("pricing_batch_xeon", _fmt(r))
    assert r["speedup_tensor"] >= MIN_SPEEDUP
    assert r["speedup_e2e"] >= 3.0


def test_knl_batch_throughput(record):
    _results["knl-snc4-flat"] = r = _run_preset("knl-snc4-flat")
    record("pricing_batch_knl", _fmt(r))
    assert r["speedup_tensor"] >= MIN_SPEEDUP
    assert r["speedup_e2e"] >= 3.0


def test_write_json(results_dir):
    assert _results, "preset benches must run first"
    RESULTS_JSON.write_text(json.dumps({"presets": _results}, indent=2) + "\n")
    print(f"archived {RESULTS_JSON}")
