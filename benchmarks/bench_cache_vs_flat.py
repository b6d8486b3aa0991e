"""The §II performance/productivity trade-off: hardware-managed cache
modes vs software-tuned flat modes.

"KNL introduced an important new trade-off ... the Cache mode is an
automatic hardware-based way to benefit from MCDRAM performance and DRAM
capacity, but its performance may be lower than the Flat mode if the
application memory allocations are carefully tuned" (§II-A), and the same
question returns with Xeon 2LM vs 1LM (§II-B).

We run STREAM across working-set sizes on:
* KNL SNC-4 **Cache** mode (automatic) vs **Flat** mode with the
  Bandwidth criterion (tuned);
* Xeon **2LM** (DRAM caches the NVDIMM) vs **1LM** with criteria.
"""

import pytest

import repro
from repro.apps import StreamApp
from repro.apps.stream_app import triad_accesses
from repro.sim import KernelPhase, Placement
from repro.units import GiB

KNL_PUS = tuple(range(64))
XEON_PUS = tuple(range(40))


def _triad_fixed(setup, node, total_bytes, threads, pus):
    """Triad with all arrays on one node (what cache modes give you)."""
    arr = total_bytes // 3
    phase = KernelPhase(name="triad", threads=threads, accesses=triad_accesses(arr))
    t = setup.engine.price_phase(
        phase, Placement.single(a=node, b=node, c=node), pus=pus
    )
    return 3 * arr / t.seconds / 1e9


def test_knl_cache_vs_flat(record):
    cache_setup = repro.quick_setup("knl-snc4-cache", benchmark=True)
    flat_setup = repro.quick_setup("knl-snc4-flat")
    app = StreamApp(flat_setup.engine, flat_setup.allocator)

    rows = [f"{'total':>9} | {'cache mode':>10} | {'flat+attr':>10} | winner"]
    outcomes = {}
    for gib in (1.1, 3.4, 17.9):
        cache_gbps = _triad_fixed(
            cache_setup, 0, int(gib * GiB), threads=16, pus=KNL_PUS
        )
        flat_gbps = app.run(
            int(gib * GiB), "Bandwidth", 0, threads=16, pus=KNL_PUS
        ).triad_gbps
        outcomes[gib] = (cache_gbps, flat_gbps)
        winner = "flat" if flat_gbps > cache_gbps * 1.02 else (
            "cache" if cache_gbps > flat_gbps * 1.02 else "tie"
        )
        rows.append(
            f"{gib:>7.1f}Gi | {cache_gbps:>10.2f} | {flat_gbps:>10.2f} | {winner}"
        )
    record("cache_vs_flat_knl", "\n".join(rows))

    # Small working sets: the MCDRAM cache captures everything and the
    # modes tie-ish; the tuned flat mode is never *slower* than the cache
    # (§II-A's claim, given careful tuning).
    assert outcomes[1.1][1] >= outcomes[1.1][0] * 0.95
    # Beyond the 4 GB MCDRAM, the direct-mapped cache thrashes while the
    # flat allocator falls back cleanly to DRAM speed.
    assert outcomes[17.9][1] >= outcomes[17.9][0]


def test_xeon_2lm_vs_1lm(record):
    lm2 = repro.quick_setup("xeon-cascadelake-2lm", benchmark=True)
    lm1 = repro.quick_setup("xeon-cascadelake-1lm")
    app = StreamApp(lm1.engine, lm1.allocator)

    rows = [f"{'total':>9} | {'2LM (auto)':>10} | {'1LM+attr':>9} | winner"]
    outcomes = {}
    for gib in (22.4, 89.4):
        auto = _triad_fixed(lm2, 0, int(gib * GiB), threads=20, pus=XEON_PUS)
        tuned = app.run(
            int(gib * GiB), "Latency", 0, threads=20, pus=XEON_PUS
        ).triad_gbps
        outcomes[gib] = (auto, tuned)
        winner = "1LM" if tuned > auto * 1.02 else (
            "2LM" if auto > tuned * 1.02 else "tie"
        )
        rows.append(f"{gib:>7.1f}Gi | {auto:>10.2f} | {tuned:>9.2f} | {winner}")
    record("cache_vs_flat_xeon", "\n".join(rows))

    # While the working set fits the 192GB DRAM cache, 2LM is competitive;
    # tuned 1LM always at least matches it (productivity vs performance).
    for gib, (auto, tuned) in outcomes.items():
        assert tuned >= auto * 0.95, gib
