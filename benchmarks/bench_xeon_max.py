"""Validation on the successor machine: Intel Xeon Max (HBM + DDR5).

The paper (2022) argued that attribute-based requests would stay correct
on the HBM+DDR platforms then being announced (§II-C).  Xeon Max (2023)
is exactly that machine — KNL's memory modes reborn on a mainstream Xeon.
This bench runs the *unmodified* Table-III-style experiment on the Xeon
Max model: same criteria strings, correct placements, including the
capacity-fallback crossover, plus the flat-vs-cache-mode comparison.
"""

import pytest

import repro
from repro.apps import StreamApp
from repro.apps.stream_app import triad_accesses
from repro.sim import KernelPhase, Placement
from repro.units import GiB

PUS = tuple(range(28))  # quadrant 0: 14 cores × 2 PUs


def test_xeon_max_stream_criteria(record):
    setup = repro.quick_setup("xeon-max", benchmark=True)
    app = StreamApp(setup.engine, setup.allocator)

    rows = [f"{'total':>9} | {'Bandwidth':>10} | {'Latency':>8}"]
    measured = {}
    for gib in (4.0, 12.0, 48.0):
        bw = app.run(int(gib * GiB), "Bandwidth", 0, threads=14, pus=PUS)
        lat = app.run(int(gib * GiB), "Latency", 0, threads=14, pus=PUS)
        measured[gib] = (bw, lat)
        note = "*" if bw.fallback_used else " "
        rows.append(
            f"{gib:>7.1f}Gi | {bw.triad_gbps:>9.2f}{note} | {lat.triad_gbps:>8.2f}"
        )
    rows.append("(* = capacity fallback; HBM per quadrant is 16 GB)")
    record("xeon_max_stream", "\n".join(rows))

    # Same shapes as Table III(b), one hardware generation later:
    # Bandwidth -> HBM while it fits, DRAM speed after fallback;
    # Latency -> DDR5 throughout.
    assert "HBM" in measured[4.0][0].best_target_label
    assert measured[4.0][0].triad_gbps > measured[4.0][1].triad_gbps * 2
    assert measured[48.0][0].fallback_used
    assert measured[48.0][0].triad_gbps == pytest.approx(
        measured[48.0][1].triad_gbps, rel=0.05
    )


def test_xeon_max_flat_vs_cache(record):
    """The §II-A trade-off, third appearance (KNL, 2LM, now Xeon Max)."""
    flat = repro.quick_setup("xeon-max", benchmark=True)
    cache = repro.quick_setup("xeon-max", mode="cache", benchmark=True)

    def triad_on(setup, node, gib):
        arr = int(gib * GiB / 3)
        phase = KernelPhase(name="triad", threads=14, accesses=triad_accesses(arr))
        t = setup.engine.price_phase(
            phase, Placement.single(a=node, b=node, c=node), pus=PUS
        )
        return 3 * arr / t.seconds / 1e9

    app = StreamApp(flat.engine, flat.allocator)
    rows = [f"{'total':>9} | {'cache mode':>10} | {'flat+attr':>9}"]
    outcomes = {}
    for gib in (4.0, 48.0):
        auto = triad_on(cache, 0, gib)
        tuned = app.run(
            int(gib * GiB), "Bandwidth", 0, threads=14, pus=PUS
        ).triad_gbps
        outcomes[gib] = (auto, tuned)
        rows.append(f"{gib:>7.1f}Gi | {auto:>10.2f} | {tuned:>9.2f}")
    record("xeon_max_flat_vs_cache", "\n".join(rows))

    # Within HBM capacity the tuned flat mode wins; beyond it the HBM
    # cache thrashes while flat falls back to clean DDR5 streaming.
    assert outcomes[4.0][1] >= outcomes[4.0][0]
    assert outcomes[48.0][1] >= outcomes[48.0][0]
