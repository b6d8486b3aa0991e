"""Partial-array placement (§IV: "allocating parts of arrays in different
targets ... is possible using existing hwloc features combined with this
new API").

On KNL, a streaming array split between MCDRAM and DDR4 can draw *both*
memory controllers simultaneously; the optimal split fraction is the
bandwidth-proportional one, `B_hbm / (B_hbm + B_dram)`.  This bench sweeps
the fraction, locates the optimum, and compares against the single-node
placements and the allocator's greedy `allow_partial` spill.
"""

import pytest

import repro
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GB, GiB

KNL_PUS = tuple(range(64))
TOTAL = 6 * GB     # larger than the 4 GB MCDRAM: splitting is forced anyway


def _phase(nbytes):
    return KernelPhase(
        name="sweep",
        threads=16,
        accesses=(
            BufferAccess(
                buffer="arr",
                pattern=PatternKind.STREAM,
                bytes_read=nbytes,
                working_set=nbytes,
            ),
        ),
    )


def _gbps(engine, placement, nbytes=TOTAL):
    t = engine.price_phase(_phase(nbytes), placement, pus=KNL_PUS)
    return nbytes / t.seconds / 1e9


def test_split_fraction_sweep(record):
    setup = repro.quick_setup("knl-snc4-flat")
    engine = setup.engine

    rows = [f"{'HBM fraction':>12} | {'GB/s':>7}"]
    results = {}
    for pct in (0, 20, 40, 60, 75, 90, 100):
        f = pct / 100
        if f == 0:
            placement = Placement.single(arr=0)
        elif f == 1:
            placement = Placement.single(arr=4)
        else:
            placement = Placement({"arr": {4: f, 0: 1 - f}})
        gbps = _gbps(engine, placement, nbytes=3 * GB)  # fits either node
        results[pct] = gbps
        rows.append(f"{pct:>11}% | {gbps:>7.2f}")

    # Theory: optimum at B_hbm/(B_hbm+B_dram) = 90/(90+29.5) ≈ 75%.
    best_pct = max(results, key=lambda k: results[k])
    rows.append(f"optimum at {best_pct}% on MCDRAM "
                f"(theory: ~75% = B_hbm/(B_hbm+B_dram))")
    record("split_arrays_sweep", "\n".join(rows))

    assert best_pct == 75
    # The optimal split beats both pure placements: aggregate controllers.
    assert results[75] > results[100] * 1.2
    assert results[75] > results[0] * 3


def test_allocator_partial_spill_approximates_optimum(record):
    """`allow_partial` fills MCDRAM first and spills the rest to DDR4 —
    for a 6 GB array on a ~3.9 GB-free MCDRAM that lands at ≈65% HBM,
    within reach of the 75% optimum and far above whole-buffer fallback."""
    setup = repro.quick_setup("knl-snc4-flat")
    engine = setup.engine

    split_buf = setup.allocator.mem_alloc(
        TOTAL, "Bandwidth", 0, name="arr", allow_partial=True
    )
    split_placement = Placement({"arr": split_buf.placement_fractions()})
    split_gbps = _gbps(engine, split_placement)
    hbm_fraction = split_buf.placement_fractions().get(4, 0.0)
    setup.allocator.free(split_buf)

    whole_buf = setup.allocator.mem_alloc(TOTAL, "Bandwidth", 0, name="arr2")
    whole_gbps = _gbps(
        engine, Placement({"arr": whole_buf.placement_fractions()})
    )
    whole_node = whole_buf.target.attrs["kind"]
    setup.allocator.free(whole_buf)

    record(
        "split_arrays_allocator",
        f"allow_partial spill: {hbm_fraction:.0%} on MCDRAM -> {split_gbps:.2f} GB/s\n"
        f"whole-buffer fallback -> {whole_node}: {whole_gbps:.2f} GB/s",
    )

    assert 0.5 < hbm_fraction < 0.8
    assert whole_node == "DRAM"          # 6 GB cannot fit MCDRAM whole
    assert split_gbps > whole_gbps * 1.5  # hybrid beats pure-DRAM fallback
