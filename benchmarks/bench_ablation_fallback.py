"""Ablation: the allocator's two fallback dimensions (§IV-B).

Quantifies what each fallback buys:

* **target fallback** — without it, the KNL Bandwidth request at 17.9 GiB
  simply fails (Table III(b)'s crossover would be an OOM instead of a
  29 GB/s run);
* **attribute fallback** — without it, a ReadBandwidth request on a
  platform that only measured the combined Bandwidth has no ranking and
  fails; with it, the request succeeds with the same placement quality.
"""

import pytest

import repro
from repro.alloc import HeterogeneousAllocator
from repro.apps import StreamApp
from repro.core import BANDWIDTH, MemAttrs
from repro.errors import AllocationError, CapacityError
from repro.kernel import KernelMemoryManager
from repro.units import GB, GiB

KNL_PUS = tuple(range(64))


def test_target_fallback_ablation(record, knl_pus):
    setup = repro.quick_setup("knl-snc4-flat")
    app = StreamApp(setup.engine, setup.allocator)
    total = int(17.9 * GiB)

    with_fb = app.run(total, "Bandwidth", 0, threads=16, pus=knl_pus)

    def without_fb():
        try:
            app.run(total, "Bandwidth", 0, threads=16, pus=knl_pus, strict=True)
            return "ran"
        except CapacityError:
            return "OOM"

    outcome = without_fb()
    record(
        "ablation_target_fallback",
        f"with fallback:    {with_fb.describe()}\n"
        f"without fallback: {outcome} (strict best-target binding)",
    )
    assert outcome == "OOM"
    assert with_fb.triad_gbps == pytest.approx(29.3, rel=0.06)


def test_attribute_fallback_ablation(record, knl_setup):
    """Feed only combined Bandwidth values, then request ReadBandwidth."""
    topo = knl_setup.topology
    ma = MemAttrs(topo)
    for node in topo.numanodes():
        if node.cpuset.isset(0):
            ma.set_value(
                BANDWIDTH,
                node,
                node.cpuset,
                9e10 if node.attrs["kind"] == "HBM" else 3e10,
            )

    with_fb = HeterogeneousAllocator(ma, KernelMemoryManager(knl_setup.machine))
    buf = with_fb.mem_alloc(1 * GB, "ReadBandwidth", 0)
    with_outcome = f"{buf.target.attrs['kind']} via {buf.used_attribute}"
    with_fb.free(buf)

    # Disable the chain: ReadBandwidth has no similar attributes to try.
    no_fb = HeterogeneousAllocator(
        ma,
        KernelMemoryManager(knl_setup.machine),
        attribute_fallback={"ReadBandwidth": ()},
    )

    def without_fb():
        try:
            b = no_fb.mem_alloc(1 * GB, "ReadBandwidth", 0)
            no_fb.free(b)
            return "ran"
        except AllocationError:
            return "failed: no values for ReadBandwidth"

    outcome = without_fb()
    record(
        "ablation_attribute_fallback",
        f"with attribute fallback:    HBM? -> {with_outcome}\n"
        f"without attribute fallback: {outcome}",
    )
    assert with_outcome == "HBM via Bandwidth"
    assert outcome.startswith("failed")
