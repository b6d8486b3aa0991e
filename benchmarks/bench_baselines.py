"""Baseline comparison: attributes vs memkind vs AutoHBW (§II-D, §IV-B).

The concrete comparison the paper argues verbally: run the same
mixed-buffer workload (one bandwidth-hot array, one latency-hot table,
one cold heap) under four allocation policies on both machines:

* **attributes** — per-buffer criteria through ``mem_alloc`` (ours);
* **memkind** — hardwired ``MEMKIND_HBW`` for the hot array (fails
  outright on the Xeon);
* **AutoHBW** — size-window interception (window tuned for this run);
* **intercept+hints** — §IV-B's upgrade: interception with per-site
  sensitivity hints feeding the attribute allocator.
"""

import pytest

import repro
from repro.baselines import (
    AutoHBW,
    InterceptingAllocator,
    Memkind,
    MemkindError,
    MemkindKind,
    SizeWindow,
)
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GB, MiB

KNL_PUS = tuple(range(64))
XEON_PUS = tuple(range(40))

HOT_STREAM = 2 * GB      # swept 40x (bandwidth-critical)
HOT_TABLE = 2 * GB       # random lookups (latency-critical)
COLD_HEAP = 16 * GB      # one touch


def _phases(threads):
    return (
        KernelPhase(
            name="sweeps",
            threads=threads,
            accesses=(
                BufferAccess(buffer="hot_stream", pattern=PatternKind.STREAM,
                             bytes_read=HOT_STREAM * 40,
                             working_set=HOT_STREAM),
                BufferAccess(buffer="hot_table", pattern=PatternKind.RANDOM,
                             bytes_read=3 * 10**8, working_set=HOT_TABLE),
                BufferAccess(buffer="cold_heap", pattern=PatternKind.STREAM,
                             bytes_read=COLD_HEAP // 8,
                             working_set=COLD_HEAP),
            ),
        ),
    )


def _placement_of(buffers) -> Placement:
    return Placement({
        name: {n: frac for n, frac in fractions.items()}
        for name, fractions in buffers.items()
    })


def _time(setup, placement, threads, pus) -> float:
    return setup.engine.price_run(_phases(threads), placement, pus=pus).seconds


def _attr_placement(setup):
    alloc = setup.allocator
    a = alloc.mem_alloc(HOT_STREAM, "Bandwidth", 0, name="hs")
    b = alloc.mem_alloc(HOT_TABLE, "Latency", 0, name="ht")
    c = alloc.mem_alloc(COLD_HEAP, "Capacity", 0, name="ch")
    placement = {
        "hot_stream": a.placement_fractions(),
        "hot_table": b.placement_fractions(),
        "cold_heap": c.placement_fractions(),
    }
    for buf in (a, b, c):
        alloc.free(buf)
    return placement


def _memkind_placement(setup):
    """memkind code as a KNL user would write it — hardwired kinds.

    This exact code is then run on the Xeon too, where MEMKIND_HBW has
    no backing: the portability failure §VI-A describes.
    """
    mk = Memkind(setup.kernel)
    a = mk.malloc(MemkindKind.MEMKIND_HBW, HOT_STREAM, name="hs")
    b = mk.malloc(MemkindKind.MEMKIND_DEFAULT, HOT_TABLE, name="ht")
    c = mk.malloc(MemkindKind.MEMKIND_DEFAULT, COLD_HEAP, name="ch")
    placement = {
        "hot_stream": {n: a.allocation.fraction_on(n) for n in a.nodes},
        "hot_table": {n: b.allocation.fraction_on(n) for n in b.nodes},
        "cold_heap": {n: c.allocation.fraction_on(n) for n in c.nodes},
    }
    for buf in ("hs", "ht", "ch"):
        mk.free(buf)
    return placement


def _autohbw_placement(setup):
    # Window tuned for THIS run: exactly the hot sizes, excluding the heap.
    auto = AutoHBW(setup.kernel, SizeWindow(low=1 * GB, high=3 * GB))
    out = {}
    for name, size in (
        ("hot_stream", HOT_STREAM),
        ("hot_table", HOT_TABLE),
        ("cold_heap", COLD_HEAP),
    ):
        buf = auto.malloc(size, name=name)
        out[name] = {
            n: buf.allocation.fraction_on(n) for n in buf.nodes
        }
    for name in out:
        auto.free(name)
    return out


def _hinted_placement(setup):
    interceptor = InterceptingAllocator(setup.allocator, initiator=0)
    interceptor.add_hint("kernel.c:12", "Bandwidth")
    interceptor.add_hint("kernel.c:34", "Latency")
    mapping = {}
    a = interceptor.malloc(HOT_STREAM, "kernel.c:12", name="hs")
    b = interceptor.malloc(HOT_TABLE, "kernel.c:34", name="ht")
    c = interceptor.malloc(COLD_HEAP, "somewhere.c:9", name="ch")
    mapping["hot_stream"] = a.placement_fractions()
    mapping["hot_table"] = b.placement_fractions()
    mapping["cold_heap"] = c.placement_fractions()
    for buf in (a, b, c):
        interceptor.free(buf)
    return mapping


def test_baseline_comparison(record):
    rows = [f"{'policy':<20} | {'KNL time':>9} | {'Xeon time':>10}"]
    times = {}
    for label, strategy in (
        ("attributes", _attr_placement),
        ("memkind", _memkind_placement),
        ("AutoHBW", _autohbw_placement),
        ("intercept+hints", _hinted_placement),
    ):
        cells = {}
        for name, platform, threads, pus in (
            ("knl", "knl-snc4-flat", 16, KNL_PUS),
            ("xeon", "xeon-cascadelake-1lm", 20, XEON_PUS),
        ):
            setup = repro.quick_setup(platform)
            try:
                placement = strategy(setup)
                cells[name] = _time(setup, _placement_of(placement), threads, pus)
            except MemkindError:
                cells[name] = None
        times[label] = cells
        fmt = lambda v: f"{v:9.3f}s" if v is not None else f"{'FAILS':>9}"
        rows.append(
            f"{label:<20} | {fmt(cells['knl'])} | {fmt(cells['xeon']):>10}"
        )
    record("baseline_comparison", "\n".join(rows))

    attrs, memkind = times["attributes"], times["memkind"]
    autohbw, hinted = times["AutoHBW"], times["intercept+hints"]

    # memkind: works on KNL (within 10% of attributes — the hot array gets
    # HBM either way) but cannot express the request on the Xeon at all.
    assert memkind["xeon"] is None
    assert memkind["knl"] == pytest.approx(attrs["knl"], rel=0.25)
    # AutoHBW (tuned) matches on KNL but is inert on the HBM-less Xeon,
    # where it leaves the cold heap crowding the DRAM default node.
    assert autohbw["knl"] == pytest.approx(attrs["knl"], rel=0.35)
    # The attribute policies work everywhere and are never beaten.
    for name in ("knl", "xeon"):
        assert attrs[name] is not None and hinted[name] is not None
        assert hinted[name] == pytest.approx(attrs[name], rel=0.05)
        for other in (memkind[name], autohbw[name]):
            if other is not None:
                assert attrs[name] <= other * 1.05
