"""Table I: status of memory attributes — native discovery vs external
sources.

Regenerates the support matrix by actually exercising both discovery
paths on both evaluation machines: the HMAT-equipped Xeon (native) and
the HMAT-less KNL (benchmarks), plus a custom user attribute.
"""

import pytest

from repro.bench import characterize_machine, feed_attributes
from repro.core import (
    BUILTIN_ATTRIBUTES,
    MemAttrs,
    native_discovery,
    stream_triad_attribute,
)
from repro.hw import get_platform
from repro.sim import SimEngine
from repro.topology import build_topology


def _coverage(memattrs) -> dict[str, bool]:
    return {attr.name: memattrs.has_values(attr) for attr in memattrs.attributes()}


def test_table1_support_matrix(record):
    xeon = build_topology(get_platform("xeon-cascadelake-1lm"))
    knl = build_topology(get_platform("knl-snc4-flat"))

    native = native_discovery(xeon)

    benched = MemAttrs(knl)
    feed_attributes(
        benched, characterize_machine(SimEngine(knl.machine_spec, knl))
    )
    stream_triad_attribute(benched)  # the user-specified custom metric row

    native_cov = _coverage(native)
    bench_cov = _coverage(benched)

    rows = [
        f"{'Attribute':>16} | {'Native (Xeon HMAT)':>20} | {'Benchmarks (KNL)':>18}"
    ]
    names = [a.name for a in BUILTIN_ATTRIBUTES] + ["StreamTriad"]
    for name in names:
        rows.append(
            f"{name:>16} | {'yes' if native_cov.get(name) else 'no':>20} "
            f"| {'yes' if bench_cov.get(name) else 'no':>18}"
        )
    record("table1_attribute_support", "\n".join(rows))

    # Table I row 1: Capacity/Locality always supported, no external
    # source needed.
    for name in ("Capacity", "Locality"):
        assert native_cov[name] and bench_cov[name]
    # Row 2-3: bandwidth/latency native on the HMAT platform, via
    # benchmarks on KNL.
    for name in ("Bandwidth", "Latency", "ReadBandwidth", "WriteLatency"):
        assert native_cov[name] and bench_cov[name]
    # Last row: custom metrics are user-specified.
    assert bench_cov["StreamTriad"]
    assert "StreamTriad" not in native_cov  # not registered there


def test_native_discovery_snc2():
    """Native discovery fills Bandwidth on the SNC-2 Xeon too."""
    topo = build_topology(get_platform("xeon-cascadelake-1lm", snc=2))
    assert native_discovery(topo).has_values("Bandwidth")
