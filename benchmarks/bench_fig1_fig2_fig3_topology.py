"""Figures 1-3: lstopo renderings of the paper's three platforms.

Regenerates the topology diagrams (as indented text) for the KNL
SNC4/Hybrid50 machine (Fig. 1), the dual-Xeon NVDIMM machine in
1-Level-Memory/SNC2 (Fig. 2) and the fictitious four-kind platform
(Fig. 3).
"""

import pytest

from repro.hw import get_platform
from repro.topology import build_topology, render_lstopo


def test_fig1_knl_hybrid50(record):
    text = render_lstopo(build_topology(get_platform("knl-snc4-hybrid50")))
    record("fig1_knl_snc4_hybrid50", text)
    # Fig. 1's defining features: 4 clusters, each with a 12GB DRAM behind
    # a 2GB MCDRAM memory-side cache plus a flat 2GB MCDRAM node.
    assert text.count("Group0") == 4
    assert text.count("MemSideCache(MCDRAM) (2GB)") == 4
    assert text.count("2GB MCDRAM") == 4
    assert text.count("12GB") == 4


def test_fig2_xeon_snc2_1lm(record):
    text = render_lstopo(build_topology(get_platform("xeon-cascadelake-1lm", snc=2)))
    record("fig2_xeon_cascadelake_1lm_snc2", text)
    # Fig. 2: 4 × 96GB DRAM (one per SubNUMA cluster), 2 × 768GB NVDIMM
    # (one per package), 10 cores per cluster.
    assert text.count("96GB") == 4
    assert text.count("768GB NVDIMM") == 2
    assert text.count("10 × Core") == 4


def test_fig3_fictitious_four_kind(record):
    text = render_lstopo(build_topology(get_platform("fictitious-four-kind")))
    record("fig3_fictitious_four_kind", text)
    # Fig. 3: HBM per SNC, DRAM+NVDIMM per package, machine-wide NAM.
    assert text.count("HBM") == 4
    assert text.count("NVDIMM") == 2
    assert "NAM" in text
    lines = text.splitlines()
    assert not next(l for l in lines if "NAM" in l).startswith("  ")


def test_all_platforms_render(record):
    """Bonus sweep: every modeled platform renders consistently."""
    from repro.hw import PLATFORM_REGISTRY

    outputs = {
        name: render_lstopo(build_topology(get_platform(name)))
        for name in sorted(PLATFORM_REGISTRY)
    }
    record(
        "topology_gallery",
        "\n\n".join(f"--- {name} ---\n{text}" for name, text in outputs.items()),
    )
    assert len(outputs) == len(PLATFORM_REGISTRY)
