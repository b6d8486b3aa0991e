"""Observation never perturbs the system — differential proof.

For hundreds of seeded random machine/workload combos (mirroring the
``tests/hw/test_random_machines.py`` generator), every decision the
stack takes — ``mem_alloc`` placements, ``mem_alloc_many`` batches,
``search_placements`` optima, raised error types — must be
**bit-identical** with tracing+metrics enabled and disabled.  Sizes are
drawn large enough that capacity fallbacks and ``CapacityError`` paths
are exercised, not just the happy path.
"""

import random

import pytest

from repro import obs
from repro.alloc import HeterogeneousAllocator
from repro.core import MemAttrs, native_discovery
from repro.errors import ReproError
from repro.hw import GroupSpec, MachineSpec, MemoryNodeSpec, PackageSpec, tech
from repro.kernel import KernelMemoryManager
from repro.sensitivity import search_placements
from repro.sim import BufferAccess, KernelPhase, PatternKind, SimEngine
from repro.topology import build_topology
from repro.units import GB, MiB

N_SEEDS = 200

TECH_NAMES = ("ddr4-xeon", "optane-nvdimm", "hbm2", "ddr5", "cxl-dram")
ATTRIBUTES = ("Capacity", "Bandwidth", "Latency")
PATTERNS = (
    PatternKind.STREAM,
    PatternKind.STRIDED,
    PatternKind.RANDOM,
    PatternKind.POINTER_CHASE,
)


def random_machine(rng: random.Random) -> MachineSpec:
    """Seeded mirror of the hypothesis ``machines()`` composite."""
    packages = []
    use_groups = rng.random() < 0.5
    for _ in range(rng.randint(1, 2)):
        pkg_mems = tuple(
            MemoryNodeSpec(
                tech=tech(rng.choice(TECH_NAMES)),
                capacity=rng.randint(1, 64) * GB,
            )
            for _ in range(rng.randint(0, 2))
        )
        if use_groups:
            groups = tuple(
                GroupSpec(
                    cores=rng.randint(1, 2),
                    pus_per_core=rng.randint(1, 2),
                    memories=tuple(
                        MemoryNodeSpec(
                            tech=tech(rng.choice(TECH_NAMES)),
                            capacity=rng.randint(1, 16) * GB,
                        )
                        for _ in range(rng.randint(0, 2))
                    ),
                )
                for _ in range(rng.randint(1, 2))
            )
            packages.append(PackageSpec(groups=groups, memories=pkg_mems))
        else:
            packages.append(
                PackageSpec(
                    cores=rng.randint(1, 3),
                    pus_per_core=rng.randint(1, 2),
                    memories=pkg_mems,
                )
            )
    machine_mems = tuple(
        MemoryNodeSpec(tech=tech("nam"), capacity=rng.randint(64, 256) * GB)
        for _ in range(rng.randint(0, 1))
    )
    if not machine_mems and not any(
        p.memories or any(g.memories for g in p.groups) for p in packages
    ):
        machine_mems = (MemoryNodeSpec(tech=tech("ddr4-xeon"), capacity=32 * GB),)
    return MachineSpec(
        name="fuzz",
        packages=tuple(packages),
        machine_memories=machine_mems,
        has_hmat=rng.random() < 0.5,
    )


def _random_phases(rng: random.Random, buffers) -> tuple[KernelPhase, ...]:
    return tuple(
        KernelPhase(
            name=f"ph{p}",
            threads=rng.choice((2, 4)),
            accesses=tuple(
                BufferAccess(
                    buffer=b,
                    pattern=rng.choice(PATTERNS),
                    bytes_read=rng.randint(1, 32) * MiB,
                    working_set=rng.randint(8, 64) * MiB,
                )
                for b in buffers
            ),
        )
        for p in range(rng.randint(1, 2))
    )


def decision_signature(seed: int) -> list:
    """Every externally visible decision of one randomized scenario.

    Replayable: the same seed drives the machine, the workload and every
    request, so two calls differ only if the stack itself behaves
    differently.
    """
    rng = random.Random(seed)
    machine = random_machine(rng)
    topo = build_topology(machine)
    memattrs = native_discovery(topo) if machine.has_hmat else MemAttrs(topo)
    allocator = HeterogeneousAllocator(memattrs, KernelMemoryManager(machine))
    npus = machine.total_pus
    sig: list = []

    # -- single allocations (sizes large enough to exhaust small nodes) --
    for i in range(rng.randint(2, 5)):
        size = rng.choice((rng.randint(1, 512) * MiB, rng.randint(1, 24) * GB))
        attr = rng.choice(ATTRIBUTES)
        initiator = rng.randrange(npus)
        kwargs = dict(
            name=f"s{i}",
            allow_partial=rng.random() < 0.25,
            allow_fallback=rng.random() < 0.9,
            scope="machine" if rng.random() < 0.2 else "local",
        )
        try:
            buf = allocator.mem_alloc(size, attr, initiator, **kwargs)
            sig.append(
                (
                    "buf",
                    buf.name,
                    buf.used_attribute,
                    buf.fallback_rank,
                    None if buf.target is None else buf.target.os_index,
                    tuple(sorted(buf.placement_fractions().items())),
                )
            )
        except ReproError as exc:
            sig.append(("err", type(exc).__name__))

    # -- one batch ----------------------------------------------------
    batch = [
        dict(
            size=rng.randint(1, 2048) * MiB,
            attribute=rng.choice(ATTRIBUTES),
            initiator=rng.randrange(npus),
            name=f"m{j}",
        )
        for j in range(rng.randint(1, 3))
    ]
    try:
        bufs = allocator.mem_alloc_many(batch)
        sig.append(
            ("batch",)
            + tuple(
                (
                    b.name,
                    b.used_attribute,
                    None if b.target is None else b.target.os_index,
                )
                for b in bufs
            )
        )
    except ReproError as exc:
        sig.append(("batch-err", type(exc).__name__))

    # -- placement search ---------------------------------------------
    nodes = tuple(n.os_index for n in machine.numa_nodes())[:2]
    engine = SimEngine(machine, topo)
    sizes = {b: rng.randint(8, 64) * MiB for b in ("x", "y")}
    phases = _random_phases(rng, tuple(sizes))
    try:
        results = search_placements(
            engine,
            phases,
            sizes,
            nodes,
            default_node=nodes[0],
            pus=tuple(range(npus)),
        ).candidates
        # Bit-identical floats: plain ==, never approx.
        sig.append(
            ("search",)
            + tuple((tuple(c.assignment), c.seconds) for c in results)
        )
    except ReproError as exc:
        sig.append(("search-err", type(exc).__name__))
    return sig


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_decisions_identical_with_obs_on_and_off(seed):
    obs.reset()
    baseline = decision_signature(seed)

    obs.reset()
    obs.enable()
    observed = decision_signature(seed)
    recorded_spans = len(obs.OBS.tracer.records)
    recorded_series = len(obs.OBS.metrics.instruments())
    obs.reset()

    assert observed == baseline
    # The run was actually observed — otherwise this test proves nothing.
    assert recorded_spans > 0
    assert recorded_series > 0


def test_signatures_span_interesting_outcomes():
    """The sweep must exercise fallbacks and error paths, not only happy
    placements — otherwise the differential guarantee is weaker than
    advertised."""
    kinds = set()
    fallbacks = 0
    for seed in range(N_SEEDS):
        for entry in decision_signature(seed):
            kinds.add(entry[0])
            if entry[0] == "buf" and entry[3] > 0:
                fallbacks += 1
    assert {"buf", "batch", "search"} <= kinds
    assert "err" in kinds or "batch-err" in kinds
    assert fallbacks > 0
