"""repro — reproduction of *Using Performance Attributes for Managing
Heterogeneous Memory in HPC Applications* (Goglin & Rubio Proaño,
PDSEC/IPDPS 2022).

The package layers, bottom to top:

* :mod:`repro.hw` — declarative platform models (KNL, Xeon+NVDIMM, ...).
* :mod:`repro.firmware` — synthetic ACPI SRAT/SLIT/HMAT + virtual sysfs.
* :mod:`repro.kernel` — Linux-like NUMA page allocator, policies, migration.
* :mod:`repro.topology` — hwloc-like object tree, bitmaps, lstopo rendering.
* :mod:`repro.core` — **the paper's memory-attributes API** (hwloc memattrs).
* :mod:`repro.sim` — analytic memory-performance simulator.
* :mod:`repro.bench` — STREAM / lat_mem_rd / multichase feeding attributes.
* :mod:`repro.alloc` — **the heterogeneous allocator** ``mem_alloc(..., attr)``.
* :mod:`repro.profiler` — VTune-style Memory Access analysis.
* :mod:`repro.sensitivity` — benchmarking / profiling / static methods.
* :mod:`repro.apps` — Graph500, STREAM and pointer-chase workloads.
* :mod:`repro.omp` — OpenMP memory spaces and allocators on top.
* :mod:`repro.serve` — multi-tenant placement daemon (``repro-serve``).

``import repro`` loads none of them: each subpackage (and each name
re-exported here, such as ``repro.SimEngine``) is imported on first
access, so an entry point pays only for the layers it uses.

Quickstart::

    from repro import quick_setup
    setup = quick_setup("knl-snc4-flat")
    buf = setup.allocator.mem_alloc(1 << 30, "Bandwidth", initiator=0)
    print(buf.describe())          # lands on the local MCDRAM
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .alloc import HeterogeneousAllocator
    from .core import MemAttrs
    from .hw import MachineSpec
    from .kernel import KernelMemoryManager
    from .sim import SimEngine
    from .topology import Topology

__version__ = "1.0.0"

__all__ = [
    "alloc",
    "apps",
    "baselines",
    "bench",
    "core",
    "errors",
    "firmware",
    "hw",
    "kernel",
    "obs",
    "omp",
    "profiler",
    "resilience",
    "sensitivity",
    "serve",
    "sim",
    "topology",
    "units",
    "ReproSetup",
    "quick_setup",
    "__version__",
]

#: Resolved on first access (PEP 562), so ``import repro`` loads no
#: subpackage: each name of :data:`_SUBMODULES` imports that module, and
#: each re-exported name of :data:`_EXPORTS` the subpackage defining it.
_SUBMODULES = frozenset(
    {
        "alloc", "apps", "baselines", "bench", "core", "errors", "firmware",
        "hw", "kernel", "obs", "omp", "profiler", "resilience", "sensitivity",
        "serve", "sim", "topology", "units",
    }
)
_EXPORTS = {
    "HeterogeneousAllocator": "alloc",
    "characterize_machine": "bench",
    "feed_attributes": "bench",
    "MemAttrs": "core",
    "native_discovery": "core",
    "MachineSpec": "hw",
    "get_platform": "hw",
    "KernelMemoryManager": "kernel",
    "SimEngine": "sim",
    "Topology": "topology",
    "build_topology": "topology",
}


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class ReproSetup:
    """Everything wired together for one machine."""

    machine: MachineSpec
    topology: Topology
    engine: SimEngine
    memattrs: MemAttrs
    kernel: KernelMemoryManager
    allocator: HeterogeneousAllocator


def quick_setup(
    platform: str = "xeon-cascadelake-1lm",
    *,
    benchmark: bool | None = None,
    **platform_kwargs,
) -> ReproSetup:
    """Build the full stack for a preset platform.

    Attributes come from native HMAT discovery when the platform firmware
    provides one, else from the benchmark sweep; pass ``benchmark=True``
    to force benchmarking (it also measures remote accesses).
    """
    from .alloc import HeterogeneousAllocator
    from .core import MemAttrs, native_discovery
    from .hw import get_platform
    from .kernel import KernelMemoryManager
    from .sim import SimEngine
    from .topology import build_topology

    machine = get_platform(platform, **platform_kwargs)
    topo = build_topology(machine)
    engine = SimEngine(machine, topo)
    if benchmark is None:
        benchmark = not machine.has_hmat
    if benchmark:
        from .bench import characterize_machine, feed_attributes

        memattrs = MemAttrs(topo)
        feed_attributes(memattrs, characterize_machine(engine))
    else:
        memattrs = native_discovery(topo)
    km = KernelMemoryManager(machine)
    allocator = HeterogeneousAllocator(memattrs, km)
    return ReproSetup(
        machine=machine,
        topology=topo,
        engine=engine,
        memattrs=memattrs,
        kernel=km,
        allocator=allocator,
    )
