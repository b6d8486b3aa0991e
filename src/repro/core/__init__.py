"""Memory performance attributes — the paper's primary contribution.

This package is the Python equivalent of hwloc's ``hwloc/memattrs.h``
(released in hwloc 2.3; paper §IV).  Memory **targets** (NUMA nodes) are
characterized by **attributes** — Capacity, Locality, Bandwidth, Latency,
their Read/Write variants, and user-registered custom metrics — whose
values may depend on the **initiator** (a cpuset or topology object)
performing the access.

The main entry point is :class:`MemAttrs`, which owns the attribute
registry and the per-(target, initiator) value store for one topology and
offers the queries of the paper's Fig. 4:

* :meth:`MemAttrs.get_local_numanode_objs`
* :meth:`MemAttrs.get_best_target`
* :meth:`MemAttrs.get_best_initiator`
* :meth:`MemAttrs.get_value` / :meth:`MemAttrs.set_value`

Values arrive through two discovery paths (§IV-A): natively from the
platform firmware via :func:`discover_from_sysfs`, or experimentally via
:func:`repro.bench.runner.feed_attributes`.
"""

from .attrs import (
    MemAttrFlag,
    MemAttribute,
    CAPACITY,
    LOCALITY,
    BANDWIDTH,
    LATENCY,
    READ_BANDWIDTH,
    WRITE_BANDWIDTH,
    READ_LATENCY,
    WRITE_LATENCY,
    BUILTIN_ATTRIBUTES,
)
from .api import MemAttrs, consistent_read
from .discovery import discover_from_sysfs, native_discovery
from .ranking import rank_targets
from .custom import register_derived_attribute, stream_triad_attribute
from .dynamic import (
    refresh_available_capacity,
    register_availability_attribute,
    register_coherency_attribute,
    register_endurance_attribute,
    register_memside_cache_attribute,
    register_persistence_attribute,
    register_power_attribute,
)
from .report import render_memattrs

__all__ = [
    "MemAttrFlag",
    "MemAttribute",
    "CAPACITY",
    "LOCALITY",
    "BANDWIDTH",
    "LATENCY",
    "READ_BANDWIDTH",
    "WRITE_BANDWIDTH",
    "READ_LATENCY",
    "WRITE_LATENCY",
    "BUILTIN_ATTRIBUTES",
    "MemAttrs",
    "discover_from_sysfs",
    "native_discovery",
    "consistent_read",
    "rank_targets",
    "register_derived_attribute",
    "stream_triad_attribute",
    "refresh_available_capacity",
    "register_power_attribute",
    "register_endurance_attribute",
    "register_memside_cache_attribute",
    "register_coherency_attribute",
    "register_availability_attribute",
    "register_persistence_attribute",
    "render_memattrs",
]
