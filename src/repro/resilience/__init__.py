"""Fault injection and degraded-mode resilience (:mod:`repro.resilience`).

The paper's API assumes a static machine: attributes are measured once,
placement decided once.  Real HPC nodes lose NUMA nodes to failures and
maintenance, lose capacity to co-tenants, and serve stale attribute data.
This package makes the stack survivable under all of that — and provable:

* :mod:`~repro.resilience.faults` — seeded, deterministic
  :class:`FaultPlan` schedules and the :class:`FaultClock` that replays
  them against a live kernel + attribute registry;
* :mod:`~repro.resilience.events` — the typed event log backing the
  "nothing degrades silently" contract;
* :mod:`~repro.resilience.resilient` — :class:`ResilientAllocator`,
  a drop-in ``mem_alloc`` front end with degradation events and
  retry-with-backoff on transient migration failures;
* :mod:`~repro.resilience.chaos` — the differential chaos harness behind
  the ``repro-chaos`` CLI and the seeded test suite.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from .events import EventKind, ResilienceEvent, ResilienceLog
from .resilient import ResilientAllocator

if TYPE_CHECKING:
    from .chaos import (
        WORKLOADS,
        ChaosOutcome,
        ChaosRunResult,
        check_invariants,
        run_chaos,
    )
    from .faults import (
        AttrDegrade,
        CapacityLoss,
        CapacityRestore,
        Fault,
        FaultClock,
        FaultPlan,
        MigrationFlaky,
        NodeOffline,
        NodeOnline,
    )

__all__ = [
    "AttrDegrade",
    "CapacityLoss",
    "CapacityRestore",
    "ChaosOutcome",
    "ChaosRunResult",
    "EventKind",
    "Fault",
    "FaultClock",
    "FaultPlan",
    "MigrationFlaky",
    "NodeOffline",
    "NodeOnline",
    "ResilienceEvent",
    "ResilienceLog",
    "ResilientAllocator",
    "WORKLOADS",
    "check_invariants",
    "run_chaos",
]

#: The chaos harness and the fault schedules are not on the serve
#: daemon's path: these names import their module on first access.
_LAZY = {
    "WORKLOADS": "chaos",
    "ChaosOutcome": "chaos",
    "ChaosRunResult": "chaos",
    "check_invariants": "chaos",
    "run_chaos": "chaos",
    "AttrDegrade": "faults",
    "CapacityLoss": "faults",
    "CapacityRestore": "faults",
    "Fault": "faults",
    "FaultClock": "faults",
    "FaultPlan": "faults",
    "MigrationFlaky": "faults",
    "NodeOffline": "faults",
    "NodeOnline": "faults",
}


def __getattr__(name: str) -> Any:
    if name in ("chaos", "faults"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
