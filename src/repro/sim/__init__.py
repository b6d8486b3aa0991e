"""Analytic memory-performance simulator.

Prices application *phases* — sets of buffer accesses with given patterns —
against a machine model and a buffer placement, producing execution times
plus the traffic/stall breakdowns the profiler consumes.

The model is roofline-style with three limiters per phase:

* **bandwidth**: per-node, per-direction traffic divided by the node's
  effective bandwidth (thread-count scaling, random-access derating,
  NVDIMM write-buffer collapse, memory-side cache filtering);
* **latency**: serialized miss chains (pointer chasing, dependent random
  accesses) paying the node's working-set-aware loaded latency divided by
  the achievable memory-level parallelism;
* **cpu**: non-memory work at the machine's per-core rate.

The latency and cpu terms serialize within a thread; the phase time is
``max(bandwidth_time, latency_time + cpu_time)``.
"""

from .access import BufferAccess, KernelPhase, PatternKind, Placement
from .caches import CacheModel, cache_filter
from .contention import ConcurrentJob, ConcurrentOutcome, price_concurrent
from .engine import (
    BatchPhaseTiming,
    CompiledPhase,
    PhaseTiming,
    PreparedPhase,
    RunTiming,
    SimEngine,
)
from .memside import MemsideEffect, memside_filter
from .trace import classify_trace, synth_trace

__all__ = [
    "PatternKind",
    "BufferAccess",
    "KernelPhase",
    "Placement",
    "CacheModel",
    "cache_filter",
    "memside_filter",
    "MemsideEffect",
    "SimEngine",
    "PhaseTiming",
    "PreparedPhase",
    "CompiledPhase",
    "BatchPhaseTiming",
    "RunTiming",
    "ConcurrentJob",
    "ConcurrentOutcome",
    "price_concurrent",
    "synth_trace",
    "classify_trace",
]
