"""Determining buffer sensitivity — the paper's §V survey, implemented.

Three methods produce *allocation criteria* (attribute names) that feed
the heterogeneous allocator, closing the loop of Fig. 6:

* :mod:`benchmarking` (§V-A) — bind the whole process to each memory kind,
  compare runs, and correlate the outcome with attribute rankings; also
  applies the §VI-A gain threshold ("the gain is too weak to justify
  consuming the low HBM capacity").
* :mod:`profiling` (§V-B) — read the profiler's summary flags and
  per-object ranking to classify individual buffers.
* :mod:`staticanalysis` (§V-C) — classify access descriptors / synthetic
  traces by pattern, the hint a compiler could insert.
* :mod:`search` — the combinatorial per-buffer placement exploration §V-A
  warns about (2^N), with capacity pruning; used as the oracle in
  ablation benchmarks.
"""

from .benchmarking import BindingOutcome, whole_process_binding_sweep, infer_criterion
from .profiling import classify_buffers, recommend_requests
from .staticanalysis import classify_access, classify_kernel, attribute_for_pattern
from .search import (
    PlacementCandidate,
    SearchResult,
    SearchStats,
    search_placements,
)

__all__ = [
    "BindingOutcome",
    "whole_process_binding_sweep",
    "infer_criterion",
    "classify_buffers",
    "recommend_requests",
    "classify_access",
    "classify_kernel",
    "attribute_for_pattern",
    "PlacementCandidate",
    "SearchResult",
    "SearchStats",
    "search_placements",
]
