"""repro.obs — runtime observability: tracing spans + metrics registry.

The paper's workflow (profile → attribute → place) depends on *seeing*
what the memory subsystem is doing.  This package is the runtime
telemetry layer: a :class:`~repro.obs.tracer.Tracer` of nested wall-time
spans and a :class:`~repro.obs.metrics.MetricsRegistry` of counters,
gauges and histograms, threaded through the allocator, the attribute
store, the pricing engine, the placement search, the kernel layer, and
the online guidance loop (``pebs.*`` / ``guidance.*`` counters).

**The cardinal rule: observation never perturbs the system.**  Every
instrumentation site is behind the process-global :data:`OBS` guard::

    from ..obs import OBS
    ...
    if OBS.enabled:                      # single attribute check when off
        OBS.metrics.counter("alloc.placed", node=n).inc()

With ``OBS.enabled`` false (the default) the only cost on any hot path is
that one attribute check; with it true, telemetry is recorded but the
decisions taken — placements, rankings, search optima — are bit-identical
(``tests/obs/test_differential.py`` proves this over hundreds of seeded
random machines).

Module-level helpers:

* :func:`enable` / :func:`disable` — flip the global guard;
* :func:`reset` — fresh tracer + registry (and disabled), for isolation;
* :func:`enabled` — the current state.

Exporters: JSONL (:func:`~repro.obs.tracer.to_jsonl`), Chrome
``trace_event`` (:func:`~repro.obs.tracer.to_chrome_trace`; view in
``chrome://tracing``), Prometheus text
(:func:`~repro.obs.metrics.render_metrics`).  The ``repro-trace`` CLI
converts and summarizes archived traces; ``repro-experiments`` and
``repro-search`` grow ``--trace``/``--metrics`` flags that write them.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_metrics,
)
from .tracer import SpanRecord, Tracer, to_chrome_trace, to_jsonl

__all__ = [
    "OBS",
    "ObsState",
    "enable",
    "disable",
    "enabled",
    "reset",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_metrics",
    "DEFAULT_BUCKETS",
    "SpanRecord",
    "Tracer",
    "to_jsonl",
    "to_chrome_trace",
]


class ObsState:
    """The process-global observability switchboard.

    ``enabled`` is read directly on hot paths — keep it a plain
    attribute.  ``tracer`` and ``metrics`` are replaced wholesale by
    :meth:`reset`, so holding the :data:`OBS` object (not its members)
    is the supported pattern for instrumented code.

    ``sample_every``/``hot_countdown`` implement the hot-path sampling
    gate: instrumented hot sites (``mem_alloc``) record telemetry only on
    every ``sample_every``-th request and run untraced in between —
    ``hot_countdown`` is the per-site skip budget they decrement inline.
    The default of 1 records everything (the historical behavior).
    """

    __slots__ = ("enabled", "tracer", "metrics", "sample_every", "hot_countdown")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.sample_every = 1
        self.hot_countdown = 0

    def reset(self, *, clock=None) -> None:
        """Fresh tracer + registry, guard off (test isolation)."""
        self.enabled = False
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.sample_every = 1
        self.hot_countdown = 0


#: The one switchboard every instrumented module imports.
OBS = ObsState()


def enable(
    *,
    clock=None,
    sample_every: int = 1,
    ring_capacity: int | None = None,
) -> ObsState:
    """Turn telemetry on (optionally with a deterministic clock).

    ``sample_every=N`` records only every N-th hot-path request (spans
    *and* per-request metrics; cold paths stay fully recorded) — the
    always-on production mode.  ``ring_capacity=C`` bounds the span store
    to the most recent C spans (oldest evicted, counted in
    ``tracer.dropped_spans``) so long runs cannot grow memory without
    bound.  Defaults preserve the record-everything behavior.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if clock is not None or ring_capacity is not None:
        OBS.tracer = Tracer(clock=clock, ring_capacity=ring_capacity)
    OBS.sample_every = sample_every
    OBS.hot_countdown = 0
    OBS.enabled = True
    return OBS


def disable() -> ObsState:
    """Turn telemetry off (recorded data is kept until :func:`reset`)."""
    OBS.enabled = False
    return OBS


def enabled() -> bool:
    return OBS.enabled


def reset(*, clock=None) -> ObsState:
    """Disable and drop all recorded spans and metrics."""
    OBS.reset(clock=clock)
    return OBS
