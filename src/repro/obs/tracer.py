"""Tracing spans with an injectable clock.

:class:`Tracer` records a tree of wall-time spans::

    with tracer.span("mem_alloc", buffer="parent", attribute="Latency"):
        with tracer.span("rank_for"):
            ...

Spans are context managers, so exits always match the innermost open
span — including when the body raises (``__exit__`` closes the span and
marks it ``status="error"`` before the exception propagates).  The
property suite asserts the resulting intervals are well-nested.

The clock is injectable (any zero-argument callable returning seconds)
so tests get deterministic timestamps; the default is
:func:`time.perf_counter`.

Finished spans export as JSONL (one JSON object per line, our archival
format) or as Chrome ``trace_event`` JSON (complete ``"ph": "X"`` events,
loadable in ``chrome://tracing`` / Perfetto) — see :mod:`repro.obs.export`
helpers re-exported here.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "Tracer", "spans_to_chrome", "to_jsonl", "to_chrome_trace"]


@dataclass
class SpanRecord:
    """One (possibly still open) span."""

    span_id: int
    name: str
    start: float
    parent_id: int | None
    depth: int
    fields: dict = field(default_factory=dict)
    end: float | None = None
    status: str = "ok"            # "ok" | "error"

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} still open")
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "status": self.status,
            "fields": self.fields,
        }


class _SpanContext:
    """Context manager binding one :class:`SpanRecord` to a tracer stack."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: Tracer, record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._record, error=exc_type is not None)
        return False  # never swallow


class Tracer:
    """Records nested spans; single stack per tracer.

    A tracer is cheap to construct, and :func:`repro.obs.reset` swaps in
    a fresh one — spans therefore never leak between tests.

    ``ring_capacity=C`` swaps the unbounded span list for a preallocated
    ring (a ``deque(maxlen=C)``): appending past capacity evicts the
    oldest span — whole records, never partial ones, so the retained
    spans remain pairwise well-nested — and ``dropped_spans`` counts
    evictions.
    """

    def __init__(self, clock=None, *, ring_capacity: int | None = None) -> None:
        if ring_capacity is not None and ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        self.clock = clock if clock is not None else time.perf_counter
        self.ring_capacity = ring_capacity
        self.records: list[SpanRecord] | deque[SpanRecord] = (
            [] if ring_capacity is None else deque(maxlen=ring_capacity)
        )
        self.dropped_spans = 0
        self._stack: list[SpanRecord] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def span(self, name: str, **fields):
        """Open a span; use as a context manager."""
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            span_id=self._next_id,
            name=name,
            start=self.clock(),
            parent_id=None if parent is None else parent.span_id,
            depth=len(self._stack),
            fields=dict(fields),
        )
        self._next_id += 1
        records = self.records
        if self.ring_capacity is not None and len(records) == self.ring_capacity:
            self.dropped_spans += 1
        records.append(record)
        self._stack.append(record)
        return _SpanContext(self, record)

    def annotate(self, **fields) -> None:
        """Attach fields to the innermost open span (no-op at top level)."""
        if self._stack:
            self._stack[-1].fields.update(fields)

    def _close(self, record: SpanRecord, *, error: bool) -> None:
        # Exits must match the innermost open span.  A mismatch means a
        # caller closed spans out of order (impossible through the
        # context-manager API); close intervening spans as errors so the
        # trace stays well-nested rather than corrupt.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
            top.end = self.clock()
            top.status = "error"
        record.end = self.clock()
        if error:
            record.status = "error"

    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> tuple[SpanRecord, ...]:
        return tuple(self._stack)

    def finished(self) -> tuple[SpanRecord, ...]:
        return tuple(r for r in self.records if r.end is not None)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def to_jsonl(tracer: Tracer) -> str:
    """One JSON object per finished span, in start order."""
    return "\n".join(
        json.dumps(r.as_dict(), sort_keys=True) for r in tracer.finished()
    ) + ("\n" if tracer.finished() else "")


def spans_to_chrome(spans: list[dict], *, pid: int = 1, tid: int = 1) -> dict:
    """Chrome ``trace_event`` document (complete events, microseconds)
    from span dicts in the :meth:`SpanRecord.as_dict` layout — archived
    JSONL lines or a live tracer's spans; open spans are skipped."""
    events = []
    for span in spans:
        if span.get("end") is None:
            continue
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    **span.get("fields", {}),
                    "status": span.get("status", "ok"),
                    "depth": span.get("depth", 0),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def to_chrome_trace(tracer: Tracer, *, pid: int = 1, tid: int = 1) -> dict:
    """Chrome ``trace_event`` document of a tracer's finished spans."""
    return spans_to_chrome(
        [r.as_dict() for r in tracer.finished()], pid=pid, tid=tid
    )
