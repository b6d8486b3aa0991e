"""Spans recorded from outside the program, around each layer's public calls.

:class:`Recorder` wraps the public functions and methods of the layers
named in :data:`TARGETS` by introspection.  A target that a later change
deletes or renames is skipped, so its layer records zero calls instead
of breaking the trace.  Each call becomes one span with name, start,
end, parent and, where the call carries a request, the request ids.
Spans stay in memory until :meth:`Recorder.dump`.

Synchronous calls nest on a stack.  Coroutine calls nest through a
``contextvars`` parent, because asyncio interleaves tasks on one
thread.  A span's self time is its duration minus the part of it that
its children cover.  Synchronous spans never overlap one another on a
single thread, so the sum of their self times is the time spent inside
the wrapped layers.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

#: (module, attribute, layer).  A class attribute wraps the constructor
#: and every public method the class defines; ``Class.method`` wraps one
#: method; anything else is a module-level function, patched where its
#: callers look it up.
TARGETS = (
    ("repro.serve.server", "decode_request", "serve.protocol"),
    ("repro.serve.server", "encode_response", "serve.protocol"),
    ("repro.serve.server", "ReproServeServer.submit", "serve.server"),
    ("repro.serve.server", "ServeCore.apply_run", "serve.server"),
    ("repro.resilience.resilient", "ResilientAllocator", "resilience.resilient"),
    ("repro.alloc.allocator", "HeterogeneousAllocator", "alloc.allocator"),
    ("repro.kernel.pagealloc", "KernelMemoryManager", "kernel.pagealloc"),
    ("repro.sim.engine", "SimEngine", "sim.engine"),
    ("repro.sensitivity.search", "search_placements", "sensitivity.search"),
    ("repro.profiler.pebs", "PebsSampler.sample", "profiler.pebs"),
    ("repro.kernel.autotier", "AutoTierDaemon", "kernel.autotier"),
    ("repro.profiler.guidance", "GuidanceLoop.run_interval", "profiler.guidance"),
)

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, ASYNC, IDS, COUNT = range(7)


def _request_ids(args, result) -> tuple[int, ...] | None:
    """Ids of the requests (or responses) a serve-layer call carries."""
    for value in (*args, result):
        if hasattr(value, "verb") and hasattr(value, "id"):
            return (value.id,)
        if isinstance(value, list) and value and hasattr(value[0], "verb"):
            return tuple(item.id for item in value)
    return None


def _page_counts(result):
    """``(pages, split allocations, allocations)`` of a kernel call."""
    if hasattr(result, "pages_by_node"):
        allocs = (result,)
    elif isinstance(result, tuple) and result and hasattr(result[0], "pages_by_node"):
        allocs = result
    else:
        return None
    return (
        sum(a.total_pages for a in allocs),
        sum(1 for a in allocs if a.is_split),
        len(allocs),
    )


def _counter(name: str):
    """How to count the work of one call, for calls whose work varies."""
    if name.endswith(("HeterogeneousAllocator.mem_alloc_many", "ServeCore.apply_run")):
        return len
    if name.endswith("SimEngine.price_placements_batch"):
        return lambda result: result.rows
    if name.endswith("SimEngine.price_accesses_alone_batch"):
        return lambda result: result[0].size  # (latency, bandwidth) tables
    if name.startswith("kernel.pagealloc:"):
        return _page_counts
    return None


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_span", default=-1
        )
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap_sync(self, fn, name: str, with_ids: bool = False):
        index = self._name_index(name)
        spans = self.spans
        stack = self._stack
        current = self._current
        clock = time.perf_counter
        counter = _counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else current.get()
            span = [index, clock(), 0.0, parent, False, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if with_ids:
                span[IDS] = _request_ids(args, result)
            if counter is not None:
                span[COUNT] = counter(result)
            return result

        return wrapper

    def wrap_async(self, fn, name: str, with_ids: bool = False):
        index = self._name_index(name)
        spans = self.spans
        current = self._current
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = [index, clock(), 0.0, current.get(), True, None, None]
            spans.append(span)
            token = current.set(len(spans) - 1)
            try:
                return await fn(*args, **kwargs)
            finally:
                current.reset(token)
                span[END] = clock()
                if with_ids:
                    span[IDS] = _request_ids(args, None)

        return wrapper

    def _wrap(self, fn, name: str, layer: str):
        with_ids = layer.startswith("serve.")
        if inspect.iscoroutinefunction(fn):
            return self.wrap_async(fn, name, with_ids)
        return self.wrap_sync(fn, name, with_ids)

    # -- installation ---------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; missing ones record nothing."""
        for module_name, attr, layer in targets:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None)
            if owner is None:
                continue
            if method:
                self._patch_method(owner, method, layer)
            elif inspect.isclass(owner):
                for name, value in list(vars(owner).items()):
                    public = name == "__init__" or not name.startswith("_")
                    if public and inspect.isfunction(value):
                        self._patch_method(owner, name, layer)
            elif callable(owner):
                wrapped = self._wrap(owner, f"{layer}:{owner_name}", layer)
                self._patches.append((module, owner_name, owner))
                setattr(module, owner_name, wrapped)

    def _patch_method(self, cls, method: str, layer: str) -> None:
        original = vars(cls).get(method)
        if not inspect.isfunction(original):
            return
        wrapped = self._wrap(original, f"{layer}:{cls.__name__}.{method}", layer)
        self._patches.append((cls, method, original))
        setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path: str) -> None:
        """Raw spans as JSON (the input of :func:`summarize`)."""
        with open(path, "w") as out:
            json.dump({"names": self.names, "spans": self.spans}, out)


def write_chrome_trace(names, spans, path: str) -> None:
    """Chrome ``trace_event`` JSON: sync spans as complete events, async
    spans as begin/end pairs so overlapping requests stay readable."""
    t0 = min((s[START] for s in spans), default=0.0)
    events = []
    for i, s in enumerate(spans):
        name = names[s[NAME]]
        layer = name.partition(":")[0]
        args = {"parent": s[PARENT]}
        if s[IDS] is not None:
            args["ids"] = list(s[IDS])
        ts = (s[START] - t0) * 1e6
        if s[ASYNC]:
            base = {"name": name, "cat": layer, "id": i, "pid": 1, "tid": 2}
            events.append({**base, "ph": "b", "ts": ts, "args": args})
            events.append({**base, "ph": "e", "ts": (s[END] - t0) * 1e6})
        else:
            events.append(
                {
                    "name": name, "cat": layer, "ph": "X", "ts": ts,
                    "dur": (s[END] - s[START]) * 1e6, "pid": 1, "tid": 1,
                    "args": args,
                }
            )
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(names, spans, window: tuple[float, float] | None = None) -> dict:
    """Per-name and per-layer call counts, self and total times.

    Spans are clipped to ``window`` (default: first start to last end).
    Returns ``{"by_name": {name: {calls, self_s, total_s, counts}},
    "by_layer": {...}, "wall_s", "sync_self_s"}``; ``sync_self_s`` is the
    self time of every synchronous span.
    """
    if window is None:
        window = (
            min((s[START] for s in spans), default=0.0),
            max((s[END] for s in spans), default=0.0),
        )
    w0, w1 = window
    clipped: dict[int, tuple[float, float]] = {}
    for i, s in enumerate(spans):
        lo, hi = max(s[START], w0), min(s[END], w1)
        if hi > lo:
            clipped[i] = (lo, hi)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, (lo, hi) in clipped.items():
        parent = spans[i][PARENT]
        if parent >= 0 and parent in clipped:
            plo, phi = clipped[parent]
            lo, hi = max(lo, plo), min(hi, phi)
            if hi > lo:
                children[parent].append((lo, hi))
    by_name: dict[str, dict] = {}
    sync_self = 0.0
    for i, (lo, hi) in clipped.items():
        s = spans[i]
        own = (hi - lo) - _covered(children.get(i, []))
        entry = by_name.setdefault(
            names[s[NAME]], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": []}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += hi - lo
        if s[COUNT] is not None:
            entry["counts"].append(s[COUNT])
        if not s[ASYNC]:
            sync_self += own
    by_layer: dict[str, dict] = {}
    for name, entry in by_name.items():
        layer = by_layer.setdefault(
            name.partition(":")[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for key in ("calls", "self_s", "total_s"):
            layer[key] += entry[key]
    return {
        "by_name": by_name,
        "by_layer": by_layer,
        "wall_s": w1 - w0,
        "sync_self_s": sync_self,
    }


def queue_waits(names, spans, submit: str, commit: str) -> dict[int, float]:
    """Per request id: ``submit`` entry until the ``commit`` span that
    carries the id starts (seconds)."""
    submitted: dict[int, float] = {}
    waits: dict[int, float] = {}
    for s in spans:
        name = names[s[NAME]]
        if s[IDS] is None:
            continue
        if name.endswith(submit):
            submitted[s[IDS][0]] = s[START]
        elif name.endswith(commit):
            for rid in s[IDS]:
                if rid in submitted and rid not in waits:
                    waits[rid] = s[START] - submitted[rid]
    return waits
