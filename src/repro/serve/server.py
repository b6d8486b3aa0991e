"""`repro-serve`: the multi-tenant allocation daemon.

Two layers, deliberately separable:

* :class:`ServeCore` — a **synchronous** state machine owning the
  allocator stack (kernel + attributes + allocation plans), tenant sessions,
  the quota ledger, and the typed event log.  Every kernel mutation goes
  through it; it has no asyncio in it, so the serial replay used by the
  differential suite *is* the production code path, not a lookalike.
* :class:`ReproServeServer` — the asyncio transport: admission control
  with a bounded pending window, an optional :class:`~.batcher.Sequencer`
  for schedule-order commits, and one ``loop.call_soon`` commit per
  wake-up that drains concurrently-arrived requests and applies each in
  order.  :class:`StreamServer` serves NDJSON connections into it, one
  :class:`asyncio.Protocol` per connection.

The determinism contract (pinned by ``tests/serve/test_differential.py``):
with sequenced commits, any arrival interleaving of a request schedule
produces final kernel page maps, free-page counters, responses, and
typed-event logs bit-identical to the same schedule applied serially.
The argument has two legs — the single writer applies mutations in
``seq`` order, and a commit applies its requests one by one through the
same ``apply`` the serial replay uses, so commit *boundaries* (which
depend on arrival timing) cannot change outcomes.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
from collections.abc import Callable
from typing import Any, cast

from ..alloc.allocator import Buffer, HeterogeneousAllocator
from ..core.api import consistent_read
from ..errors import ProtocolError, ReproError, ServeError
from ..obs import OBS
from ..resilience.events import EventKind, ResilienceLog
from ..resilience.resilient import ResilientAllocator
from .batcher import Sequencer
from .protocol import (
    VERBS,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from .session import QuotaLedger, TenantSession

__all__ = [
    "ReproServeServer",
    "ServeClient",
    "ServeCore",
    "StreamServeClient",
    "StreamServer",
]

#: Sentinel distinguishing "field absent" from an explicit ``None``.
_UNSET = object()


def _ok(request: Request, result: dict[str, Any]) -> Response:
    return Response(
        id=request.id,
        verb=request.verb,
        tenant=request.tenant,
        ok=True,
        seq=request.seq,
        result=result,
    )


def _err(request: Request, code: str, message: str) -> Response:
    return Response(
        id=request.id,
        verb=request.verb,
        tenant=request.tenant,
        ok=False,
        seq=request.seq,
        error=code,
        message=message,
    )


class ServeCore:
    """Synchronous service state machine (sessions, quotas, kernel ops).

    ``apply`` handles one request; ``apply_run`` handles an ordered run
    (one commit) by applying each request in turn.
    """

    def __init__(
        self,
        allocator: HeterogeneousAllocator,
        *,
        log: ResilienceLog | None = None,
        default_quota_bytes: int | None = None,
    ) -> None:
        self.allocator = allocator
        self.kernel = allocator.kernel
        self.memattrs = allocator.memattrs
        self.log = log if log is not None else ResilienceLog()
        self.rallocator = ResilientAllocator(allocator, log=self.log)
        self.ledger = QuotaLedger()
        self.sessions: dict[str, TenantSession] = {}
        self.default_quota_bytes = default_quota_bytes
        self.verb_counts: dict[str, int] = {}
        self.admission_rejections = 0
        self.quota_rejections = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def pages_for(self, size_bytes: int) -> int:
        """Pages an allocation of ``size_bytes`` will be charged."""
        return -(-int(size_bytes) // self.kernel.page_size)

    def _count(self, verb: str) -> None:
        self.verb_counts[verb] = self.verb_counts.get(verb, 0) + 1
        if OBS.enabled:
            OBS.metrics.counter("serve.requests", verb=verb).inc()

    def reject_admission(self, request: Request, reason: str) -> Response:
        """Typed queue-full rejection: an event, a counter, zero state."""
        self.admission_rejections += 1
        self.log.record(
            EventKind.ADMISSION_REJECTED,
            f"{request.tenant}/{request.verb}",
            reason,
        )
        if OBS.enabled:
            OBS.metrics.counter("serve.rejections", kind="admission").inc()
        return _err(request, "admission-rejected", reason)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def apply(self, request: Request) -> Response:
        """Apply one request: count its verb, then dispatch it."""
        self._count(request.verb)
        return self._dispatch(request)

    def apply_run(self, requests: list[Request]) -> list[Response]:
        """Apply an ordered run, each request exactly as ``apply`` would.

        This is the commit stage's entry point: the run is whatever was
        concurrently pending when the writer woke up, already in commit
        order.
        """
        if not OBS.enabled:
            return [self.apply(request) for request in requests]
        with OBS.tracer.span("serve.commit", requests=len(requests)):
            OBS.metrics.counter("serve.commits").inc()
            OBS.metrics.histogram("serve.commit_size").observe(len(requests))
            return [self.apply(request) for request in requests]

    # ------------------------------------------------------------------
    # verb dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, request: Request) -> Response:
        if request.verb not in VERBS:
            return _err(request, "unknown-verb", f"unknown verb {request.verb!r}")
        if request.verb == "open":
            return self._open(request)
        if request.verb == "stats":
            return self._stats(request)
        if request.tenant not in self.sessions:
            return _err(
                request, "no-session", f"tenant {request.tenant!r} has no session"
            )
        handler = {
            "close": self._close,
            "alloc": self._alloc,
            "alloc_many": self._alloc_many,
            "free": self._free,
            "query": self._query,
            "migrate": self._migrate,
        }[request.verb]
        return handler(request)

    def _open(self, request: Request) -> Response:
        tenant = request.tenant
        if tenant in self.sessions:
            return _err(
                request, "session-exists", f"tenant {tenant!r} already has a session"
            )
        payload = request.payload
        if "quota_bytes" in payload:
            quota_bytes = payload["quota_bytes"]
        else:
            quota_bytes = self.default_quota_bytes
        if quota_bytes is not None and (
            not isinstance(quota_bytes, int) or quota_bytes < 0
        ):
            return _err(request, "bad-request", "quota_bytes must be >= 0 or null")
        quota_pages = (
            None if quota_bytes is None else quota_bytes // self.kernel.page_size
        )
        reserve_spec = payload.get("reserve", {})
        if not isinstance(reserve_spec, dict):
            return _err(request, "bad-request", "reserve must be {node: pages}")
        holds: dict[int, int] = {}
        try:
            for node_key in sorted(reserve_spec, key=str):
                node = int(node_key)
                pages = reserve_spec[node_key]
                if not isinstance(pages, int) or pages < 0:
                    raise ServeError("reserve pages must be >= 0")
                taken = self.kernel.cotenant_reserve(node, pages)
                if taken:
                    holds[node] = taken
        except (ReproError, ValueError) as err:
            # A rejected open leaves zero state: hand back partial holds.
            for node, taken in holds.items():
                self.kernel.cotenant_release(node, taken)
            return _err(request, "bad-request", f"reserve failed: {err}")
        self.ledger.open(tenant, quota_pages)
        self.sessions[tenant] = TenantSession(
            tenant=tenant,
            quota_pages=quota_pages,
            reserve_holds=holds,
            opened_by=request,
        )
        if OBS.enabled:
            OBS.metrics.counter("serve.sessions_opened").inc()
        return _ok(
            request,
            {
                "quota_pages": quota_pages,
                "reserved": {str(n): p for n, p in sorted(holds.items())},
            },
        )

    def _close(self, request: Request) -> Response:
        session = self.sessions[request.tenant]
        freed = 0
        for handle in list(session.buffers):
            buffer = session.buffers.pop(handle)
            self.rallocator.free(buffer)
            self.ledger.release(request.tenant, self.pages_for(buffer.size))
            freed += 1
        released: dict[str, int] = {}
        for node, pages in sorted(session.reserve_holds.items()):
            released[str(node)] = self.kernel.cotenant_release(node, pages)
        self.ledger.close(request.tenant)
        del self.sessions[request.tenant]
        if OBS.enabled:
            OBS.metrics.counter("serve.sessions_closed").inc()
        return _ok(request, {"freed": freed, "released": released})

    def _parse_alloc_payload(
        self, request: Request
    ) -> tuple[str, int, str, int, bool, bool, str] | str:
        """The validated alloc spec, or an error message string."""
        payload = request.payload
        handle = payload.get("handle")
        if not isinstance(handle, str) or not handle:
            return "alloc needs a non-empty string 'handle'"
        size = payload.get("size")
        if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
            return "alloc needs a positive integer 'size'"
        attribute = payload.get("attribute")
        if not isinstance(attribute, str) or not attribute:
            return "alloc needs a string 'attribute'"
        initiator = payload.get("initiator")
        if not isinstance(initiator, int) or isinstance(initiator, bool):
            return "alloc needs an integer 'initiator' PU index"
        allow_partial = payload.get("allow_partial", False)
        allow_fallback = payload.get("allow_fallback", True)
        scope = payload.get("scope", "local")
        if not isinstance(allow_partial, bool) or not isinstance(allow_fallback, bool):
            return "'allow_partial'/'allow_fallback' must be booleans"
        if not isinstance(scope, str):
            return "'scope' must be a string"
        return handle, size, attribute, initiator, allow_partial, allow_fallback, scope

    def _alloc_result(
        self, handle: str, buffer: Buffer, reasons: tuple[str, ...]
    ) -> dict[str, Any]:
        return {
            "handle": handle,
            "nodes": sorted(buffer.nodes),
            "pages": {
                str(n): p
                for n, p in sorted(buffer.allocation.pages_by_node.items())
            },
            "used_attribute": buffer.used_attribute,
            "fallback_rank": buffer.fallback_rank,
            "degraded": bool(reasons),
            "reasons": list(reasons),
        }

    def _alloc(self, request: Request) -> Response:
        spec = self._parse_alloc_payload(request)
        if isinstance(spec, str):
            return _err(request, "bad-request", spec)
        handle, size, attribute, initiator, allow_partial, allow_fallback, scope = spec
        tenant = request.tenant
        session = self.sessions[tenant]
        if handle in session.buffers:
            return _err(
                request,
                "handle-exists",
                f"tenant {tenant!r} already holds handle {handle!r}",
            )
        pages = self.pages_for(size)
        if self.ledger.would_exceed(tenant, pages):
            self.quota_rejections += 1
            remaining = self.ledger.remaining(tenant)
            self.log.record(
                EventKind.QUOTA_EXCEEDED,
                f"{tenant}/{handle}",
                f"{pages} pages requested, {remaining} remaining of quota",
            )
            if OBS.enabled:
                OBS.metrics.counter("serve.rejections", kind="quota").inc()
            return _err(
                request,
                "quota-exceeded",
                f"{pages} pages requested, {remaining} remaining",
            )
        mark = len(self.log)
        try:
            buffer = self.rallocator.mem_alloc(
                size,
                attribute,
                initiator,
                allow_partial=allow_partial,
                allow_fallback=allow_fallback,
                scope=scope,
                subject=f"{tenant}/{handle}",
            )
        except ReproError as err:
            return _err(
                request, "allocation-failed", f"{type(err).__name__}: {err}"
            )
        self.ledger.charge(tenant, pages)
        session.buffers[handle] = buffer
        session.allocs += 1
        reasons = tuple(
            reason
            for event in self.log.since(mark)
            if event.kind is EventKind.PLACEMENT_DEGRADED
            for reason in event.detail.split("; ")
        )
        return _ok(request, self._alloc_result(handle, buffer, reasons))

    def _alloc_many(self, request: Request) -> Response:
        specs = request.payload.get("requests")
        if not isinstance(specs, list) or not specs:
            return _err(
                request, "bad-request", "alloc_many needs a non-empty 'requests' list"
            )
        children = [
            Request(
                verb="alloc",
                tenant=request.tenant,
                id=request.id,
                seq=request.seq,
                payload=spec if isinstance(spec, dict) else {},
            )
            for spec in specs
        ]
        results = [self.apply(child) for child in children]
        return _ok(
            request,
            {
                "results": [
                    {
                        "ok": r.ok,
                        "error": r.error,
                        "message": r.message,
                        "result": r.result,
                    }
                    for r in results
                ]
            },
        )

    def _free(self, request: Request) -> Response:
        handle = request.payload.get("handle")
        session = self.sessions[request.tenant]
        if not isinstance(handle, str) or handle not in session.buffers:
            return _err(
                request,
                "unknown-handle",
                f"tenant {request.tenant!r} holds no handle {handle!r}",
            )
        buffer = session.buffers.pop(handle)
        self.rallocator.free(buffer)
        self.ledger.release(request.tenant, self.pages_for(buffer.size))
        session.frees += 1
        return _ok(request, {"handle": handle})

    def _query(self, request: Request) -> Response:
        payload = request.payload
        attribute = payload.get("attribute")
        initiator = payload.get("initiator")
        scope = payload.get("scope", "local")
        if not isinstance(attribute, str) or not isinstance(initiator, int):
            return _err(
                request, "bad-request", "query needs 'attribute' and 'initiator'"
            )

        def read() -> tuple[str, list[dict[str, Any]]]:
            used, ranked = self.allocator.rank_for(
                attribute, initiator, scope=scope
            )
            targets = [
                {
                    "node": tv.target.os_index,
                    "value": tv.value,
                    "free_bytes": self.kernel.free_bytes(tv.target.os_index),
                }
                for tv in ranked
            ]
            return used, targets

        try:
            (used, targets), generation = consistent_read(
                read, lambda: self.memattrs.generation
            )
        except ReproError as err:
            return _err(request, "query-failed", f"{type(err).__name__}: {err}")
        return _ok(
            request,
            {
                "used_attribute": used,
                "generation": generation,
                "targets": targets,
            },
        )

    def _migrate(self, request: Request) -> Response:
        handle = request.payload.get("handle")
        attribute = request.payload.get("attribute")
        session = self.sessions[request.tenant]
        if not isinstance(handle, str) or handle not in session.buffers:
            return _err(
                request,
                "unknown-handle",
                f"tenant {request.tenant!r} holds no handle {handle!r}",
            )
        if not isinstance(attribute, str) or not attribute:
            return _err(request, "bad-request", "migrate needs a string 'attribute'")
        buffer = session.buffers[handle]
        mark = len(self.log)
        try:
            report = self.rallocator.migrate(
                buffer, attribute, subject=f"{request.tenant}/{handle}"
            )
        except ReproError as err:
            # Kernel messages cite the auto-minted buffer name, which is
            # process-global and thus run-dependent; report the stable
            # tenant/handle subject instead so replays stay comparable.
            detail = str(err).replace(buffer.name, f"{request.tenant}/{handle}")
            return _err(
                request, "migration-failed", f"{type(err).__name__}: {detail}"
            )
        retries = sum(
            1
            for event in self.log.since(mark)
            if event.kind is EventKind.MIGRATION_RETRY
        )
        return _ok(
            request,
            {
                "handle": handle,
                "moved_pages": report.moved_pages,
                "to_node": report.to_node,
                "nodes": sorted(buffer.nodes),
                "retries": retries,
            },
        )

    def _stats(self, request: Request) -> Response:
        event_counts = {
            kind.value: count for kind, count in sorted(
                self.log.counts().items(), key=lambda kv: kv[0].value
            )
        }
        result: dict[str, Any] = {
            "sessions": {
                tenant: self.sessions[tenant].describe()
                for tenant in sorted(self.sessions)
            },
            "ledger": self.ledger.snapshot(),
            "verbs": dict(sorted(self.verb_counts.items())),
            "rejections": {
                "admission": self.admission_rejections,
                "quota": self.quota_rejections,
            },
            "events": event_counts,
            "kernel": {
                "free_pages": self.kernel.free_pages_array(),
                "cotenant_pages": {
                    str(n): self.kernel.cotenant_pages(n)
                    for n in self.kernel.node_ids()
                },
                "live_allocations": len(self.kernel.live_allocations()),
            },
            # Run-dependent diagnostics: cache counters reflect the whole
            # stack's history (a shared or pre-warmed attribute store), not
            # only this schedule, so differential comparisons strip this key.
            "diagnostics": {
                "cache": self.allocator.cache_stats(),
                "generation": self.memattrs.generation,
            },
        }
        return _ok(request, result)


class ReproServeServer:
    """The asyncio transport around a :class:`ServeCore`.

    ``submit`` is the only way in.  It answers ``seq`` and admission
    errors at once; any other request goes into an inbox, and the first
    entry into an empty inbox schedules one commit with
    ``loop.call_soon``.  That commit drains everything that arrived by
    then and applies it in order, so kernel mutations happen in one
    callback at a time (the single-writer discipline) and no request
    gets a task of its own.  ``sequenced=True`` requires a dense global
    ``seq`` on every request and commits in that order regardless of
    arrival; admission control is then disabled — holding back seq *n*
    while rejecting seq *n+1* would deadlock the schedule (documented in
    ``docs/SERVE.md``).
    """

    #: The loop the server was started on.
    _loop: asyncio.AbstractEventLoop

    def __init__(
        self,
        allocator: HeterogeneousAllocator | None = None,
        *,
        platform: str = "xeon-cascadelake-1lm",
        sequenced: bool = False,
        max_pending: int = 1024,
        default_quota_bytes: int | None = None,
        log: ResilienceLog | None = None,
    ) -> None:
        if allocator is None:
            from repro import quick_setup

            allocator = quick_setup(platform).allocator
        if max_pending <= 0:
            raise ServeError("max_pending must be positive")
        self.core = ServeCore(
            allocator, log=log, default_quota_bytes=default_quota_bytes
        )
        self.sequenced = sequenced
        self.max_pending = max_pending
        #: Requests and admin steps since the last commit, in arrival order.
        self._inbox: list[tuple[Request | Callable[[], Any], asyncio.Future[Any]]] = []
        #: The scheduled commit; set exactly while the inbox is not empty.
        self._wakeup: asyncio.Handle | None = None
        self._sequencer: Sequencer[tuple[Request, asyncio.Future[Response]]] | None = (
            Sequencer() if sequenced else None
        )
        self._pending = 0
        self._running = False
        # Transport-level commit stats (run-dependent; not part of the
        # deterministic stats verb).
        self.commits = 0
        self.committed_requests = 0

    # ------------------------------------------------------------------
    async def __aenter__(self) -> ReproServeServer:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def start(self) -> None:
        if self._running:
            raise ServeError("server already running")
        self._loop = asyncio.get_running_loop()
        self._running = True

    async def stop(self) -> None:
        """Commit what already arrived, then refuse new work."""
        if not self._running:
            return
        self._running = False
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._commit()
        # Anything still held back (a sequenced schedule cut short) gets
        # a typed shutdown response, never a hang.
        if self._sequencer is not None:
            for request, future in self._sequencer.drain():
                self._pending -= 1
                if not future.done():
                    future.set_result(
                        _err(request, "shutting-down", "server stopped")
                    )

    @property
    def pending(self) -> int:
        return self._pending

    def transport_stats(self) -> dict[str, float]:
        """Commit grouping (mean requests per commit wake-up)."""
        return {
            "commits": self.commits,
            "committed_requests": self.committed_requests,
            "mean_commit_size": (
                self.committed_requests / self.commits if self.commits else 0.0
            ),
        }

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> asyncio.Future[Response]:
        """Admit one request; the returned future resolves to its response.

        Unsequenced servers reject (typed, state untouched) when the
        pending window is full — backpressure the client can see.
        """
        if not self._running:
            raise ServeError("server is not running")
        future: asyncio.Future[Response] = self._loop.create_future()
        if self.sequenced and request.seq is None:
            future.set_result(
                _err(request, "bad-request", "sequenced server requires a 'seq'")
            )
        elif not self.sequenced and self._pending >= self.max_pending:
            future.set_result(
                self.core.reject_admission(
                    request, f"queue full ({self._pending} pending)"
                )
            )
        else:
            self._pending += 1
            self._enqueue(request, future)
        return future

    async def run_admin(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` in the commit stage, serialized with commits.

        The chaos harness injects fault-clock ticks this way so faults
        interleave with allocations at commit granularity, exactly like
        the serial reference.
        """
        return await self._admin(fn)

    def _admin(self, fn: Callable[[], Any]) -> asyncio.Future[Any]:
        if not self._running:
            raise ServeError("server is not running")
        future: asyncio.Future[Any] = self._loop.create_future()
        self._enqueue(fn, future)
        return future

    def _enqueue(
        self, item: Request | Callable[[], Any], future: asyncio.Future[Any]
    ) -> None:
        self._inbox.append((item, future))
        if self._wakeup is None:
            self._wakeup = self._loop.call_soon(self._commit)

    # ------------------------------------------------------------------
    def _commit(self) -> None:
        """Drain the inbox: runs of requests, admin steps between them."""
        self._wakeup = None
        inbox, self._inbox = self._inbox, []
        run: list[tuple[Request, asyncio.Future[Response]]] = []
        for item, future in inbox:
            if not isinstance(item, Request):
                self._apply(run)
                run = []
                try:
                    result = item()
                except Exception as err:
                    if not future.done():
                        future.set_exception(err)
                else:
                    if not future.done():
                        future.set_result(result)
            elif self._sequencer is None:
                run.append((item, future))
            else:
                assert item.seq is not None
                try:
                    run.extend(self._sequencer.push(item.seq, (item, future)))
                except ServeError as err:  # a duplicate or stale seq
                    self._pending -= 1
                    if not future.done():
                        future.set_result(_err(item, "bad-request", str(err)))
        self._apply(run)

    def _apply(self, run: list[tuple[Request, asyncio.Future[Response]]]) -> None:
        """One commit: apply ``run`` in order and resolve its futures."""
        if not run:
            return
        self._pending -= len(run)
        try:
            responses = self.core.apply_run([request for request, _ in run])
        except Exception as err:  # pragma: no cover - core bug guard
            for _, future in run:
                if not future.done():
                    future.set_exception(ServeError(f"commit failed: {err}"))
            return
        self.commits += 1
        self.committed_requests += len(run)
        for (_, future), response in zip(run, responses):
            if not future.done():
                future.set_result(response)


class _VerbMethods:
    """Convenience verb wrappers shared by both client flavors."""

    async def request(
        self,
        verb: str,
        payload: dict[str, Any] | None = None,
        *,
        seq: int | None = None,
    ) -> Response:  # pragma: no cover - overridden
        raise NotImplementedError

    async def open(
        self,
        *,
        quota_bytes: object = _UNSET,
        reserve: dict[str, int] | None = None,
        seq: int | None = None,
    ) -> Response:
        payload: dict[str, Any] = {}
        if quota_bytes is not _UNSET:
            payload["quota_bytes"] = quota_bytes
        if reserve:
            payload["reserve"] = reserve
        return await self.request("open", payload, seq=seq)

    async def alloc(
        self,
        handle: str,
        size: int,
        attribute: str,
        initiator: int,
        *,
        allow_partial: bool = False,
        allow_fallback: bool = True,
        scope: str = "local",
        seq: int | None = None,
    ) -> Response:
        return await self.request(
            "alloc",
            {
                "handle": handle,
                "size": size,
                "attribute": attribute,
                "initiator": initiator,
                "allow_partial": allow_partial,
                "allow_fallback": allow_fallback,
                "scope": scope,
            },
            seq=seq,
        )

    async def alloc_many(
        self, specs: list[dict[str, Any]], *, seq: int | None = None
    ) -> Response:
        return await self.request("alloc_many", {"requests": specs}, seq=seq)

    async def free(self, handle: str, *, seq: int | None = None) -> Response:
        return await self.request("free", {"handle": handle}, seq=seq)

    async def query(
        self,
        attribute: str,
        initiator: int,
        *,
        scope: str = "local",
        seq: int | None = None,
    ) -> Response:
        return await self.request(
            "query",
            {"attribute": attribute, "initiator": initiator, "scope": scope},
            seq=seq,
        )

    async def migrate(
        self, handle: str, attribute: str, *, seq: int | None = None
    ) -> Response:
        return await self.request(
            "migrate", {"handle": handle, "attribute": attribute}, seq=seq
        )

    async def stats(self, *, seq: int | None = None) -> Response:
        return await self.request("stats", seq=seq)

    async def close(self, *, seq: int | None = None) -> Response:
        return await self.request("close", seq=seq)


class ServeClient(_VerbMethods):
    """In-process client: zero serialization, same admission/commit path.

    The test and bench harnesses use this to drive thousands of
    simulated tenants without socket overhead dominating the numbers.
    """

    def __init__(self, server: ReproServeServer, tenant: str) -> None:
        self.server = server
        self.tenant = tenant
        self._ids = itertools.count(1)

    async def request(
        self,
        verb: str,
        payload: dict[str, Any] | None = None,
        *,
        seq: int | None = None,
    ) -> Response:
        return await self.server.submit(
            Request(
                verb=verb,
                tenant=self.tenant,
                id=next(self._ids),
                seq=seq,
                payload=payload or {},
            )
        )


#: Longest request line, in bytes, the stream front end accepts.  A
#: longer line gets a typed ``bad-request`` and is skipped; the
#: connection keeps serving.
_LINE_LIMIT = 2 ** 16
_TOO_LONG = f"request line exceeds the {_LINE_LIMIT}-byte limit"


class StreamServer:
    """NDJSON-over-TCP front end for out-of-process clients.

    Each connection is one :class:`asyncio.Protocol`, with no task,
    lock or drain per request.  Requests on a connection are answered as
    they complete (clients match by ``id``), so a slow migration does not
    head-of-line-block a quick query from the same tenant.  Malformed and
    oversize lines are answered with a typed ``bad-request`` (id -1),
    never a disconnect, and a request that arrives after the server
    stopped gets a typed ``shutting-down`` on its own id.  While a client
    leaves its answers unread, its connection stops reading requests.

    The connection whose ``open`` succeeded owns the tenant until a
    ``close`` succeeds from any connection.  When the connection ends
    and nothing of it is in flight, the tenants it still owns are closed
    as one admin step (:meth:`ReproServeServer.run_admin`), so a client
    that disconnects leaks no session, quota or pages (docs/SERVE.md).
    """

    def __init__(
        self,
        server: ReproServeServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._asyncio_server: asyncio.Server | None = None

    async def start(self) -> tuple[str, int]:
        self._asyncio_server = await asyncio.get_running_loop().create_server(
            functools.partial(_Connection, self.server), self.host, self.port
        )
        sock = self._asyncio_server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None


class _Connection(asyncio.Protocol):
    """One :class:`StreamServer` connection: lines in, answers out."""

    _transport: asyncio.Transport

    def __init__(self, server: ReproServeServer) -> None:
        self._server = server
        #: The input after its last newline.
        self._tail = b""
        #: Discarding an oversize line up to its newline.
        self._skipping = False
        self._in_flight = 0
        #: The input ended (EOF or a reset).
        self._ended = False
        #: tenant -> this connection's last successful open of it.
        self._owned: dict[str, Request] = {}

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        if self._skipping:
            cut = data.find(b"\n")
            if cut < 0:
                return
            self._skipping = False
            data = data[cut + 1:]
        lines = (self._tail + data).split(b"\n")
        self._tail = lines.pop()
        for line in lines:
            self._line(line)
        if len(self._tail) > _LINE_LIMIT:
            self._tail = b""
            self._skipping = True
            self._reject(_TOO_LONG)

    def eof_received(self) -> bool:
        if not self._skipping:
            self._line(self._tail)  # an unterminated last line
        self._tail = b""
        self._end_input()
        return True  # keep the write side open for the answers in flight

    def connection_lost(self, exc: Exception | None) -> None:
        if not self._ended:  # reset by the peer: ends the input like EOF
            self._end_input()

    # Flow control: read no requests while the client leaves answers unread.
    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def _line(self, line: bytes) -> None:
        if len(line) > _LINE_LIMIT:
            self._reject(_TOO_LONG)
            return
        if not line.strip():
            return
        try:
            request = decode_request(line)
        except ProtocolError as err:
            self._reject(str(err))
            return
        try:
            future = self._server.submit(request)
        except ServeError as err:  # the server stopped
            self._write(_err(request, "shutting-down", str(err)))
            return
        self._in_flight += 1
        future.add_done_callback(functools.partial(self._answer, request))

    def _answer(self, request: Request, future: asyncio.Future[Response]) -> None:
        self._in_flight -= 1
        try:
            response = future.result()  # raises only if a commit failed
            if response.ok and request.verb == "open":
                self._owned[request.tenant] = request
            self._write(response)
        finally:
            if self._ended and not self._in_flight:
                self._close()

    def _reject(self, message: str) -> None:
        self._write(
            Response(
                id=-1,
                verb="?",
                tenant="?",
                ok=False,
                error="bad-request",
                message=message,
            )
        )

    def _write(self, response: Response) -> None:
        if not self._transport.is_closing():
            self._transport.write(encode_response(response))

    def _end_input(self) -> None:
        self._ended = True
        if not self._in_flight:
            self._close()

    def _close(self) -> None:
        """Close each tenant whose live session this connection opened,
        then the transport.

        One admin step, serialized with commits but outside any ``seq``
        schedule, so the ownership test and the close see the same
        state.  A stopped server skips it.
        """
        server = self._server
        if not self._owned or not server._running:
            self._transport.close()
            return
        core = server.core
        owned = self._owned

        def close_owned() -> None:
            for tenant, opened in owned.items():
                session = core.sessions.get(tenant)
                if session is not None and session.opened_by is opened:
                    core.apply(Request(verb="close", tenant=tenant, id=-1))

        server._admin(close_owned).add_done_callback(
            lambda _: self._transport.close()
        )


class StreamServeClient(_VerbMethods):
    """Socket client speaking the NDJSON protocol, matching by ``id``."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        tenant: str,
    ) -> None:
        self.tenant = tenant
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._waiting: dict[int, asyncio.Future[Response]] = {}
        self._pump_task = asyncio.create_task(self._pump())

    @classmethod
    async def connect(
        cls, host: str, port: int, tenant: str
    ) -> StreamServeClient:
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, tenant)

    async def _pump(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = decode_response(line)
                future = self._waiting.pop(response.id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
            pass
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(ServeError("connection closed"))
        self._waiting.clear()

    async def request(
        self,
        verb: str,
        payload: dict[str, Any] | None = None,
        *,
        seq: int | None = None,
    ) -> Response:
        request_id = next(self._ids)
        request = Request(
            verb=verb,
            tenant=self.tenant,
            id=request_id,
            seq=seq,
            payload=payload or {},
        )
        future: asyncio.Future[Response] = (
            asyncio.get_running_loop().create_future()
        )
        self._waiting[request_id] = future
        self._writer.write(encode_request(request))
        await self._writer.drain()
        return await future

    async def aclose(self) -> None:
        self._pump_task.cancel()
        try:
            await self._pump_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
