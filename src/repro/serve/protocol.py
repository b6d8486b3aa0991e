"""The ``repro-serve`` wire protocol: newline-delimited JSON verbs.

One request per line, one response per line, matched by a client-chosen
``id``.  The protocol is deliberately small — placement policy lives in
the attribute stack, not the wire format:

========== ==========================================================
verb       payload
========== ==========================================================
open       ``{quota_bytes?, reserve?: {node: pages}}`` — start a
           tenant session, optionally pinning a capacity quota and a
           co-tenant headroom reservation.
close      ``{}`` — free every buffer the tenant still holds, release
           reservations, end the session.
alloc      ``{handle, size, attribute, initiator, allow_partial?,
           allow_fallback?, scope?}`` — one placed buffer, tracked
           under the tenant-chosen handle.
alloc_many ``{requests: [<alloc payload>, ...]}`` — several allocs in
           order, with per-request outcomes.
free       ``{handle}``
query      ``{attribute, initiator, scope?}`` — generation-tagged
           ranking read (never mutates state).
migrate    ``{handle, attribute}`` — re-place a live buffer.
stats      ``{}`` — service counters, sessions, kernel utilization.
========== ==========================================================

Requests may carry a dense global ``seq``; a *sequenced* server commits
strictly in ``seq`` order regardless of arrival interleaving, which is
what makes concurrent replays bit-identical to serial ones (see
``docs/SERVE.md``).  Error responses carry a typed ``error`` code from
:data:`ERROR_CODES`, never a bare string dump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..errors import ProtocolError

__all__ = [
    "ERROR_CODES",
    "Request",
    "Response",
    "VERBS",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
]

#: Every verb the daemon understands.
VERBS = frozenset(
    {
        "open",
        "close",
        "alloc",
        "alloc_many",
        "free",
        "query",
        "migrate",
        "stats",
    }
)

#: Typed error codes a response can carry.  ``admission-rejected`` and
#: ``quota-exceeded`` also produce resilience events — they are service
#: degradations, not client mistakes.
ERROR_CODES = frozenset(
    {
        "unknown-verb",
        "bad-request",
        "no-session",
        "session-exists",
        "handle-exists",
        "unknown-handle",
        "quota-exceeded",
        "admission-rejected",
        "allocation-failed",
        "migration-failed",
        "query-failed",
        "shutting-down",
    }
)


#: The one canonical encoder: compact separators, sorted keys.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    verb: str
    tenant: str
    id: int = 0
    seq: int | None = None
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """One response; ``ok`` is the only field a client must branch on."""

    id: int
    verb: str
    tenant: str
    ok: bool
    seq: int | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    message: str = ""


def encode_request(request: Request) -> bytes:
    """One NDJSON line (trailing newline included)."""
    body: dict[str, Any] = {
        "verb": request.verb,
        "tenant": request.tenant,
        "id": request.id,
    }
    if request.seq is not None:
        body["seq"] = request.seq
    if request.payload:
        body["payload"] = request.payload
    return (_ENCODER.encode(body) + "\n").encode()


def decode_request(line: bytes | str) -> Request:
    """Parse and validate one request line.

    Structural problems (bad JSON, wrong field types) raise
    :class:`~repro.errors.ProtocolError`; *semantic* problems (unknown
    verb, missing payload fields) are left to the server so they come
    back as typed error responses instead of dropped connections.
    """
    try:
        text = line.decode() if isinstance(line, bytes) else line
        body = json.loads(text)
    except (ValueError, RecursionError) as err:
        # Bad UTF-8, bad JSON, or nesting too deep for the decoder.
        raise ProtocolError(f"request is not valid JSON: {err}") from None
    if not isinstance(body, dict):
        raise ProtocolError("request must be a JSON object")
    verb = body.get("verb")
    tenant = body.get("tenant")
    if not isinstance(verb, str) or not verb:
        raise ProtocolError("request needs a string 'verb'")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("request needs a string 'tenant'")
    req_id = body.get("id", 0)
    if not isinstance(req_id, int):
        raise ProtocolError("'id' must be an integer")
    seq = body.get("seq")
    if seq is not None and not isinstance(seq, int):
        raise ProtocolError("'seq' must be an integer when present")
    payload = body.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError("'payload' must be an object")
    return Request(verb=verb, tenant=tenant, id=req_id, seq=seq, payload=payload)


def encode_response(response: Response) -> bytes:
    body: dict[str, Any] = {
        "id": response.id,
        "verb": response.verb,
        "tenant": response.tenant,
        "ok": response.ok,
    }
    if response.seq is not None:
        body["seq"] = response.seq
    if response.result is not None:
        body["result"] = response.result
    if response.error is not None:
        body["error"] = response.error
    if response.message:
        body["message"] = response.message
    return (_ENCODER.encode(body) + "\n").encode()


def decode_response(line: bytes | str) -> Response:
    text = line.decode() if isinstance(line, bytes) else line
    try:
        body = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProtocolError(f"response is not valid JSON: {err}") from None
    if not isinstance(body, dict):
        raise ProtocolError("response must be a JSON object")
    for field_name, kind in (("id", int), ("verb", str), ("tenant", str), ("ok", bool)):
        if not isinstance(body.get(field_name), kind):
            raise ProtocolError(f"response needs a {kind.__name__} {field_name!r}")
    return Response(
        id=body["id"],
        verb=body["verb"],
        tenant=body["tenant"],
        ok=body["ok"],
        seq=body.get("seq"),
        result=body.get("result"),
        error=body.get("error"),
        message=body.get("message", ""),
    )
