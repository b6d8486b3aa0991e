"""Placement-as-a-service: the ``repro-serve`` multi-tenant daemon.

The paper's API answers "where should *this process* put *this
buffer*?"; this package turns that into a shared service: many tenants,
one kernel, placement decisions multiplexed over a newline-delimited
JSON protocol (or the in-process :class:`ServeClient`).

What the daemon adds on top of the allocator stack:

* **Sessions and quotas** — per-tenant capacity quotas enforced by a
  pure-bookkeeping :class:`QuotaLedger`, plus optional co-tenant
  headroom reservations through the kernel's ``cotenant_reserve``.
* **Admission control** — a bounded pending window; overflow requests
  are rejected with typed events, never silently dropped or queued
  unboundedly.
* **One writer** — one ``loop.call_soon`` commit per wake-up drains
  whatever arrived concurrently and applies each request in order
  through the same allocator route a lone ``mem_alloc`` takes; no
  request gets a task of its own.
* **Determinism** — a sequenced server commits in schedule order behind
  a single writer, so concurrent replays are bit-identical to serial
  ones (``repro-serve --selftest`` proves it; so does the 100-seed sweep
  in ``tests/serve/test_differential.py``).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from .batcher import Sequencer
from .protocol import (
    ERROR_CODES,
    VERBS,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from .server import (
    ReproServeServer,
    ServeClient,
    ServeCore,
    StreamServeClient,
    StreamServer,
)
from .session import QuotaLedger, TenantSession

if TYPE_CHECKING:
    from .replay import (
        RunOutcome,
        event_signature,
        response_signature,
        run_concurrent,
        run_serial,
        seeded_schedule,
        selftest,
        state_signature,
    )

__all__ = [
    "ERROR_CODES",
    "QuotaLedger",
    "ReproServeServer",
    "Request",
    "Response",
    "RunOutcome",
    "Sequencer",
    "ServeClient",
    "ServeCore",
    "StreamServeClient",
    "StreamServer",
    "TenantSession",
    "VERBS",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "event_signature",
    "response_signature",
    "run_concurrent",
    "run_serial",
    "seeded_schedule",
    "selftest",
    "state_signature",
]

#: The replay harness (selftest and differential replays) is not on the
#: daemon's path: its names import :mod:`.replay` on first access.
_REPLAY_NAMES = frozenset(
    {
        "RunOutcome",
        "event_signature",
        "response_signature",
        "run_concurrent",
        "run_serial",
        "seeded_schedule",
        "selftest",
        "state_signature",
    }
)


def __getattr__(name: str) -> Any:
    if name == "replay" or name in _REPLAY_NAMES:
        replay = importlib.import_module(f"{__name__}.replay")
        return replay if name == "replay" else getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
