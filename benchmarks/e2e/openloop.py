"""Open-loop NDJSON load generator for the ``repro-serve`` daemon.

One process drives a few TCP connections with non-blocking sockets and
one selector.  Requests go out on a precomputed schedule whether or not
earlier ones were answered, so a stalled daemon builds a queue instead
of slowing the client down.  Every request is timed from the moment it
was *due*, which charges the wait a stall imposes on later requests, and
the generator's own lateness (send time minus due time) is reported so
a client that cannot keep up is never mistaken for a slow server.
While a rung runs the generator polls its sockets instead of sleeping
until the next due time: on a virtual machine, waking an idle CPU for
each response costs 0.1 ms or more, varies with the load of the host,
and would be charged to the server.

Offered load steps through rungs of fixed rate; :func:`evaluate` decides
whether a rung passes.  The host pauses every process for a few
milliseconds several times a second; one such pause near saturation
queues enough requests to push a whole rung's p99 over the limit.  So
each rung's measured part is cut into :data:`WINDOWS` windows and the
rung's p99 is the median of the windows' p99s: a pause spoils one
window, a rate the daemon cannot sustain spoils them all.
"""

from __future__ import annotations

import gc
import json
import math
import selectors
import socket
import statistics
import time
from array import array
from collections import deque
from dataclasses import dataclass, field

from measure import tail_percentile

#: p99 latency limit a rung must meet.
LATENCY_LIMIT_MS = 10.0
#: Generator lateness p99 above which a rung is ``generator-bound``.
LATE_LIMIT_MS = 1.0
#: Share of a rung's requests that must complete inside the rung.
COMPLETE_SHARE = 0.99
#: Windows per rung, two per third.
WINDOWS = 6
#: Allowed growth of p99 from the rung's first third to its last third.
THIRDS_GROWTH = 2.0
#: Growth only counts once the last third's p99 is this far up: a p99
#: moving from 1 ms to 2 ms is scheduling noise, not a growing queue.
THIRDS_FLOOR_MS = LATENCY_LIMIT_MS / 2
#: Requests in flight at which the generator stops a rung as backlogged.
#: The daemon runs with an admission window above this, so it never has
#: to reject: a queue that a pause of the host builds can drain within
#: the rung, and one that keeps growing fails the rung, not requests.
OUTSTANDING_CAP = 8000
#: How long a rung waits for its last responses before counting timeouts.
DRAIN_S = 5.0
#: Bounded client send buffer, so a daemon that stops reading shows up as
#: generator lateness instead of vanishing into kernel buffers.
SNDBUF_BYTES = 64 * 1024


@dataclass(frozen=True)
class Rung:
    name: str
    rate: float
    warmup_s: float
    measure_s: float


@dataclass
class Schedule:
    """One rung's requests: due offsets (s), connection, encoded line.

    Request ids are ``base_id + index`` so responses map back by id.
    """

    base_id: int
    offsets: list[float] = field(default_factory=list)
    conns: list[int] = field(default_factory=list)
    lines: list[bytes] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.offsets)


@dataclass
class RungResult:
    rung: Rung
    sent: int
    measured: int
    latencies_ms: list[float]
    windows_ms: list[list[float]]
    late_windows_ms: list[list[float]]
    completed_in_rung: int
    failures: int
    timeouts: int
    aborted: bool
    degraded: int = 0
    placed: int = 0
    ids: tuple[int, int] = (0, 0)
    #: CPU time the daemon used between the two clock readings of
    #: ``cpu_window``, which bracket the whole rung
    daemon_cpu_s: float = 0.0
    cpu_window: tuple[float, float] = (0.0, 0.0)
    passed: bool = False
    generator_bound: bool = False
    reasons: tuple[str, ...] = ()

    @property
    def window_p99s(self) -> list[float]:
        return [tail_percentile(w)[1] if w else math.inf for w in self.windows_ms]

    @property
    def p99_ms(self) -> float:
        """Median of the windows' p99s."""
        return statistics.median(self.window_p99s)

    @property
    def late_p99_ms(self) -> float:
        """Median of the windows' generator-lateness p99s."""
        return statistics.median(
            tail_percentile(w)[1] if w else 0.0 for w in self.late_windows_ms
        )


def parse_response(line: bytes) -> tuple[int, bool]:
    """``(id, ok)`` of one response line.

    The daemon encodes with sorted keys, so an ok response starts with
    ``{"id":N,"ok":true``; anything else takes the full JSON parse.
    """
    if line.startswith(b'{"id":'):
        comma = line.find(b",", 6)
        if comma > 6 and line.startswith(b'"ok":true', comma + 1):
            try:
                return int(line[6:comma]), True
            except ValueError:
                pass
    body = json.loads(line)
    return int(body.get("id", -1)), body.get("ok") is True


class _Conn:
    __slots__ = ("sock", "out", "marks", "written", "inbuf", "want_write")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.out = bytearray()
        self.marks: deque[tuple[int, int]] = deque()  # (end offset, index)
        self.written = 0
        self.inbuf = b""
        self.want_write = False


class LoadGenerator:
    """Connections to one daemon plus the rung and exchange loops."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.sel = selectors.DefaultSelector()
        self.conns: list[_Conn] = []
        for _ in range(connections):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SNDBUF_BYTES)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()
        self.conns = []

    # -- socket plumbing ------------------------------------------------
    def _queue(self, conn: _Conn, index: int, line: bytes) -> None:
        conn.out += line
        conn.marks.append((conn.written + len(conn.out), index))

    def _flush(self, conn: _Conn, now: float, sent_at) -> None:
        if conn.out:
            try:
                n = conn.sock.send(conn.out)
            except BlockingIOError:
                n = 0
            if n:
                del conn.out[:n]
                conn.written += n
                marks = conn.marks
                while marks and marks[0][0] <= conn.written:
                    sent_at(marks.popleft()[1], now)
        want = bool(conn.out)
        if want != conn.want_write:
            conn.want_write = want
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
            self.sel.modify(conn.sock, events, conn)

    def _read(self, conn: _Conn) -> list[bytes]:
        try:
            data = conn.sock.recv(1 << 18)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("daemon closed the connection")
        parts = (conn.inbuf + data).split(b"\n")
        conn.inbuf = parts.pop()
        return parts

    # -- closed exchange (opens, fills, closes; never timed) ------------
    def exchange(
        self, items: list[tuple[int, int, bytes]], window: int = 64
    ) -> dict[int, bytes]:
        """Send ``(conn, id, line)`` items with at most ``window`` in flight.

        Returns every response line by id; raises on a missing answer.
        """
        answers: dict[int, bytes] = {}
        pending = deque(items)
        in_flight = 0
        deadline = time.perf_counter() + DRAIN_S + 0.001 * len(items)

        def noop(_index: int, _now: float) -> None:
            pass

        while pending or in_flight:
            while pending and in_flight < window:
                conn_index, rid, line = pending.popleft()
                self._queue(self.conns[conn_index], rid, line)
                in_flight += 1
            now = time.perf_counter()
            for conn in self.conns:
                self._flush(conn, now, noop)
            if now > deadline:
                raise TimeoutError(f"{in_flight} requests unanswered")
            for key, mask in self.sel.select(0.05):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn, now, noop)
                if mask & selectors.EVENT_READ:
                    for line in self._read(conn):
                        rid, _ = parse_response(line)
                        answers[rid] = line
                        in_flight -= 1
        return answers

    # -- open loop -------------------------------------------------------
    def run_rung(self, rung: Rung, sched: Schedule) -> RungResult:
        """Send ``sched`` on time and collect every response, polling."""
        n = len(sched)
        start = time.perf_counter() + 0.002
        due = array("d", (start + off for off in sched.offsets))
        sent_t = array("d", bytes(8 * n))
        done_t = array("d", bytes(8 * n))
        base = sched.base_id
        conns = self.conns
        select = self.sel.select
        failures = 0
        degraded = placed = 0
        outstanding = 0
        aborted = False
        i = 0

        def sent_at(index: int, now: float) -> None:
            sent_t[index] = now

        gc.disable()
        try:
            drain_deadline = math.inf
            while True:
                now = time.perf_counter()
                if not aborted:
                    while i < n and due[i] <= now:
                        if outstanding >= OUTSTANDING_CAP:
                            aborted = True
                            break
                        self._queue(conns[sched.conns[i]], i, sched.lines[i])
                        outstanding += 1
                        i += 1
                for conn in conns:
                    if conn.out:
                        self._flush(conn, now, sent_at)
                finished_sending = aborted or i >= n
                if finished_sending:
                    if outstanding == 0:
                        break
                    if drain_deadline == math.inf:
                        drain_deadline = now + DRAIN_S
                    elif now > drain_deadline:
                        break
                for key, mask in select(0):
                    conn = key.data
                    if mask & selectors.EVENT_READ:
                        lines = self._read(conn)
                        now = time.perf_counter()
                        for line in lines:
                            rid, good = parse_response(line)
                            index = rid - base
                            if not 0 <= index < n or done_t[index]:
                                failures += 1
                                continue
                            done_t[index] = now
                            outstanding -= 1
                            if good:
                                if b'"degraded":' in line:
                                    placed += line.count(b'"degraded":')
                                    degraded += line.count(b'"degraded":true')
                            else:
                                failures += 1
                    if mask & selectors.EVENT_WRITE:
                        self._flush(conn, time.perf_counter(), sent_at)
        finally:
            gc.enable()

        measure_from = start + rung.warmup_s
        rung_end = measure_from + rung.measure_s
        latencies: list[float] = []
        windows: list[list[float]] = [[] for _ in range(WINDOWS)]
        late_windows: list[list[float]] = [[] for _ in range(WINDOWS)]
        completed = timeouts = measured = 0
        width = rung.measure_s / WINDOWS
        for j in range(i):
            d = due[j]
            finished = done_t[j]
            if not finished:
                timeouts += 1
            if d < measure_from:
                continue
            measured += 1
            w = min(WINDOWS - 1, int((d - measure_from) / width))
            if sent_t[j]:
                late_windows[w].append((sent_t[j] - d) * 1e3)
            if not finished:
                continue
            lat = (finished - d) * 1e3
            latencies.append(lat)
            windows[w].append(lat)
            if finished <= rung_end + LATENCY_LIMIT_MS / 1e3:
                completed += 1
        return RungResult(
            rung=rung,
            sent=i,
            measured=measured,
            latencies_ms=latencies,
            windows_ms=windows,
            late_windows_ms=late_windows,
            completed_in_rung=completed,
            failures=failures,
            timeouts=timeouts,
            aborted=aborted,
            degraded=degraded,
            placed=placed,
            ids=(base, base + n),
        )


def evaluate(result: RungResult) -> RungResult:
    """Apply the pass rules; fills ``passed``, ``generator_bound``, ``reasons``."""
    reasons = []
    if result.p99_ms > LATENCY_LIMIT_MS:
        reasons.append("p99")
    if result.failures or result.timeouts:
        reasons.append("failures")
    if result.aborted or result.completed_in_rung < COMPLETE_SHARE * result.measured:
        reasons.append("backlog")
    # A third's p99 is the lower of its two windows', so one pause in the
    # last third does not read as growth.
    p99s = result.window_p99s
    first, last = min(p99s[:2]), min(p99s[-2:])
    if last > max(THIRDS_FLOOR_MS, THIRDS_GROWTH * first):
        reasons.append("growing")
    if result.late_p99_ms > LATE_LIMIT_MS:
        reasons.append("generator-bound")
        result.generator_bound = True
    result.reasons = tuple(reasons)
    result.passed = not reasons
    return result

