"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import latency_metrics, nearest_rank, tail_percentile  # noqa: E402
from calibrate import max_rate  # noqa: E402
from openloop import (  # noqa: E402
    LATENCY_LIMIT_MS,
    WINDOWS,
    LoadGenerator,
    Rung,
    RungResult,
    Schedule,
    evaluate,
)
from spans import ASYNC, END, START, Recorder, summarize  # noqa: E402
from workloads import closed_pass, untraced_share  # noqa: E402


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99.0, 990, 1000)


@pytest.mark.parametrize("n, pct", [(999, 98.9), (500, 98.0), (100, 90.0), (25, 60.0)])
def test_tail_falls_back_to_highest_percentile_with_ten_beyond(n, pct):
    values = list(range(1, n + 1))
    used, value, count = tail_percentile(values)
    assert (used, count) == (pct, n)
    assert n - value >= 10
    assert value == nearest_rank(values, used)


@pytest.mark.parametrize("n, pct", [(10000, 99.0), (512, 98.0), (400, 97.5)])
def test_reported_tail_states_its_percentile_and_samples(n, pct):
    tail = latency_metrics(list(range(1, n + 1)))["lat_p99_ms"]
    assert (tail["percentile"], tail["samples"]) == (pct, n)
    assert n - tail["value"] >= 10


def test_tiny_sample_reports_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)


# ----------------------------------------------------------------------
# due-time latency against a fake server that stalls
# ----------------------------------------------------------------------
class FakeServer(threading.Thread):
    """Answers every NDJSON line ``{"id":N,"ok":true}``; stops reading for
    ``stall_s`` seconds once ``stall_after_s`` has passed."""

    def __init__(self, stall_after_s: float, stall_s: float) -> None:
        super().__init__(daemon=True)
        self.listener = socket.socket()
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen()
        self.port = self.listener.getsockname()[1]
        self.stall_after_s = stall_after_s
        self.stall_s = stall_s

    def run(self) -> None:
        conn, _ = self.listener.accept()
        conn.settimeout(5.0)
        started = None
        stalled = False
        buf = b""
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                started = started or time.perf_counter()
                if not stalled and time.perf_counter() - started > self.stall_after_s:
                    stalled = True
                    time.sleep(self.stall_s)
                *lines, buf = (buf + data).split(b"\n")
                out = b"".join(
                    b'{"id":%d,"ok":true}\n' % json.loads(line)["id"] for line in lines
                )
                conn.sendall(out)
        except OSError:
            return
        finally:
            conn.close()
            self.listener.close()


def _schedule(rate: float, duration: float, pad: int) -> Schedule:
    sched = Schedule(base_id=1)
    n = int(rate * duration)
    for i in range(n):
        sched.offsets.append(i / rate)
        sched.conns.append(0)
        line = json.dumps({"id": 1 + i, "pad": "x" * pad}) + "\n"
        sched.lines.append(line.encode())
    return sched


def _drive(stall_s: float) -> RungResult:
    server = FakeServer(stall_after_s=0.3, stall_s=stall_s)
    server.start()
    gen = LoadGenerator("127.0.0.1", server.port, 1)
    try:
        rung = Rung("t", 2000.0, 0.1, 1.0)
        result = evaluate(gen.run_rung(rung, _schedule(2000.0, 1.1, 1000)))
    finally:
        gen.close()
        server.join(timeout=10)
    assert not server.is_alive()
    return result


def test_stall_inflates_later_latency_and_lateness():
    calm = _drive(stall_s=0.0)
    stalled = _drive(stall_s=0.4)
    assert calm.passed, calm.reasons
    # Requests due during the stall wait for it: timed from their due
    # time, a large share exceeds the limit although the server answers
    # each one instantly once it reads again.
    slow = sum(1 for x in stalled.latencies_ms if x > 100.0)
    assert slow > 0.1 * len(stalled.latencies_ms)
    assert "p99" in stalled.reasons
    # The bounded send buffer fills, so the generator itself runs late.
    assert stalled.late_p99_ms > 10 * max(calm.late_p99_ms, 0.1)
    assert stalled.generator_bound


# ----------------------------------------------------------------------
# rung pass/fail and backlog rules
# ----------------------------------------------------------------------
def _result(windows, *, late=0.1, completed=None, failures=0, aborted=False,
            rate=1000.0) -> RungResult:
    """A rung whose window ``w`` holds 500 latencies of ``windows[w]`` ms."""
    per_window = [[float(x)] * 500 for x in windows]
    per_window += [[] for _ in range(WINDOWS - len(per_window))]
    lat = [x for w in per_window for x in w]
    return RungResult(
        rung=Rung("r", rate, 0.0, 1.0),
        sent=len(lat),
        measured=len(lat),
        latencies_ms=lat,
        windows_ms=per_window,
        late_windows_ms=[[late] * len(w) for w in per_window],
        completed_in_rung=len(lat) if completed is None else completed,
        failures=failures,
        timeouts=0,
        aborted=aborted,
    )


def _flat(ms: float) -> list[float]:
    return [ms] * WINDOWS


def test_healthy_rung_passes():
    assert evaluate(_result(_flat(1.0))).passed


def test_p99_over_limit_fails():
    assert evaluate(_result(_flat(LATENCY_LIMIT_MS * 2))).reasons == ("p99",)


def test_one_stalled_window_does_not_fail_a_rung():
    windows = _flat(1.0)
    windows[2] = 50.0
    assert evaluate(_result(windows)).passed


def test_failures_fail():
    assert "failures" in evaluate(_result(_flat(1.0), failures=1)).reasons


def test_incomplete_rung_is_backlog():
    n = 500 * WINDOWS
    assert "backlog" in evaluate(_result(_flat(1.0), completed=n - n // 50)).reasons
    assert "backlog" in evaluate(_result(_flat(1.0), aborted=True)).reasons


def test_growing_tail_fails_only_above_the_floor():
    assert evaluate(_result([1, 1, 2, 2, 3, 3])).passed
    assert evaluate(_result([2, 2, 3, 4, 8, 8])).reasons == ("growing",)


def test_late_generator_is_marked():
    result = evaluate(_result(_flat(1.0), late=2.0))
    assert result.generator_bound and not result.passed


def test_max_rate_interpolates_in_log_latency():
    ok = evaluate(_result(_flat(5.0), rate=1000.0))
    bad = evaluate(_result(_flat(20.0), rate=2000.0))
    # log(10/5) / log(20/5) = 0.5 of the way from 1000 to 2000
    assert max_rate([ok, bad]) == pytest.approx(1500.0)


def test_max_rate_of_a_rung_failing_under_the_limit_is_its_rate():
    ok = evaluate(_result(_flat(2.0), rate=1000.0))
    backlog = evaluate(_result(_flat(3.0), rate=4000.0, aborted=True))
    assert max_rate([ok, backlog]) == pytest.approx(4000.0)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(name, start, end, parent, is_async):
    return [name, start, end, parent, is_async, None, None]


NAMES = ["a:A", "b:B", "b:C", "a:D", "b:E", "c:F"]
#: A and D are coroutines on two tasks; B nests C inside A, E runs in D,
#: F is a top-level synchronous call.
TREE = [
    _span(0, 0.0, 10.0, -1, True),
    _span(1, 1.0, 3.0, 0, False),
    _span(2, 1.5, 2.0, 1, False),
    _span(3, 2.0, 8.0, -1, True),
    _span(4, 4.0, 5.0, 3, False),
    _span(5, 8.5, 9.5, -1, False),
]


def test_self_time_on_mixed_sync_async_tree():
    by_name = summarize(NAMES, TREE, (0.0, 10.0))["by_name"]
    own = {name: entry["self_s"] for name, entry in by_name.items()}
    assert own == pytest.approx(
        {"a:A": 8.0, "b:B": 1.5, "b:C": 0.5, "a:D": 5.0, "b:E": 1.0, "c:F": 1.0}
    )


def test_sync_self_time_sums_sync_spans_only():
    assert summarize(NAMES, TREE, (0.0, 10.0))["sync_self_s"] == pytest.approx(4.0)


class _Layer:
    def outer(self, n: int) -> int:
        time.sleep(0.002)
        return self.inner(n) + 1

    def inner(self, n: int) -> int:
        time.sleep(0.001)
        return n

    async def serve(self, n: int) -> int:
        await asyncio.sleep(0.005)
        value = self.outer(n)
        await asyncio.sleep(0.005)
        return value


def test_recorder_nests_sync_calls_and_async_tasks(monkeypatch):
    module = type(sys)("fake_layer")
    module.Layer = _Layer
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    recorder = Recorder()
    original = _Layer.outer
    recorder.install((("fake_layer", "Layer", "fake.layer"),))
    try:
        async def main():
            layer = _Layer()
            return await asyncio.gather(layer.serve(1), layer.serve(2))

        start = time.perf_counter()
        assert asyncio.run(main()) == [2, 3]
        wall = (start, time.perf_counter())
    finally:
        recorder.uninstall()
    assert _Layer.outer is original
    names = recorder.names
    spans = recorder.spans
    by_kind = {}
    for i, s in enumerate(spans):
        by_kind.setdefault(names[s[0]].rpartition(".")[2], []).append(i)
    assert len(by_kind["serve"]) == 2 and all(spans[i][ASYNC] for i in by_kind["serve"])
    # Each outer call belongs to its own task's serve span, not the other's.
    parents = {spans[i][3] for i in by_kind["outer"]}
    assert parents == set(by_kind["serve"])
    for i in by_kind["inner"]:
        assert spans[i][3] in by_kind["outer"]
    summary = summarize(names, spans, wall)
    outer = summary["by_name"]["fake.layer:_Layer.outer"]
    assert outer["self_s"] < outer["total_s"]
    assert all(s[END] >= s[START] for s in spans)


class _Units:
    """A closed-loop workload of ``_Layer.outer`` calls; each unit also
    sleeps ``untraced_s`` outside any wrapped call."""

    def __init__(self, untraced_s: float) -> None:
        self.layer = _Layer()
        self.untraced_s = untraced_s

    def run_unit(self, i: int) -> list[float]:
        if self.untraced_s:
            time.sleep(self.untraced_s)
        return [self.layer.outer(i)]


def _untraced(monkeypatch, untraced_s: float) -> tuple[float, float]:
    """``(untraced share, |self + remainder - wall| / wall)`` of one pass."""
    module = type(sys)("fake_units")
    module.Layer = _Layer
    monkeypatch.setitem(sys.modules, "fake_units", module)
    recorder = Recorder()
    recorder.install((("fake_units", "Layer", "fake.layer"),))
    try:
        t0 = time.perf_counter()
        wall, busy, ops = closed_pass(_Units(untraced_s), 20)
        t1 = time.perf_counter()
    finally:
        recorder.uninstall()
    assert ops == 20
    summary = summarize(recorder.names, recorder.spans, (t0, t1))
    remainder = summary["wall_s"] - busy
    error = abs(summary["sync_self_s"] + remainder - summary["wall_s"]) / summary["wall_s"]
    return untraced_share(summary, busy), error


def test_self_times_plus_remainder_equal_wall(monkeypatch):
    share, error = _untraced(monkeypatch, 0.0)
    assert abs(share) < 0.02 and error < 0.02


def test_time_no_span_covers_breaks_the_accounting(monkeypatch):
    # A unit that spends half its time outside every wrapped call: the
    # spans no longer account for the time the harness measured.
    share, error = _untraced(monkeypatch, 0.003)
    assert share > 0.3 and error > 0.3


# ----------------------------------------------------------------------
# every workload end to end at a tiny shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["serve-query", "serve-alloc", "search", "guidance"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_end_to_end(workload, trace, tmp_path):
    # workloads.py is run.py's child; called directly it takes a tiny shape.
    done = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["errors"] and result["failed"] == 0
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in contract["per_layer" if trace else "end_to_end"]}
    assert listed <= set(result["metrics"])
    assert all(math.isfinite(result["metrics"][name]["value"]) for name in listed)
    if trace:
        chrome = json.loads(Path(result["shape"]["chrome_trace"]).read_text())
        assert chrome["traceEvents"]
