"""The benchmark's four workloads: inputs, runners and correctness checks.

One workload runs per process so set-up time and peak memory are its
own.  :mod:`run` starts this file once per workload::

    python3 benchmarks/e2e/workloads.py --workload search --seed 0 \\
        --seconds 24 --trace 0 --out benchmarks/e2e/out

and reads one JSON result from the last line of its standard output.
Inputs come only from ``--seed``; the program under test receives the
generated requests, problems and sampler seeds, never the seed itself.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # closed-loop set-up time starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import selectors  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import product  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import (  # noqa: E402
    HostSpeed,
    latency_metrics,
    median,
    metric,
    tail_percentile,
)
from openloop import (  # noqa: E402
    OUTSTANDING_CAP,
    LoadGenerator,
    Rung,
    RungResult,
    Schedule,
    evaluate,
)
from spans import Recorder, queue_waits, summarize, write_chrome_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("serve-query", "serve-alloc", "search", "guidance")

#: Fresh starts whose set-up time is measured, the median reported: the
#: run's own, and half of the others each before and after the measured
#: part, so that one slow spell of the host cannot cover them all.
SETUP_SAMPLES = 5
#: In the traced closed-loop pass, span self time must cover the time the
#: harness measured inside the units to within this share of it, so that
#: self time plus the untraced remainder (pass wall time minus the units'
#: time) accounts for the pass wall time.
ACCOUNTING_TOLERANCE = 0.02
#: Operation time between two passes of the host-speed reference kernel:
#: about every other guidance run, every few search calls, so the
#: reference costs the closed loops about 5% of their run.
REFERENCE_EVERY_S = 0.025


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ======================================================================
# serve-query / serve-alloc: open loop against the real daemon
# ======================================================================
SERVE_PLATFORM = {
    "serve-query": "xeon-cascadelake-1lm",
    "serve-alloc": "knl-snc4-flat",
}
#: PUs per platform; tenant ``t`` is pinned to PU ``t * pus // TENANTS``.
PLATFORM_PUS = {"xeon-cascadelake-1lm": 80, "knl-snc4-flat": 256}
CONNECTIONS = 2
TENANTS = 64
#: Admission window of the daemon under test: above the generator's
#: in-flight cap, so no request is ever rejected.
MAX_PENDING = 2 * OUTSTANDING_CAP
#: The latency metrics are read at the nominal rate.
NOMINAL_RPS = 2000.0
#: ops_per_s is read at ``hi``, about 60% of the median max_rate_rps that
#: ``calibrate.py --max-rate`` measured (results/seed_runs.json).
HI_RPS = {"serve-query": 7500.0, "serve-alloc": 4900.0}
#: Nominal and hi rungs alternate, this many of each, so that a slow
#: spell of the host in one part of the run cannot cover all the windows
#: of one rate.  Each rung lasts an equal share of ``--seconds``, and its
#: first WARMUP_SHARE warms up.
RUNG_PAIRS = 4
WARMUP_SHARE = 1 / 6

MiB = 1 << 20
ATTRIBUTES = ("Bandwidth", "Latency", "Capacity")
#: serve-alloc: attribute weights (Bandwidth ranks MCDRAM first on KNL).
ALLOC_ATTR_WEIGHTS = (0.6, 0.2, 0.2)
#: serve-alloc: each tenant's live set is filled to FILL bytes with the
#: traffic's own mix of allocs and is held under CAP.  16 tenants share
#: one SNC cluster (3.6 GiB MCDRAM, 21.7 GiB DRAM), so Bandwidth demand
#: keeps MCDRAM nearly full while DRAM never runs out.
FILL_BYTES = 576 * MiB
CAP_BYTES = 640 * MiB


class TenantTraffic:
    """Seeded NDJSON request stream for one serve workload.

    The generator tracks each tenant's live handles so every ``free``
    names a handle an earlier request allocated.  serve-query: 90% query,
    5% alloc 1 MiB, 5% free.  serve-alloc: 26% alloc (1-64 MiB, mixed
    attributes, a quarter of Bandwidth allocs with ``allow_partial``), 9%
    alloc_many (4 x 2 MiB), 60% free, 5% query; those weights hold the
    number of live handles level, and a tenant at ``CAP_BYTES`` frees
    instead of allocating.
    """

    def __init__(self, workload: str, seed: int) -> None:
        from repro.serve.protocol import Request, encode_request

        self._request = Request
        self._encode = encode_request
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        pus = PLATFORM_PUS[SERVE_PLATFORM[workload]]
        self.tenants = [f"t{i:02d}" for i in range(TENANTS)]
        self.pu = [i * pus // TENANTS for i in range(TENANTS)]
        self.live: list[dict[str, int]] = [{} for _ in range(TENANTS)]
        self.live_bytes = [0] * TENANTS
        self.handles = [0] * TENANTS
        self.next_id = 1
        # (tenant, handle, bytes added) per live-set change in the current
        # rung, and where each request's changes start: lets rollback()
        # forget requests a backlogged rung never sent.
        self._journal: list[tuple[int, str, int]] = []
        self._starts: list[int] = []

    def _item(self, t: int, verb: str, payload: dict) -> tuple[int, int, bytes]:
        rid = self.next_id
        self.next_id += 1
        line = self._encode(
            self._request(verb=verb, tenant=self.tenants[t], id=rid, payload=payload)
        )
        return t % CONNECTIONS, rid, line

    def opens(self) -> list[tuple[int, int, bytes]]:
        return [self._item(t, "open", {}) for t in range(TENANTS)]

    def closes(self) -> list[tuple[int, int, bytes]]:
        return [self._item(t, "close", {}) for t in range(TENANTS)]

    def stats(self) -> tuple[int, int, bytes]:
        return self._item(0, "stats", {})

    def fill(self) -> list[tuple[int, int, bytes]]:
        items = []
        if self.workload == "serve-alloc":
            for t in range(TENANTS):
                while self.live_bytes[t] < FILL_BYTES:
                    if self.rng.random() < 0.26 / 0.35:
                        items.append(self._item(t, "alloc", self._alloc(t)))
                    else:
                        items.append(self._item(t, "alloc_many", self._alloc_many(t)))
        return items

    # -- payloads --------------------------------------------------------
    def _attribute(self) -> str:
        return self.rng.choices(ATTRIBUTES, ALLOC_ATTR_WEIGHTS)[0]

    def _spec(self, t: int, size: int, attribute: str, partial: bool) -> dict:
        handle = f"h{self.handles[t]}"
        self.handles[t] += 1
        self.live[t][handle] = size
        self.live_bytes[t] += size
        self._journal.append((t, handle, size))
        return {
            "handle": handle,
            "size": size,
            "attribute": attribute,
            "initiator": self.pu[t],
            "allow_partial": partial,
            "allow_fallback": True,
            "scope": "local",
        }

    def _alloc(self, t: int) -> dict:
        rng = self.rng
        if self.workload == "serve-query":
            return self._spec(t, MiB, rng.choice(ATTRIBUTES), False)
        attribute = self._attribute()
        partial = attribute == "Bandwidth" and rng.random() < 0.25
        return self._spec(t, rng.randint(1, 64) * MiB, attribute, partial)

    def _alloc_many(self, t: int) -> dict:
        attribute = self._attribute()
        return {"requests": [self._spec(t, 2 * MiB, attribute, False) for _ in range(4)]}

    def _free(self, t: int) -> dict:
        handle = self.rng.choice(list(self.live[t]))
        size = self.live[t].pop(handle)
        self.live_bytes[t] -= size
        self._journal.append((t, handle, -size))
        return {"handle": handle}

    def _query(self, t: int) -> dict:
        return {
            "attribute": self.rng.choice(ATTRIBUTES),
            "initiator": self.pu[t],
            "scope": "local",
        }

    def _next(self, t: int) -> tuple[str, dict]:
        r = self.rng.random()
        if self.workload == "serve-query":
            if r < 0.90:
                return "query", self._query(t)
            if r < 0.95 or not self.live[t]:
                return "alloc", self._alloc(t)
            return "free", self._free(t)
        if r < 0.05:
            return "query", self._query(t)
        full = self.live_bytes[t] >= CAP_BYTES
        if (r < 0.65 or full) and self.live[t]:
            return "free", self._free(t)
        if r < 0.91:
            return "alloc", self._alloc(t)
        return "alloc_many", self._alloc_many(t)

    def rung(self, rate: float, duration: float) -> Schedule:
        """Poisson arrivals at ``rate`` over ``duration`` seconds."""
        sched = Schedule(base_id=self.next_id)
        self._journal.clear()
        self._starts.clear()
        rng = self.rng
        at = rng.expovariate(rate)
        while at < duration:
            t = rng.randrange(TENANTS)
            self._starts.append(len(self._journal))
            verb, payload = self._next(t)
            conn, _, line = self._item(t, verb, payload)
            sched.offsets.append(at)
            sched.conns.append(conn)
            sched.lines.append(line)
            at += rng.expovariate(rate)
        return sched

    def rollback(self, sent: int) -> None:
        """Undo the live-set changes of the last rung's unsent requests."""
        if sent >= len(self._starts):
            return
        for t, handle, size in reversed(self._journal[self._starts[sent]:]):
            if size > 0:
                del self.live[t][handle]
            else:
                self.live[t][handle] = -size
            self.live_bytes[t] -= size
        del self._journal[self._starts[sent]:]
        del self._starts[sent:]


def rung_plan(workload: str, seconds: float) -> list[Rung]:
    """``nominal`` and ``hi`` rungs, alternating, filling ``seconds``."""
    length = seconds / (2 * RUNG_PAIRS)
    warm = length * WARMUP_SHARE
    return [Rung(name, rate, warm, length - warm) for _ in range(RUNG_PAIRS)
            for name, rate in (("nominal", NOMINAL_RPS), ("hi", HI_RPS[workload]))]


#: CPUs this process may use, read before it pins itself.
CPUS = sorted(os.sched_getaffinity(0))


def pin_cpu(pid: int, last: bool) -> None:
    """Pin a process to the first or last allowed CPU.

    The load generator and the daemon each get a CPU of their own: left
    to the scheduler, a response wakes the generator on the daemon's busy
    CPU and the generator sends late.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(pid, {CPUS[-1] if last else CPUS[0]})


def _read_line(stream, timeout: float) -> bytes:
    """One line from a child's stdout, or b'' on EOF or timeout."""
    sel = selectors.DefaultSelector()
    sel.register(stream, selectors.EVENT_READ)
    buf = b""
    deadline = time.perf_counter() + timeout
    try:
        while not buf.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not sel.select(left):
                return b""
            chunk = os.read(stream.fileno(), 1)
            if not chunk:
                return b""
            buf += chunk
    finally:
        sel.close()
    return buf


class Daemon:
    """One ``repro-serve`` process, timed from spawn to its first ``stats``."""

    def __init__(self, platform: str, trace_prefix: str | None = None) -> None:
        from repro.serve.protocol import Request, encode_request

        start = time.perf_counter()
        if trace_prefix is None:
            cmd = [sys.executable, "-m", "repro.serve.cli", "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "daemon.py"), "--out", trace_prefix]
        cmd += ["--platform", platform, "--max-pending", str(MAX_PENDING)]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
        )
        try:
            pin_cpu(self.proc.pid, last=False)
            line = _read_line(self.proc.stdout, 120.0).decode()
            if "listening on" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
            self.port = int(port)
            with socket.create_connection((self.host, self.port)) as sock:
                sock.sendall(
                    encode_request(Request(verb="stats", tenant="bench", id=0))
                )
                reply = sock.makefile("rb").readline()
            if b'"ok":true' not in reply:
                raise RuntimeError(f"daemon stats failed: {reply[:200]!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as f:
            return f.read()

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def serve_session(workload: str, seed: int, rungs: list[Rung],
                  trace_prefix: str | None = None, ladder: bool = False) -> dict:
    """Start a daemon, open the tenants, run rungs, close, check, stop.

    A ``ladder`` stops at its first failing rung.
    """
    traffic = TenantTraffic(workload, seed)
    daemon = Daemon(SERVE_PLATFORM[workload], trace_prefix)
    out: dict = {"setup_s": daemon.setup_s, "rungs": [], "errors": []}
    sent = bad = 0
    gen_digest = ""

    def run_one(gen: LoadGenerator, rung: Rung) -> RungResult:
        nonlocal sent, bad, gen_digest
        # Peak RSS up to the first rung that is not nominal: a slow spell
        # of the host at a high rate queues requests, and their memory.
        if rung.name != "nominal" and "rss_mb" not in out:
            out["rss_mb"] = daemon.rss_mb()
        sched = traffic.rung(rung.rate, rung.warmup_s + rung.measure_s)
        t0, cpu0 = time.perf_counter(), daemon.cpu_s()
        result = evaluate(gen.run_rung(rung, sched))
        result.daemon_cpu_s = daemon.cpu_s() - cpu0
        result.cpu_window = (t0, time.perf_counter())
        traffic.rollback(result.sent)
        if not out["rungs"]:
            gen_digest = digest(gen_digest, sched.offsets, sched.lines)
        out["rungs"].append(result)
        sent += result.sent
        bad += result.failures + result.timeouts
        record = rung_record(result)
        log(f"  {workload} {rung.name:>8} {rung.rate:8.0f} req/s  "
            f"p50 {record['lat_p50_ms']:6.2f} ms  p99 {record['lat_p99_ms']:7.2f} ms  "
            f"window p99 {record['window_p99_ms']:7.2f} ms  "
            f"late p99 {record['gen_late_p99_ms']:5.2f} ms  "
            f"{'pass' if result.passed else 'FAIL ' + ','.join(result.reasons)}")
        return result

    try:
        gen = LoadGenerator(daemon.host, daemon.port, CONNECTIONS)
        try:
            for phase in (traffic.opens(), traffic.fill()):
                answers = gen.exchange(phase)
                sent += len(phase)
                bad += sum(1 for line in answers.values() if b'"ok":true' not in line)
            gen_digest = digest(traffic.next_id, traffic.live)
            for rung in rungs:
                if not run_one(gen, rung).passed and ladder:
                    break
            closes = traffic.closes()
            stats = traffic.stats()
            answers = gen.exchange(closes)
            answers.update(gen.exchange([stats]))
            sent += len(closes) + 1
            bad += sum(1 for line in answers.values() if b'"ok":true' not in line)
        finally:
            gen.close()
        out["stats"] = json.loads(answers[stats[1]])["result"]
        out.setdefault("rss_mb", daemon.rss_mb())
    finally:
        code = daemon.stop()
    if code not in (0, -signal.SIGINT):
        out["errors"].append(f"daemon exited with {code}")
    kernel = out["stats"]["kernel"]
    if out["stats"]["sessions"] or out["stats"]["ledger"]:
        out["errors"].append("sessions left open after close")
    if kernel["live_allocations"] or any(kernel["cotenant_pages"].values()):
        out["errors"].append("allocations or reservations left after close")
    if bad:
        out["errors"].append(f"{bad} responses not ok or missing")
    out.update(sent=sent, failed=bad, digest=gen_digest)
    return out


def check_serve_inputs(workload: str, seed: int, rungs: list[Rung], used: str) -> bool:
    """The same seed regenerates the same opens, fill and first rung."""
    traffic = TenantTraffic(workload, seed)
    traffic.opens()
    traffic.fill()
    again = digest(traffic.next_id, traffic.live)
    first = rungs[0]
    sched = traffic.rung(first.rate, first.warmup_s + first.measure_s)
    return digest(again, sched.offsets, sched.lines) == used


def rung_record(result) -> dict:
    lat = result.latencies_ms
    pct, p99, n = tail_percentile(lat) if lat else (99.0, float("inf"), 0)
    return {
        "name": result.rung.name,
        "rate_rps": result.rung.rate,
        "samples": n,
        "lat_p50_ms": median(lat) if lat else float("inf"),
        "lat_p99_ms": p99,
        "percentile": pct,
        "window_p99_ms": result.p99_ms,
        "gen_late_p99_ms": result.late_p99_ms,
        "passed": result.passed,
        "generator_bound": result.generator_bound,
        "reasons": list(result.reasons),
        "daemon_cpu_us_per_req": 1e6 * result.daemon_cpu_s / max(1, result.sent),
    }


def run_serve(args) -> dict:
    rungs = rung_plan(args.workload, args.seconds)
    platform = SERVE_PLATFORM[args.workload]
    if args.trace:
        return trace_serve(args, rungs[:1])

    def probe() -> float:
        daemon = Daemon(platform)
        daemon.stop()
        return daemon.setup_s

    setups = [probe() for _ in range(SETUP_SAMPLES // 2)]
    session = serve_session(args.workload, args.seed, rungs)
    setups += [session["setup_s"]] + [probe() for _ in range(SETUP_SAMPLES // 2)]
    results = session["rungs"]
    hi = [r for r in results if r.rung.name == "hi"]
    pct, p99_hi, n_hi = tail_percentile([x for r in hi for x in r.latencies_ms])
    metrics = {
        "setup_s": metric(median(setups), "s", "lower", "wall", samples=setups),
        # Requests per daemon CPU-second at the pinned hi rate.  The max
        # rate under the latency limit is bistable on this daemon: near
        # saturation it either keeps up with small commits or falls
        # behind and amortises over large ones, so it jumps between runs
        # while the CPU cost of a request repeats.
        "ops_per_s": metric(sum(r.sent for r in hi) / sum(r.daemon_cpu_s for r in hi),
                            "1/s", "higher", "wall", rate_rps=HI_RPS[args.workload]),
        **latency_metrics([x for r in results if r.rung.name == "nominal"
                           for x in r.latencies_ms], rung="nominal"),
        "rss_mb": metric(session["rss_mb"], "MiB", "lower", "wall"),
        "lat_p99_ms.hi": metric(p99_hi, "ms", "lower", "wall",
                                samples=n_hi, percentile=pct),
    }
    errors = list(session["errors"])
    if not check_serve_inputs(args.workload, args.seed, rungs, session["digest"]):
        errors.append("same seed generated a different schedule")
    if any(r.generator_bound for r in results if r.rung.rate < HI_RPS[args.workload]):
        log(f"  {args.workload}: generator-bound below the hi rung; "
            "the host was too busy for this run's rates to hold")
    return {
        "metrics": metrics,
        "shape": {
            "platform": platform,
            "connections": CONNECTIONS,
            "tenants": TENANTS,
            "loop": "open",
            "rungs": [rung_record(r) for r in session["rungs"]],
        },
        "attempted": session["sent"],
        "failed": session["failed"],
        "errors": errors,
    }


def trace_serve(args, rungs: list[Rung]) -> dict:
    """Nominal rung untraced, then again on the traced daemon."""
    plain = serve_session(args.workload, args.seed, rungs)
    prefix = str(Path(args.out) / f"{args.workload}.seed{args.seed}")
    traced = serve_session(args.workload, args.seed, rungs, trace_prefix=prefix)
    with open(f"{prefix}.spans.json") as f:
        raw = json.load(f)
    os.remove(f"{prefix}.spans.json")
    result = traced["rungs"][0]
    names, span_list = raw["names"], raw["spans"]
    summary = summarize(names, span_list, result.cpu_window)
    lo, hi = result.ids
    waits = [w * 1e3 for rid, w in queue_waits(
        names, span_list, "ReproServeServer.submit", "ServeCore.apply_run"
    ).items() if lo <= rid < hi]
    base = plain["rungs"][0]
    cache = traced["stats"]["diagnostics"]["cache"]
    facts = {
        "queue_waits_ms": waits,
        "placed": result.placed,
        "degraded": result.degraded,
        "cpu_us_per_req": 1e6 * base.daemon_cpu_s / max(1, base.sent),
        "plan_hit_ratio": cache.get("families", {}).get("alloc_rank", {}).get("hit_rate", 0.0),
        "querycache_hit_ratio": cache.get("hit_rate", 0.0),
        "gen_late_p99_ms": base.late_p99_ms,
        "trace_overhead": median(result.latencies_ms) / median(base.latencies_ms),
        # The daemon's event loop and socket I/O run in private
        # coroutines that no span wraps, so its CPU time is reported
        # beside the span time, not checked against it.
        "busy_s": result.daemon_cpu_s,
    }
    errors = plain["errors"] + traced["errors"]
    return traced_result(summary, facts, errors,
                         attempted=plain["sent"] + traced["sent"],
                         failed=plain["failed"] + traced["failed"],
                         shape={"platform": SERVE_PLATFORM[args.workload],
                                "rung": rung_record(result),
                                "chrome_trace": f"{prefix}.chrome.json"})


# ======================================================================
# search: closed loop over seeded search_placements problems
# ======================================================================
#: (platform, candidate nodes, buffers): spaces of 2^10 to 2^14.  The
#: classes stop where branch-and-bound cost turns heavy-tailed (KNL past
#: 12 buffers, Xeon past 2^14), so one seed's hardest problems cannot
#: swamp the total and no call nears 150 ms.
SEARCH_CLASSES = (
    ("xeon-cascadelake-1lm", (0, 2), 12),
    ("xeon-cascadelake-1lm", (0, 2), 14),
    ("xeon-cascadelake-1lm", (0, 1, 2, 3), 6),
    ("xeon-cascadelake-1lm", (0, 1, 2, 3), 7),
    ("knl-snc4-flat", (0, 4), 10),
    ("knl-snc4-flat", (0, 4), 12),
)
TOP_KS = (1, 8, 64)
PROBLEMS_PER_CLASS = 40
ORACLE_MAX_SPACE = 4096
#: Calls in the traced prefix: the three Graph500 calls and six rounds.
SEARCH_TRACE_CALLS = 3 + 6 * len(SEARCH_CLASSES) * len(TOP_KS)


def _random_phases(rng: random.Random, n_buffers: int):
    from repro.sim import BufferAccess, KernelPhase, PatternKind

    names = [f"b{i:02d}" for i in range(n_buffers)]
    sizes = {n: rng.choice((8, 32, 128, 512)) * MiB for n in names}
    n_phases = rng.randint(2, 4)
    members: list[set[str]] = [set() for _ in range(n_phases)]
    for i, name in enumerate(names):  # every buffer is in some phase
        members[i % n_phases].add(name)
    for phase in members:
        phase.update(n for n in names if rng.random() < 0.3)
    phases = []
    for p, phase in enumerate(members):
        accesses = []
        for name in sorted(phase):
            ws = sizes[name]
            accesses.append(
                BufferAccess(
                    buffer=name,
                    pattern=rng.choice(list(PatternKind)),
                    bytes_read=rng.uniform(0.5, 8.0) * ws,
                    bytes_written=rng.uniform(0.1, 2.0) * ws if rng.random() < 0.5 else 0.0,
                    working_set=ws,
                )
            )
        phases.append(
            KernelPhase(name=f"p{p}", threads=rng.choice((8, 16, 32)),
                        accesses=tuple(accesses))
        )
    return tuple(phases), sizes


def search_calls(seed: int) -> list[tuple]:
    """``(platform, nodes, phases, sizes, top_k)`` in the fixed call order:
    Graph500 first, then rounds of one problem per class at every top_k."""
    from repro.apps.graph500 import Graph500Config, TrafficModel

    model = TrafficModel.analytic(20)
    g500 = model.phases(Graph500Config(scale=20, nroots=1, threads=16), per_level=True)
    calls = [("xeon-cascadelake-1lm", (0, 1, 2, 3), g500, model.buffer_sizes(), k)
             for k in TOP_KS]
    rng = random.Random(f"search/{seed}")
    for _ in range(PROBLEMS_PER_CLASS):
        for platform, nodes, n_buffers in SEARCH_CLASSES:
            phases, sizes = _random_phases(rng, n_buffers)
            calls.extend((platform, nodes, phases, sizes, k) for k in TOP_KS)
    return calls


def search_oracle(engine, phases, nodes) -> tuple[tuple, float]:
    """Brute force over ``itertools.product``: best (assignment, seconds)
    under the search's ``(seconds, assignment)`` order."""
    from repro.sim import Placement

    buffers = tuple(sorted({a.buffer for p in phases for a in p.accesses}))
    phase_buffers = [tuple(a.buffer for a in p.accesses) for p in phases]
    prepared = [engine.prepare_phase(p) for p in phases]
    memo: dict[tuple, float] = {}
    best = None
    for combo in product(nodes, repeat=len(buffers)):
        assignment = dict(zip(buffers, combo))
        seconds = 0.0
        for i, bufs in enumerate(phase_buffers):
            key = (i, tuple(assignment[b] for b in bufs))
            priced = memo.get(key)
            if priced is None:
                placement = Placement({b: {assignment[b]: 1.0} for b in bufs})
                priced = engine.price_prepared(prepared[i], placement).seconds
                memo[key] = priced
            seconds += priced
        if best is None or (seconds, combo) < best:
            best = (seconds, combo)
    return tuple(zip(buffers, best[1])), best[0]


class SearchWorkload:
    """One unit is one ``search_placements`` call with a fresh engine."""

    unit = "call"
    trace_units = SEARCH_TRACE_CALLS

    def __init__(self, seed: int) -> None:
        import repro
        import repro.sensitivity.search as search_module

        self.search = search_module
        self.setups = {p: repro.quick_setup(p) for p in
                       ("xeon-cascadelake-1lm", "knl-snc4-flat")}
        self.seed = seed
        self.units = search_calls(seed)
        self.first: dict[int, object] = {}

    def regenerated(self) -> bool:
        return digest(search_calls(self.seed)) == digest(self.units)

    def run_unit(self, i: int) -> list[float]:
        from repro.sim import SimEngine

        platform, nodes, phases, sizes, top_k = self.units[i]
        setup = self.setups[platform]
        engine = SimEngine(setup.machine, setup.topology)
        start = time.perf_counter()
        # Looked up on the module at call time, so the traced run sees
        # the wrapped function.
        result = self.search.search_placements(
            engine, phases, sizes, nodes, default_node=nodes[0], top_k=top_k
        )
        elapsed = time.perf_counter() - start
        self.first.setdefault(i, result)
        return [elapsed]

    def facts(self, count: int) -> dict:
        """Exact counts over the first ``count`` calls."""
        results = [self.first[i] for i in range(count)]
        space = sum(r.stats.space_size for r in results)
        return {
            "modeled_s": sum(r.best.seconds for r in results),
            "leaves_ratio": sum(r.stats.leaves_priced for r in results) / space,
            "bound_pricings": sum(r.stats.bound_pricings for r in results),
            "slice_pricings": sum(r.stats.slice_pricings for r in results),
        }

    def check(self) -> list[str]:
        """Every problem with a space <= 4096 matches the brute force."""
        from repro.sim import SimEngine

        for i in range(len(self.units)):
            if i not in self.first:
                self.run_unit(i)
        errors = []
        oracle: dict[int, tuple] = {}
        for i, (platform, nodes, phases, _, _) in enumerate(self.units):
            result = self.first[i]
            if result.stats.space_size > ORACLE_MAX_SPACE:
                continue
            if id(phases) not in oracle:
                setup = self.setups[platform]
                oracle[id(phases)] = search_oracle(
                    SimEngine(setup.machine, setup.topology), phases, nodes
                )
            assignment, seconds = oracle[id(phases)]
            if result.best.assignment != assignment or result.best.seconds != seconds:
                errors.append(f"search call {i}: optimum differs from brute force")
        log(f"  search: {len(oracle)} problems matched the brute-force oracle")
        return errors


# ======================================================================
# guidance: closed loop over GuidanceLoop intervals
# ======================================================================
KNL_PUS = tuple(range(64))
PEBS_PERIOD = 32768
GUIDANCE_INTERVALS = 16
#: Sampler seeds per workload in one pass over the input list.
GUIDANCE_SEEDS = 16
#: Runs in the traced prefix (of 2 * GUIDANCE_SEEDS per pass).
GUIDANCE_TRACE_RUNS = 16
#: Seeds replayed twice by the determinism check.
REPLAY_SEEDS = 3
#: Same tiering configuration as benchmarks/bench_guidance.py.
TIER_CFG = dict(
    fast_nodes=(4,),
    slow_nodes=(0,),
    migration_budget_bytes=8 * 10**9,
    demotion_threshold=0.5,
    decay=0.25,
)


class GuidanceWorkload:
    """One unit is one guided run: a fresh 2 MiB-page kernel, auto-tier
    daemon and PEBS sampler, then every interval of one phased workload."""

    unit = "interval"
    trace_units = GUIDANCE_TRACE_RUNS

    def __init__(self, seed: int) -> None:
        import repro
        from repro.apps import phased_graph500, rotating_triad

        self.setup = repro.quick_setup("knl-snc4-flat")
        self.workloads = {
            "rotating_triad": rotating_triad(
                buffers=4, buffer_bytes=2 * 10**9, intervals=GUIDANCE_INTERVALS,
                rotate_every=4, hot_sweeps=24,
            ),
            "phased_graph500": phased_graph500(
                intervals=GUIDANCE_INTERVALS, rotate_every=4, hot_sweeps=24
            ),
        }
        self.seed = seed
        self.units = self._runs(seed)
        self.first: dict[int, list] = {}

    @staticmethod
    def _runs(seed: int) -> list[tuple[str, int]]:
        """``(workload, sampler seed)``: a fixed seed range per ``--seed``."""
        base = 1000 * seed
        return [(w, base + s) for s in range(GUIDANCE_SEEDS)
                for w in ("rotating_triad", "phased_graph500")]

    def regenerated(self) -> bool:
        return self._runs(self.seed) == self.units

    def loop(self, workload: str, sampler_seed: int):
        from repro.kernel.autotier import AutoTierDaemon, TierConfig
        from repro.kernel.pagealloc import KernelMemoryManager
        from repro.kernel.policy import bind_policy
        from repro.profiler import GuidanceLoop, PebsSampler

        km = KernelMemoryManager(self.setup.machine, page_size=2 * MiB)
        daemon = AutoTierDaemon(km, TierConfig(**TIER_CFG))
        w = self.workloads[workload]
        for name in w.buffers:
            daemon.track(name, km.allocate(w.buffer_bytes[name], bind_policy(0)))
        return GuidanceLoop(
            daemon,
            sampler=PebsSampler(period=PEBS_PERIOD, seed=sampler_seed),
            engine=self.setup.engine,
            pus=KNL_PUS,
        )

    def run_unit(self, i: int) -> list[float]:
        workload, sampler_seed = self.units[i]
        loop = self.loop(workload, sampler_seed)
        times = []
        reports = []
        for k, interval in enumerate(self.workloads[workload]):
            start = time.perf_counter()
            reports.append(loop.run_interval(interval, k))
            times.append(time.perf_counter() - start)
        self.first.setdefault(i, reports)
        return times

    def facts(self, count: int) -> dict:
        """Exact counts over the first ``count`` runs."""
        reports = [r for i in range(count) for r in self.first[i]]
        return {
            "modeled_s": sum(r.total_seconds for r in reports),
            "step_ratio": sum(1 for r in reports if r.step is not None) / len(reports),
        }

    def _fingerprint(self, workload: str, sampler_seed: int) -> str:
        """Estimates, migrations and final page maps of one run, hashed."""
        loop = self.loop(workload, sampler_seed)
        h = hashlib.sha256()
        for k, interval in enumerate(self.workloads[workload]):
            report = loop.run_interval(interval, k)
            est = report.estimate
            h.update(repr((sorted(est.estimated_bytes.items()),
                           sorted(est.samples.items()),
                           est.raw_samples, est.dropped_samples)).encode())
            if report.step is not None:
                h.update(repr((report.step.promoted, report.step.demoted)).encode())
                for m in report.step.migrations:
                    h.update(repr((m.to_node, m.from_nodes, m.moved_pages,
                                   m.bytes_moved)).encode())
        for name, alloc in sorted(loop.daemon.tracked_allocations().items()):
            h.update(repr((name, sorted(alloc.pages_by_node.items()))).encode())
        return h.hexdigest()

    def check(self) -> list[str]:
        """Three seeds replayed twice give identical fingerprints."""
        errors = []
        for workload, sampler_seed in self.units[: 2 * REPLAY_SEEDS]:
            if self._fingerprint(workload, sampler_seed) != self._fingerprint(
                workload, sampler_seed
            ):
                errors.append(f"guidance {workload} seed {sampler_seed}: replay differs")
        return errors


# ======================================================================
# closed loop shared by search and guidance
# ======================================================================
def build_closed(name: str, seed: int):
    return SearchWorkload(seed) if name == "search" else GuidanceWorkload(seed)


def closed_pass(work, count: int) -> tuple[float, float, int]:
    """Run the first ``count`` units once; ``(wall seconds, seconds inside
    the units, operations)``."""
    start = time.perf_counter()
    busy = 0.0
    ops = 0
    for i in range(count):
        t = time.perf_counter()
        ops += len(work.run_unit(i))
        busy += time.perf_counter() - t
    return time.perf_counter() - start, busy, ops


def setup_probe(args) -> float:
    """Set-up time of a fresh process: imports, quick_setup, inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_closed(args) -> dict:
    """Cycle through the unit list until ``--seconds`` have passed.

    Every operation (a search call, a guidance interval) is timed on
    every pass; building a unit's fresh engine or kernel is not.
    Throughput is all operations run over their summed time, and the
    latencies are taken over every operation run; both are scaled by the
    host factor (:class:`measure.HostSpeed`), whose reference kernel runs
    after a unit whenever REFERENCE_EVERY_S of operation time has passed
    since it last ran.  Means throughout: a slow spell of the host
    lengthens the operations and the reference passes it covers alike.
    """
    work = build_closed(args.workload, args.seed)
    own_setup = time.perf_counter() - T_START
    errors = [] if work.regenerated() else ["same seed generated different inputs"]
    if args.trace:
        return trace_closed(args, work, errors)
    setups = [own_setup] + [
        setup_probe(args) for _ in range(SETUP_SAMPLES // 2)
    ]

    n = len(work.units)
    speed = HostSpeed()
    op_times: list[float] = []
    since_reference = 0.0
    deadline = time.perf_counter() + args.seconds
    runs = 0
    while time.perf_counter() < deadline:
        times = work.run_unit(runs % n)
        op_times += times
        since_reference += sum(times)
        runs += 1
        if since_reference >= REFERENCE_EVERY_S:
            speed.sample()
            since_reference = 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [setup_probe(args) for _ in range(SETUP_SAMPLES // 2)]
    errors += work.check()
    factor = speed.factor()
    raw_ops = len(op_times) / sum(op_times)
    metrics = {
        "setup_s": metric(median(setups), "s", "lower", "wall", samples=setups),
        "ops_per_s": metric(raw_ops * factor, "1/s", "higher", "wall", raw=raw_ops),
        **latency_metrics([1e3 * t / factor for t in op_times], per=work.unit),
        "rss_mb": metric(rss, "MiB", "lower", "wall"),
    }
    return {
        "metrics": metrics,
        "shape": {"loop": "closed", "units": n, "unit_runs": runs,
                  "host_factor": factor, "reference_passes": len(speed.samples)},
        "attempted": len(op_times),
        "failed": 0,
        "errors": errors,
    }


def trace_closed(args, work, errors: list[str]) -> dict:
    """A fixed prefix untraced, then traced with the layer wrappers."""
    count = work.trace_units
    closed_pass(work, count)  # warm the process: first-call costs are set-up
    plain_wall, _, ops = closed_pass(work, count)
    recorder = Recorder()
    recorder.install()
    try:
        t0 = time.perf_counter()
        traced_wall, busy, _ = closed_pass(work, count)
        t1 = time.perf_counter()
    finally:
        recorder.uninstall()
    summary = summarize(recorder.names, recorder.spans, (t0, t1))
    trace_path = str(Path(args.out) / f"{args.workload}.seed{args.seed}.chrome.json")
    write_chrome_trace(recorder.names, recorder.spans, trace_path)
    facts = {**work.facts(count), "trace_overhead": traced_wall / plain_wall,
             "busy_s": busy}
    untraced = untraced_share(summary, busy)
    if abs(untraced) > ACCOUNTING_TOLERANCE:
        errors = errors + [f"spans cover {1 - untraced:.1%} of the time the "
                           "harness measured inside the units"]
    errors = errors + work.check()
    return traced_result(summary, facts, errors, attempted=3 * ops, failed=0,
                         shape={"prefix_units": count, "chrome_trace": trace_path})


# ======================================================================
# per-layer metrics from a span summary plus workload facts
# ======================================================================
def _mean_self(by_name: dict, *suffixes: str, scale: float = 1e6) -> float:
    calls = self_s = 0.0
    for name, entry in by_name.items():
        if name.endswith(suffixes):
            calls += entry["calls"]
            self_s += entry["self_s"]
    return scale * self_s / calls if calls else 0.0


def layer_metrics(summary: dict, facts: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; a layer a workload leaves idle reads 0."""
    by_name = summary["by_name"]
    by_layer = summary["by_layer"]

    def entries(prefix: str):
        return [(n, e) for n, e in by_name.items() if n.startswith(prefix)]

    commits = [c for n, e in entries("serve.server:ServeCore.apply_run") for c in e["counts"]]
    commit_total = sum(e["total_s"] for _, e in entries("serve.server:ServeCore.apply_run"))
    waits = facts.get("queue_waits_ms", [])
    placed = facts.get("placed", 0)
    alloc_layer = by_layer.get("alloc.allocator", {"self_s": 0.0})
    rank = by_name.get("alloc.allocator:HeterogeneousAllocator.rank_for", {"self_s": 0.0})
    batches = [c for _, e in entries("alloc.allocator:HeterogeneousAllocator.mem_alloc_many")
               for c in e["counts"]]
    kernel_commit = [
        (n, e) for n, e in entries("kernel.pagealloc:KernelMemoryManager.")
        if n.rsplit(".", 1)[1].startswith(("allocate", "place")) or n.endswith(".free")
    ]
    page_counts = [c for _, e in kernel_commit for c in e["counts"]]
    kernel_calls = sum(e["calls"] for _, e in kernel_commit)
    allocations = sum(c[2] for c in page_counts)
    placements = by_name.get("sim.engine:SimEngine.price_placements_batch",
                             {"self_s": 0.0, "counts": []})
    alone = by_name.get("sim.engine:SimEngine.price_accesses_alone_batch",
                        {"self_s": 0.0, "counts": []})
    batch_rows = sum(placements["counts"]) + sum(alone["counts"])
    batch_self = placements["self_s"] + alone["self_s"]
    scalar_calls = by_name.get("sim.engine:SimEngine.price_prepared", {"calls": 0})["calls"]
    search_calls_ = by_name.get("sensitivity.search:search_placements", {"calls": 0})["calls"]
    resilience = by_layer.get("resilience.resilient", {"calls": 0, "self_s": 0.0})
    return {
        "protocol.decode_us": (_mean_self(by_name, ":decode_request"), "us"),
        "protocol.encode_us": (_mean_self(by_name, ":encode_response"), "us"),
        "server.queue_wait_p50_ms": (median(waits) if waits else 0.0, "ms"),
        "server.queue_wait_p99_ms": (tail_percentile(waits)[1] if waits else 0.0, "ms"),
        "server.commit_size_mean": (sum(commits) / len(commits) if commits else 0.0, "count"),
        "server.commit_us_per_req": (1e6 * commit_total / sum(commits) if commits else 0.0, "us"),
        "server.cpu_us_per_req": (facts.get("cpu_us_per_req", 0.0), "us"),
        "resilience.self_us_per_call": (
            1e6 * resilience["self_s"] / resilience["calls"] if resilience["calls"] else 0.0, "us"),
        "resilience.degraded_ratio": (
            facts.get("degraded", 0) / placed if placed else 0.0, "ratio"),
        "alloc.self_us_per_buffer": (
            1e6 * (alloc_layer["self_s"] - rank["self_s"]) / placed if placed else 0.0, "us"),
        "alloc.batch_buffers_mean": (sum(batches) / len(batches) if batches else 0.0, "count"),
        "alloc.plan_hit_ratio": (facts.get("plan_hit_ratio", 0.0), "ratio"),
        "query.rank_us": (_mean_self(by_name, "HeterogeneousAllocator.rank_for"), "us"),
        "querycache.hit_ratio": (facts.get("querycache_hit_ratio", 0.0), "ratio"),
        "kernel.commit_us_per_call": (
            1e6 * sum(e["self_s"] for _, e in kernel_commit) / kernel_calls
            if kernel_calls else 0.0, "us"),
        "kernel.pages_committed": (sum(c[0] for c in page_counts), "count"),
        "kernel.spill_ratio": (sum(c[1] for c in page_counts) / allocations
                               if allocations else 0.0, "ratio"),
        "kernel.migrate_us_per_call": (_mean_self(by_name, "KernelMemoryManager.migrate"), "us"),
        "sim.rows_priced": (sum(placements["counts"]) + scalar_calls, "count"),
        "sim.batch_rows_per_s": (batch_rows / batch_self if batch_self else 0.0, "1/s"),
        "sim.compile_us_per_call": (_mean_self(by_name, "SimEngine.compile_prepared"), "us"),
        "sim.scalar_price_us": (_mean_self(by_name, "SimEngine.price_prepared"), "us"),
        "sim.modeled_s": (facts.get("modeled_s", 0.0), "s"),
        "search.leaves_ratio": (facts.get("leaves_ratio", 0.0), "ratio"),
        "search.bound_pricings": (facts.get("bound_pricings", 0), "count"),
        "search.slice_pricings": (facts.get("slice_pricings", 0), "count"),
        "search.self_ms_per_call": (
            1e3 * by_name.get("sensitivity.search:search_placements", {"self_s": 0.0})["self_s"]
            / search_calls_ if search_calls_ else 0.0, "ms"),
        "pebs.sample_us": (_mean_self(by_name, "PebsSampler.sample"), "us"),
        "autotier.observe_us": (_mean_self(by_name, "AutoTierDaemon.observe"), "us"),
        "autotier.step_us": (_mean_self(by_name, "AutoTierDaemon.step"), "us"),
        "autotier.step_ratio": (facts.get("step_ratio", 0.0), "ratio"),
        "guidance.self_us_per_interval": (_mean_self(by_name, "GuidanceLoop.run_interval"), "us"),
        "bench.gen_late_p99_ms": (facts.get("gen_late_p99_ms", 0.0), "ms"),
        "bench.trace_overhead": (facts.get("trace_overhead", 0.0), "ratio"),
        "bench.untraced_share": (untraced_share(summary, facts["busy_s"]), "ratio"),
    }


#: Per-layer metrics that repeat exactly for the same seed, by ledger kind.
EXACT = {
    "sim.modeled_s": "modeled",
    "sim.rows_priced": "count",
    "search.leaves_ratio": "count",
    "search.bound_pricings": "count",
    "search.slice_pricings": "count",
    "autotier.step_ratio": "count",
}


def untraced_share(summary: dict, busy_s: float) -> float:
    """Share of ``busy_s``, the time measured without spans inside the
    workload, that no synchronous span covers."""
    return (busy_s - summary["sync_self_s"]) / busy_s


def traced_result(summary, facts, errors, *, attempted, failed, shape) -> dict:
    metrics = {
        name: metric(value, unit, "", EXACT.get(name, "wall"))
        for name, (value, unit) in layer_metrics(summary, facts).items()
    }
    layers = {
        layer: {"calls": e["calls"], "self_ms": 1e3 * e["self_s"]}
        for layer, e in sorted(summary["by_layer"].items())
    }
    return {
        "metrics": metrics,
        "shape": {**shape, "wall_s": summary["wall_s"], "busy_s": facts["busy_s"],
                  "sync_self_s": summary["sync_self_s"], "layers": layers},
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


# ======================================================================
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up seconds, exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        build_closed(args.workload, args.seed)
        print(time.perf_counter() - T_START)
        return 0
    Path(args.out).mkdir(parents=True, exist_ok=True)
    pin_cpu(0, last=True)
    runner = run_serve if args.workload in SERVE_PLATFORM else run_closed
    result = runner(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
