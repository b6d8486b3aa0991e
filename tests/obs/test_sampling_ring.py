"""Ring-buffer and sampling invariants of low-overhead telemetry.

Property suite for the bounded span store and the ``mem_alloc``
sampling gate:

* **ring accounting** — for random span trees and any capacity ``C``,
  the store retains exactly ``min(total, C)`` records and counts exactly
  ``max(0, total - C)`` evictions;
* **well-nesting survives the wrap** — evicting whole records (never
  truncating one) keeps every retained pair of finished spans pairwise
  disjoint-or-nested;
* **request sampling is all-or-nothing** — with
  ``obs.enable(sample_every=N)`` every N-th ``mem_alloc`` request,
  starting with the first, records its ``mem_alloc`` span together with
  its per-request ``alloc.*`` metrics, the others record neither, the
  countdown stays in step when a request raises, and every other span is
  recorded in full (so no recorded span loses its parent).
"""

import math
import random

import pytest

from repro import obs
from repro.errors import AllocationError
from repro.obs import OBS
from repro.obs.tracer import Tracer
from repro.units import MB


class Ticker:
    """Deterministic clock: every read advances one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def random_walk(tracer: Tracer, rng: random.Random, n_spans: int) -> int:
    """Open/close ``n_spans`` spans in a random well-nested order.

    Returns the number of *root* spans the walk opened.
    """
    stack = []
    opened = roots = 0
    while opened < n_spans or stack:
        if opened < n_spans and (not stack or rng.random() < 0.55):
            if not stack:
                roots += 1
            ctx = tracer.span(f"s{opened}", step=opened)
            ctx.__enter__()
            stack.append(ctx)
            opened += 1
        else:
            stack.pop().__exit__(None, None, None)
    return roots


def assert_well_nested(records) -> None:
    """Every pair of finished intervals is disjoint or nested."""
    finished = [r for r in records if r.end is not None]
    for i, a in enumerate(finished):
        for b in finished[i + 1:]:
            disjoint = a.end <= b.start or b.end <= a.start
            nested = (a.start <= b.start and b.end <= a.end) or (
                b.start <= a.start and a.end <= b.end
            )
            assert disjoint or nested, (
                f"spans {a.name} [{a.start},{a.end}] and "
                f"{b.name} [{b.start},{b.end}] partially overlap"
            )


class TestRingBuffer:
    @pytest.mark.parametrize("seed", range(40))
    def test_drop_accounting_on_wrap(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(1, 24)
        n_spans = rng.randint(0, 60)
        tracer = Tracer(clock=Ticker(), ring_capacity=capacity)
        random_walk(tracer, rng, n_spans)
        assert len(tracer.records) == min(n_spans, capacity)
        assert tracer.dropped_spans == max(0, n_spans - capacity)
        assert tracer.open_spans == ()

    @pytest.mark.parametrize("seed", range(40))
    def test_retained_spans_stay_well_nested(self, seed):
        rng = random.Random(1000 + seed)
        tracer = Tracer(clock=Ticker(), ring_capacity=rng.randint(2, 16))
        random_walk(tracer, rng, rng.randint(10, 50))
        assert_well_nested(tracer.records)

    def test_evicts_oldest_whole_records(self):
        tracer = Tracer(clock=Ticker(), ring_capacity=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [r.name for r in tracer.records] == ["b", "c"]
        assert tracer.dropped_spans == 1
        # Evicted records are gone entirely — never a truncated tail.
        assert all(r.end is not None for r in tracer.records)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(ring_capacity=0)


def _alloc_spans():
    return [r for r in OBS.tracer.records if r.name == "mem_alloc"]


def _total(metric: str, key: str = "value") -> float:
    return sum(e[key] for e in OBS.metrics.as_dict().get(metric, ()))


class TestRootSampling:
    """``obs.enable(sample_every=N)`` samples ``mem_alloc`` requests."""

    @pytest.mark.parametrize("sample_every", (2, 3, 7))
    @pytest.mark.parametrize("n_roots", (1, 5, 20))
    def test_keeps_every_nth_root_starting_with_the_first(
        self, xeon_allocator, sample_every, n_roots
    ):
        obs.enable(clock=Ticker(), sample_every=sample_every)
        for i in range(n_roots):
            xeon_allocator.mem_alloc(MB, "Bandwidth", 0, name=f"root{i}")
        kept = math.ceil(n_roots / sample_every)
        assert [r.fields["buffer"] for r in _alloc_spans()] == [
            f"root{i}" for i in range(0, n_roots, sample_every)
        ]
        assert OBS.metrics.value("alloc.requests", attribute="Bandwidth") == kept
        assert len(xeon_allocator.buffers) == n_roots

    @pytest.mark.parametrize("seed", range(30))
    def test_all_or_nothing_no_orphan_children(self, xeon_allocator, seed):
        rng = random.Random(2000 + seed)
        every = rng.randint(2, 5)
        obs.enable(clock=Ticker(), sample_every=every)
        placed: list[str] = []   # buffer name of each request, in order
        live = []
        app_spans = []
        opened = 0
        for _ in range(rng.randint(5, 40)):
            roll = rng.random()
            if roll < 0.15:
                ctx = OBS.tracer.span("app")
                ctx.__enter__()
                app_spans.append(ctx)
                opened += 1
            elif roll < 0.3 and app_spans:
                app_spans.pop().__exit__(None, None, None)
            elif roll < 0.45 and live:
                xeon_allocator.free(live.pop(rng.randrange(len(live))))
            else:
                buf = xeon_allocator.mem_alloc(
                    rng.choice((MB, 2 * MB)),
                    rng.choice(("Bandwidth", "Latency", "Capacity")),
                    0,
                )
                placed.append(buf.name)
                live.append(buf)
        while app_spans:
            app_spans.pop().__exit__(None, None, None)
        kept = placed[::every]
        # The sampled-in requests record span and metrics together...
        assert [r.fields["buffer"] for r in _alloc_spans()] == kept
        assert _total("alloc.requests") == len(kept)
        assert _total("alloc.placed") == len(kept)
        assert _total("alloc.fallback_rank", "count") == len(kept)
        # ...and every other span is recorded, so none is orphaned.
        assert sum(r.name == "app" for r in OBS.tracer.records) == opened
        ids = {r.span_id for r in OBS.tracer.records}
        for r in OBS.tracer.records:
            if r.parent_id is not None:
                assert r.parent_id in ids
        assert OBS.tracer.open_spans == ()
        assert_well_nested(OBS.tracer.records)

    def test_kernel_counters_exact_under_sampling(self, xeon_allocator):
        """A recycled (pooled) commit counts in ``kernel.*`` whether its
        request is sampled in or not, like a commit that reaches the
        kernel."""
        xeon_allocator.free(xeon_allocator.mem_alloc(MB, "Bandwidth", 0))
        obs.enable(clock=Ticker(), sample_every=4)
        for _ in range(40):
            xeon_allocator.free(xeon_allocator.mem_alloc(MB, "Bandwidth", 0))
        assert OBS.metrics.value("alloc.requests", attribute="Bandwidth") == 10
        assert OBS.metrics.value("kernel.allocations") == 40
        pages = -(-MB // xeon_allocator.kernel.page_size)
        assert OBS.metrics.value("kernel.pages_allocated") == 40 * pages

    def test_suppression_balances_across_exceptions(self, xeon_allocator):
        obs.enable(clock=Ticker(), sample_every=2)
        xeon_allocator.mem_alloc(MB, "Bandwidth", 0, name="kept")    # 0: in
        with pytest.raises(AllocationError):
            xeon_allocator.mem_alloc(0, "Bandwidth", 0)               # 1: out
        with pytest.raises(AllocationError):
            xeon_allocator.mem_alloc(0, "Bandwidth", 0)               # 2: in
        xeon_allocator.mem_alloc(MB, "Bandwidth", 0, name="dropped")  # 3: out
        xeon_allocator.mem_alloc(MB, "Bandwidth", 0, name="kept-again")
        spans = _alloc_spans()
        assert [r.status for r in spans] == ["ok", "error", "ok"]
        assert [r.fields.get("buffer") for r in spans] == [
            "kept", None, "kept-again"
        ]
        assert OBS.tracer.open_spans == ()

    def test_sampling_composes_with_the_ring(self, xeon_allocator):
        obs.enable(clock=Ticker(), sample_every=2, ring_capacity=3)
        for i in range(10):
            xeon_allocator.mem_alloc(MB, "Bandwidth", 0, name=f"root{i}")
        # 5 requests recorded (0, 2, 4, 6, 8), the ring keeps the last 3.
        assert [r.fields["buffer"] for r in OBS.tracer.records] == [
            "root4", "root6", "root8"
        ]
        assert OBS.tracer.dropped_spans == 2
        assert OBS.metrics.value("alloc.requests", attribute="Bandwidth") == 5

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            obs.enable(sample_every=0)
        assert not OBS.enabled
