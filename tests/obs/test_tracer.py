"""Unit tests for the tracer, its exporters, the global switchboard and
the ``repro-trace`` CLI."""

import json

import pytest

from repro import obs
from repro.obs import OBS, Tracer, to_chrome_trace, to_jsonl
from repro.obs.cli import (
    add_obs_arguments,
    finish_obs,
    load_jsonl,
    spans_to_chrome,
    start_obs,
    summarize,
    trace_main,
)


class Ticker:
    """Deterministic clock: every read advances one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture()
def tracer():
    return Tracer(clock=Ticker())


class TestTracer:
    def test_nesting_assigns_parents_and_depths(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert inner.start > outer.start and inner.end < outer.end

    def test_exception_marks_error_and_propagates(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (record,) = tracer.finished()
        assert record.status == "error"
        assert record.end is not None

    def test_inner_exception_caught_leaves_outer_ok(self, tracer):
        with tracer.span("outer"):
            try:
                with tracer.span("inner"):
                    raise ValueError
            except ValueError:
                pass
        by_name = {r.name: r for r in tracer.finished()}
        assert by_name["inner"].status == "error"
        assert by_name["outer"].status == "ok"

    def test_annotate_attaches_to_innermost(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                tracer.annotate(pages=7)
            assert inner.fields == {"pages": 7}
        tracer.annotate(ignored=True)  # no open span: silently dropped

    def test_open_vs_finished(self, tracer):
        ctx = tracer.span("open")
        ctx.__enter__()
        assert len(tracer.open_spans) == 1
        assert tracer.finished() == ()
        ctx.__exit__(None, None, None)
        assert tracer.open_spans == ()
        assert len(tracer.finished()) == 1

    def test_duration_raises_while_open(self, tracer):
        ctx = tracer.span("open")
        record = ctx.__enter__()
        with pytest.raises(ValueError):
            _ = record.duration
        ctx.__exit__(None, None, None)
        assert record.duration > 0

    def test_injectable_clock_is_deterministic(self):
        def run():
            t = Tracer(clock=Ticker())
            with t.span("a"):
                with t.span("b"):
                    pass
            return [(r.name, r.start, r.end) for r in t.finished()]

        assert run() == run()


class TestExporters:
    def test_jsonl_one_object_per_span(self, tracer):
        with tracer.span("a", k=1):
            with tracer.span("b"):
                pass
        lines = to_jsonl(tracer).splitlines()
        assert len(lines) == 2
        spans = [json.loads(line) for line in lines]
        assert {s["name"] for s in spans} == {"a", "b"}
        assert spans[0]["fields"] == {"k": 1}

    def test_jsonl_empty_tracer(self, tracer):
        assert to_jsonl(tracer) == ""

    def test_chrome_trace_complete_events_in_microseconds(self, tracer):
        with tracer.span("a", node=2):
            pass
        doc = to_chrome_trace(tracer)
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1e6)   # start = 1s
        assert event["dur"] == pytest.approx(1e6)  # end = 2s
        assert event["args"]["node"] == 2
        # The document itself must be JSON-serializable.
        json.dumps(doc)

    def test_open_spans_excluded_from_exports(self, tracer):
        tracer.span("open").__enter__()
        assert to_jsonl(tracer) == ""
        assert to_chrome_trace(tracer)["traceEvents"] == []


class TestSwitchboard:
    def test_disabled_by_default(self):
        # fresh_obs (autouse) resets before each test.
        assert obs.enabled() is False

    def test_enable_disable_reset(self):
        obs.enable()
        assert OBS.enabled and obs.enabled()
        OBS.metrics.counter("x").inc()
        obs.disable()
        assert not obs.enabled()
        # disable keeps the data; reset drops it.
        assert OBS.metrics.value("x") == 1.0
        obs.reset()
        assert OBS.metrics.value("x") == 0.0
        assert OBS.tracer.records == []

    def test_enable_with_clock_swaps_tracer(self):
        obs.enable(clock=Ticker())
        with OBS.tracer.span("a") as record:
            pass
        assert (record.start, record.end) == (1.0, 2.0)


class TestTraceCli:
    def _write_trace(self, tmp_path):
        t = Tracer(clock=Ticker())
        with t.span("mem_alloc", attribute="Bandwidth"):
            with t.span("rank_for"):
                pass
        path = tmp_path / "trace.jsonl"
        path.write_text(to_jsonl(t), encoding="utf-8")
        return path

    def test_summary_output(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert trace_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "mem_alloc" in out and "rank_for" in out

    def test_chrome_conversion(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        out_json = tmp_path / "chrome.json"
        assert trace_main([str(path), "--chrome", str(out_json)]) == 0
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert len(doc["traceEvents"]) == 2
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_load_jsonl_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ok": 1}\nnot-json\n', encoding="utf-8")
        with pytest.raises(SystemExit):
            load_jsonl(str(bad))

    def test_summarize_handles_no_finished_spans(self):
        assert "no finished spans" in summarize([{"name": "open", "end": None}])

    def test_chrome_of_an_archive_equals_the_live_export(self, tracer, tmp_path):
        with tracer.span("outer", node=2):
            with tracer.span("inner", pages=8):
                pass
        try:
            with tracer.span("failed"):
                raise ValueError("boom")
        except ValueError:
            pass
        archive, chrome = tmp_path / "t.jsonl", tmp_path / "t.json"
        archive.write_text(to_jsonl(tracer), encoding="utf-8")
        assert trace_main([str(archive), "--chrome", str(chrome)]) == 0
        converted = json.loads(chrome.read_text(encoding="utf-8"))
        assert len(converted["traceEvents"]) == 3
        assert converted == to_chrome_trace(tracer)

    def test_spans_to_chrome_skips_open_spans(self):
        doc = spans_to_chrome(
            [
                {"name": "open", "end": None, "start": 0.0},
                {"name": "done", "start": 1.0, "end": 2.0},
            ]
        )
        assert [e["name"] for e in doc["traceEvents"]] == ["done"]


class TestObsFlags:
    """The shared --trace/--metrics plumbing used by repro-search and
    repro-experiments."""

    def _args(self, argv):
        import argparse

        parser = argparse.ArgumentParser()
        add_obs_arguments(parser)
        return parser.parse_args(argv)

    def test_no_flags_leaves_obs_disabled(self):
        args = self._args([])
        assert start_obs(args) is False
        assert not obs.enabled()
        finish_obs(args)  # no flags: silently does nothing

    def test_trace_flag_enables_and_writes(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        args = self._args(["--trace", str(out)])
        assert start_obs(args) is True
        with OBS.tracer.span("work"):
            pass
        finish_obs(args)
        assert json.loads(out.read_text(encoding="utf-8"))["name"] == "work"
        assert "repro-trace" in capsys.readouterr().out  # conversion hint

    def test_metrics_flag_stdout_and_file(self, tmp_path, capsys):
        args = self._args(["--metrics"])
        assert args.metrics == "-"
        start_obs(args)
        OBS.metrics.counter("alloc.requests").inc()
        finish_obs(args)
        assert "alloc_requests_total 1.0" in capsys.readouterr().out
        out = tmp_path / "m.prom"
        args = self._args(["--metrics", str(out)])
        start_obs(args)
        OBS.metrics.counter("alloc.requests").inc()
        finish_obs(args)
        assert "alloc_requests_total" in out.read_text(encoding="utf-8")
