"""Observability-layer tests: tracer, metrics, export, logging, CLI.

The acceptance bar: a disabled tracer is effectively free (shared
null handle, generous absolute overhead bound), spans nest correctly
per thread and across threads, a real P=4 speedup export passes the
Chrome-trace schema check with dispatch / stall / squash / commit
present for both engines, and the metrics adapters round-trip the
existing telemetry objects without losing a counter.
"""

import io
import json
import threading
import time

import pytest

import repro.obs as obs
from repro.bench.workloads import generate
from repro.obs.export import (
    ChromeTraceBuilder,
    summarize_trace,
    validate_chrome_trace,
)
from repro.obs.log import configure_logging, get_logger, reset_logging
from repro.obs.metrics import (
    MetricsRegistry,
    ingest_execution_stats,
    ingest_recording,
    metrics_registry,
    percentile,
    stddev,
    validate_metrics,
)
from repro.obs.tracer import TRACER, span_tree, traced
from repro.obs.__main__ import main as obs_main
from repro.timing import CostModel, speculative_makespan

COST = CostModel()


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with observability disarmed."""
    obs.disable()
    TRACER.reset()
    metrics_registry().reset()
    reset_logging()
    yield
    obs.disable()
    TRACER.reset()
    metrics_registry().reset()
    reset_logging()


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_returns_shared_null_handle(self):
        first = TRACER.span("a", x=1)
        second = TRACER.span("b")
        assert first is second  # no allocation on the disabled path
        with first as handle:
            handle.set(anything=True)  # all no-ops
        TRACER.event("never-recorded")
        assert TRACER.finished_spans() == []
        assert TRACER.events() == []

    def test_disabled_overhead_is_negligible(self):
        # Generous absolute bound: 200k disabled span + event calls in
        # under a second (they are one attribute check each; even a
        # loaded CI box does this in a few hundredths).
        t0 = time.perf_counter()
        for _ in range(200_000):
            TRACER.span("hot")
            TRACER.event("hot")
        assert time.perf_counter() - t0 < 1.0

    def test_span_nesting_and_attributes(self):
        TRACER.enable()
        with TRACER.span("outer", category="test", region="r") as outer:
            with TRACER.span("inner", category="test") as inner:
                inner.set(depth=2)
            outer.set(done=True)
        spans = TRACER.finished_spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].attributes == {"depth": 2}
        assert by_name["outer"].attributes == {"region": "r", "done": True}
        assert by_name["outer"].duration_ns >= by_name["inner"].duration_ns
        tree = span_tree(spans)
        assert [s.name for s in tree[None]] == ["outer"]
        assert [s.name for s in tree[by_name["outer"].span_id]] == ["inner"]

    def test_events_attach_to_current_span(self):
        TRACER.enable()
        with TRACER.span("parent") as handle:
            TRACER.event("marker", age=3)
        (event,) = TRACER.events()
        assert event.name == "marker"
        assert event.parent_id == handle.span.span_id
        assert event.attributes == {"age": 3}

    def test_exception_recorded_and_stack_unwound(self):
        TRACER.enable()
        with pytest.raises(ValueError):
            with TRACER.span("boom"):
                raise ValueError("nope")
        (span,) = TRACER.finished_spans()
        assert span.attributes["error"] == "ValueError"
        assert TRACER.current_span() is None

    def test_thread_safety_and_per_thread_stacks(self):
        TRACER.enable()
        workers = 8
        spans_per_worker = 25
        barrier = threading.Barrier(workers)

        def work(index):
            barrier.wait()
            for i in range(spans_per_worker):
                with TRACER.span(f"w{index}", category="test", i=i):
                    with TRACER.span(f"w{index}.child", category="test"):
                        TRACER.event(f"w{index}.event")

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = TRACER.finished_spans()
        assert len(spans) == workers * spans_per_worker * 2
        assert len(TRACER.events()) == workers * spans_per_worker
        # Every child's parent lives on the same thread: no cross-thread
        # stack contamination.
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert by_id[span.parent_id].thread_id == span.thread_id
                assert by_id[span.parent_id].name == span.name.split(".")[0]
        # Span ids are unique across threads.
        assert len(by_id) == len(spans)

    def test_traced_decorator(self):
        calls = []

        @traced("decorated.call", category="test")
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(2) == 4  # disabled: wrapper short-circuits
        assert TRACER.finished_spans() == []
        TRACER.enable()
        assert fn(3) == 6
        (span,) = TRACER.finished_spans()
        assert span.name == "decorated.call"
        assert calls == [2, 3]

    def test_snapshot_schema(self):
        TRACER.enable()
        with TRACER.span("s"):
            TRACER.event("e")
        payload = TRACER.snapshot()
        assert payload["schema"] == "repro.obs.spans/v1"
        assert len(payload["spans"]) == 1
        assert len(payload["events"]) == 1
        json.dumps(payload)  # JSON-ready


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.add(0.5)
        assert gauge.value == 3.0
        histogram = registry.histogram("h")
        for v in (1, 2, 3, 4, 100):
            histogram.observe(v)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["sum"] == 110
        assert summary["min"] == 1 and summary["max"] == 100
        assert summary["p50"] == 3
        # create-or-get: same instrument comes back.
        assert registry.counter("c") is counter

    def test_percentile_and_stddev(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 95) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert stddev([]) == 0.0
        assert stddev([5.0]) == 0.0
        assert stddev([2.0, 4.0]) == 1.0

    def test_execution_stats_round_trip(self):
        workload = generate("stencil", size=8, statements=3)
        from repro.runtime.engines import CASEEngine

        result = CASEEngine(workload.program, window=4, capacity=None).run()
        registry = MetricsRegistry()
        ingested = ingest_execution_stats(result.stats, registry=registry)
        expected = result.stats.as_dict()
        snapshot = registry.snapshot()
        for name, value in expected.items():
            assert snapshot["counters"][f"runtime.{name}"] == int(value)
            assert ingested[f"runtime.{name}"] == int(value)
        assert validate_metrics(snapshot) == []

    def test_recording_round_trip(self):
        from repro.runtime.engines import HOSEEngine
        from repro.timing.events import TimingRecorder

        workload = generate("stencil", size=8, statements=3)
        recorder = TimingRecorder(COST)
        HOSEEngine(
            workload.program, window=4, capacity=None, recorder=recorder
        ).run()
        recording = recorder.recording()
        registry = MetricsRegistry()
        ingested = ingest_recording(recording, registry=registry)
        summary = recording.summary()
        snapshot = registry.snapshot()
        for name in (
            "regions",
            "segments",
            "attempts",
            "squashed_attempts",
            "committed_segments",
            "busy_cycles",
        ):
            assert snapshot["counters"][f"timing.{name}"] == summary[name]
            assert ingested[f"timing.{name}"] == summary[name]
        histogram = snapshot["histograms"]["timing.attempt_cycles"]
        assert histogram["count"] == summary["attempts"]
        assert histogram["sum"] == summary["busy_cycles"]

    def test_recording_as_dict_schema(self):
        from repro.runtime.engines import CASEEngine
        from repro.timing.events import TimingRecorder

        workload = generate("reduction", size=8, statements=3)
        recorder = TimingRecorder(COST)
        CASEEngine(
            workload.program, window=4, capacity=8, recorder=recorder
        ).run()
        payload = recorder.recording().as_dict()
        assert payload["schema"] == "repro.timing.recording/v1"
        assert payload["engine"] == "case"
        kinds = {section["type"] for section in payload["sections"]}
        assert "region" in kinds
        region = next(s for s in payload["sections"] if s["type"] == "region")
        segment = region["segments"][0]
        assert {"key", "age", "outcome", "attempts"} <= set(segment)
        json.dumps(payload)  # JSON-ready end to end

    def test_cache_hit_miss_counters_when_collecting(self):
        from repro.analysis.cache import AnalysisCache
        from repro.idempotency.labeling import label_region

        workload = generate("stencil", size=6, statements=2)
        region = workload.program.regions[0]
        registry = metrics_registry()
        registry.enable()
        cache = AnalysisCache()
        label_region(region, cache=cache)
        label_region(region, cache=cache)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["analysis.cache.hits"] == cache.hits
        assert snapshot["counters"]["analysis.cache.misses"] == cache.misses
        assert cache.hits > 0 and cache.misses > 0

    def test_validate_metrics_catches_breakage(self):
        assert validate_metrics([]) != []
        assert validate_metrics({"schema": "nope"}) != []
        bad = {
            "schema": "repro.obs.metrics/v1",
            "counters": {"c": -1},
            "gauges": {"g": "high"},
            "histograms": {"h": {"count": 1}},
        }
        errors = validate_metrics(bad)
        assert any("counter" in e for e in errors)
        assert any("gauge" in e for e in errors)
        assert any("histogram" in e for e in errors)


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
def _speedup_trace(tmp_path):
    """A real P=4 export of both engines at tight capacity."""
    builder = ChromeTraceBuilder()
    for family in ("stencil", "reduction"):
        workload = generate(family, size=8, statements=3)
        for engine in ("hose", "case"):
            _, makespan = speculative_makespan(
                workload.program,
                engine=engine,
                processors=4,
                window=8,
                capacity=8,
                cost=COST,
            )
            builder.add_schedule(
                makespan, label=f"{engine} {family} P=4 w=8 c=8"
            )
    path = tmp_path / "trace.json"
    builder.write(str(path), meta={"source": "test"})
    return path


class TestChromeTraceExport:
    def test_speedup_export_is_schema_valid(self, tmp_path):
        path = _speedup_trace(tmp_path)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"] == {"source": "test"}

    def test_speedup_export_shows_lifecycle_for_both_engines(self, tmp_path):
        payload = json.loads(_speedup_trace(tmp_path).read_text())
        events = payload["traceEvents"]
        # One process per engine run, four lanes each (P0..P3).
        processes = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for engine in ("hose", "case"):
            assert any(name.startswith(engine) for name in processes)
        lanes = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert lanes.count("P0") == len(processes)
        assert lanes.count("P3") == len(processes)
        names = {e["name"] for e in events if e["ph"] != "M"}
        assert "dispatch" in names
        assert "squash" in names  # stencil violates at window 8
        assert "commit" in names
        assert any(n.startswith("stall (") for n in names)  # capacity 8
        # Squashed attempts carry the outcome color; commits the good one.
        colors = {
            e.get("cname")
            for e in events
            if e["ph"] == "X" and e.get("cat") == "attempt"
        }
        assert {"good", "terrible"} <= colors

    def test_span_export_with_cross_thread_flow(self):
        TRACER.enable()
        with TRACER.span("root", category="test"):
            TRACER.event("mark")
        spans = TRACER.finished_spans()
        # Graft a child that "ran" on another thread so the exporter's
        # flow-arrow path (cross-thread parent/child edge) is exercised.
        from repro.obs.tracer import Span

        root = spans[0]
        spans.append(
            Span(
                name="remote-leaf",
                category="test",
                span_id=root.span_id + 1000,
                parent_id=root.span_id,
                thread_id=root.thread_id + 1,
                thread_name="worker",
                start_ns=root.start_ns + 10,
                end_ns=root.end_ns,
            )
        )
        builder = ChromeTraceBuilder()
        builder.add_spans(spans, TRACER.events())
        payload = builder.build()
        assert validate_chrome_trace(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "X" in phases and "i" in phases
        assert {"s", "f"} <= phases  # the flow arrow made it out
        info = summarize_trace(payload)
        assert info["slices"] == len(spans)
        assert info["instant_events"] == 1

    def test_empty_trace_fails_validation(self):
        assert validate_chrome_trace({"traceEvents": []}) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 1, "name": "x"}]}
        ) != []


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestStructuredLogging:
    def test_human_mode_prefixes(self, capsys):
        log = get_logger("unit")
        log.info("hello", key="value")
        log.warning("careful")
        captured = capsys.readouterr()
        assert "[unit] hello key=value" in captured.out
        assert "[unit] WARNING: careful" in captured.err

    def test_quiet_suppresses_info_keeps_warnings(self, capsys):
        configure_logging(quiet=True)
        log = get_logger("unit")
        log.info("chatter")
        log.warning("kept")
        captured = capsys.readouterr()
        assert "chatter" not in captured.out
        assert "kept" in captured.err

    def test_json_lines_mode(self):
        stream = io.StringIO()
        configure_logging(json_lines=True, stream=stream)
        log = get_logger("unit")
        log.info("event", family="stencil", count=3)
        log.error("bad")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0]["logger"] == "unit"
        assert lines[0]["level"] == "info"
        assert lines[0]["msg"] == "event"
        assert lines[0]["family"] == "stencil"
        assert lines[0]["count"] == 3
        assert lines[1]["level"] == "error"


# ----------------------------------------------------------------------
# python -m repro.obs CLI
# ----------------------------------------------------------------------
class TestObsCli:
    def test_validate_ok_and_summary(self, tmp_path, capsys):
        trace_path = _speedup_trace(tmp_path)
        registry = MetricsRegistry()
        registry.counter("demo.count").inc(3)
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps(registry.snapshot()))
        assert obs_main(["validate", str(trace_path), str(metrics_path)]) == 0
        assert obs_main(["summary", str(trace_path), str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "OK (trace)" in out and "OK (metrics)" in out
        assert "demo.count = 3" in out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"neither": True}))
        assert obs_main(["validate", str(bad)]) == 1
        missing = tmp_path / "missing.json"
        assert obs_main(["validate", str(missing)]) == 1

    def test_validate_rejects_broken_trace(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text(
            json.dumps({"traceEvents": [{"ph": "X", "name": "n"}]})
        )
        assert obs_main(["validate", str(broken)]) == 1


# ----------------------------------------------------------------------
# engine instrumentation end to end
# ----------------------------------------------------------------------
class TestEngineInstrumentation:
    def test_engine_run_emits_lifecycle_spans_and_events(self):
        from repro.runtime.engines import HOSEEngine

        workload = generate("stencil", size=8, statements=3)
        obs.enable()
        result = HOSEEngine(workload.program, window=4, capacity=8).run()
        names = {s.name for s in TRACER.finished_spans()}
        assert {"engine.run", "engine.region"} <= names
        event_names = {e.name for e in TRACER.events()}
        assert "engine.dispatch" in event_names
        assert "engine.commit" in event_names
        assert "engine.squash" in event_names  # stencil violates
        assert not result.degraded

    @pytest.mark.parametrize("stale", [False, True])
    def test_batched_stencil_lifecycle_events(self, monkeypatch, stale):
        # The serve-mix stencil under CASE at capacity 8 overflows on
        # every attempt.  Valid logs drain the stalled head; stale ones
        # (forced) squash it and re-execute it write-through.
        from test_batch import MIX_STENCIL

        from repro.ir.dsl import parse_program
        from repro.runtime import batch as batch_mod
        from repro.runtime.engines import CASEEngine

        if stale:
            validate = batch_mod._BatchScheduler._validate
            monkeypatch.setattr(
                batch_mod._BatchScheduler,
                "_validate",
                lambda self, task: False if task.stalled else validate(self, task),
            )
        program = parse_program(MIX_STENCIL)
        obs.enable()
        CASEEngine(program, window=4, capacity=8, batch=True).run()
        counts = {}
        for event in TRACER.events():
            counts[event.name] = counts.get(event.name, 0) + 1
        last = "engine.squash" if stale else "engine.drain"
        assert counts == {
            "engine.dispatch": 22,
            "engine.stall": 22,
            last: 22,
            "engine.commit": 22,
        }

    def test_instrumentation_does_not_perturb_results(self):
        from repro.runtime.engines import CASEEngine
        from repro.runtime.interpreter import run_program

        workload = generate("sparse", size=8, statements=3)
        baseline = CASEEngine(workload.program, window=4, capacity=8).run()
        obs.enable()
        traced_run = CASEEngine(workload.program, window=4, capacity=8).run()
        diffs = baseline.memory.differences(traced_run.memory, tolerance=0.0)
        assert diffs == {}
        sequential = run_program(workload.program)
        assert sequential.memory.differences(traced_run.memory, tolerance=0.0) == {}

    def test_labeling_spans_cover_phases(self):
        from repro.idempotency.labeling import label_region

        workload = generate("guarded", size=6, statements=2)
        obs.enable()
        label_region(workload.program.regions[0])
        names = [s.name for s in TRACER.finished_spans()]
        assert "analysis.label_region" in names
        for phase in ("access", "liveness", "dependence", "rfw", "labeling"):
            assert f"analysis.{phase}" in names
