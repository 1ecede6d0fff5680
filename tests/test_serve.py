"""Smoke and protocol tests of the ``repro.serve`` daemon.

Covers the wire contract end to end: round-trips for all four analysis
methods (in-process and over a real ``--wire`` subprocess), the
malformed-JSON and unknown-method error envelopes, backpressure
rejection against a saturated pool, concurrent sessions sharing one
``AnalysisCache`` (warm-hit counters grow across sessions), the
per-program ground-truth memo behind every bit-identity verdict, and
clean shutdown of both transports.
"""

import io
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from conftest import perfbench_layers
from repro.obs.metrics import metrics_registry
from repro.obs.tracer import TRACER
from repro.serve import dispatch as dispatch_mod
from repro.serve.dispatch import Dispatcher
from repro.serve.pool import PoolSaturated, WorkerPool
from repro.runtime.errors import SimulationError
from repro.serve.protocol import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    OVERLOADED,
    PARSE_ERROR,
    ProtocolError,
    Request,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.sockets import MAX_LINE_BYTES, TCPServer, serve_stdio

DSL = """
program served
  real x(32), y(32)
  real s
  region L do i = 2, 31
    y(i) = x(i-1) + x(i+1)
    s = s + y(i)
    liveout y, s
  end region
end program
"""

#: The serve-mix reduction at a smaller size.
REDUCTION = """
program reduced
  real a(16, 12) = 0.5, b(16) = 1.5, c(12)
  region REDUCE do k = 1, 12
    do i = 1, 16
      c(k) = c(k) + a(i, k) * b(i)
      c(k) = c(k) + a(i, k) * b(i) + 0.001
    end do
    liveout c
  end region
end program
"""

JSON_IR = {
    "name": "served_ir",
    "symbols": {
        "scalars": [{"name": "s"}],
        "arrays": [{"name": "x", "shape": [32], "initial": 1.0}],
    },
    "regions": [
        {
            "kind": "loop",
            "name": "L",
            "index": "i",
            "lower": 2,
            "upper": 31,
            "body": [
                {"target": "x", "subscripts": ["i"], "rhs": "x(i) * 2"},
                {"target": "s", "rhs": "s + x(i)"},
            ],
            "live_out": ["x", "s"],
        }
    ],
}


def _ir(**changes):
    """JSON_IR with top-level keys replaced (``None`` drops a key)."""
    out = {k: v for k, v in dict(JSON_IR, **changes).items() if v is not None}
    return json.loads(json.dumps(out))


def _ir_region(**changes):
    return _ir(regions=[dict(JSON_IR["regions"][0], **changes)])


EXPLICIT_IR = _ir(regions=[{
    "kind": "explicit", "name": "E", "live_out": ["s"],
    "segments": [{"name": "E0", "body": [{"target": "s", "rhs": "s + 1"}],
                  "brnach": "s > 0"}],
}])


def rpc(req_id, method, params=None):
    return Request(method=method, params=params or {}, id=req_id)


# ----------------------------------------------------------------------
# protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_request_round_trip(self):
        request = parse_request(
            '{"jsonrpc": "2.0", "id": 7, "method": "ping", "params": {}}'
        )
        assert request.method == "ping"
        assert request.id == 7
        assert not request.notification

    def test_notification_has_no_id(self):
        request = parse_request('{"jsonrpc": "2.0", "method": "ping"}')
        assert request.notification

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ProtocolError) as info:
            parse_request("{nope")
        assert info.value.code == PARSE_ERROR

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2, 3]",
            '{"jsonrpc": "1.0", "method": "ping"}',
            '{"jsonrpc": "2.0"}',
            '{"jsonrpc": "2.0", "method": ""}',
            '{"jsonrpc": "2.0", "method": "ping", "params": [1]}',
            '{"jsonrpc": "2.0", "method": "ping", "id": {"k": 1}}',
        ],
    )
    def test_invalid_requests(self, line):
        with pytest.raises(ProtocolError) as info:
            parse_request(line)
        assert info.value.code == INVALID_REQUEST

    def test_envelopes(self):
        ok = ok_response(3, {"x": 1})
        assert ok == {"jsonrpc": "2.0", "id": 3, "result": {"x": 1}}
        err = error_response(None, OVERLOADED, "busy", data={"max_inflight": 2})
        assert err["error"]["code"] == OVERLOADED
        assert err["error"]["data"] == {"max_inflight": 2}
        line = encode_line(ok)
        assert line.endswith(b"\n")
        assert json.loads(line) == ok


# ----------------------------------------------------------------------
# dispatcher round trips (in-process)
# ----------------------------------------------------------------------
class TestDispatcher:
    def test_analyze_round_trip(self):
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(rpc(1, "analyze", {"dsl": DSL}))
        result = response["result"]
        assert response["id"] == 1
        region = result["regions"][0]
        assert region["name"] == "L"
        assert region["references"] > 0
        assert "meta" in result and "elapsed_ms" in result["meta"]

    def test_label_round_trip(self):
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(
            rpc(2, "label", {"dsl": DSL, "region": "L"})
        )
        labels = response["result"]["labels"]
        assert labels
        assert all(
            entry["label"] in ("speculative", "idempotent")
            for entry in labels.values()
        )

    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_simulate_bit_identical(self, engine):
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(
            rpc(3, "simulate", {"dsl": DSL, "engine": engine})
        )
        result = response["result"]
        assert result["engine"] == engine
        assert result["bit_identical"] is True

    def test_speedup_sweep_round_trip(self):
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(
            rpc(4, "speedup_sweep", {"dsl": DSL, "processors": [1, 4]})
        )
        result = response["result"]
        assert result["sequential_cycles"] > 0
        for side in result["engines"].values():
            assert side["bit_identical"] is True
            assert set(side["processors"]) == {"1", "4"}

    def test_op_stepped_sweep_prices_hose_overflow(self):
        # With ``batch: false`` every attempt is op-stepped, so HOSE's
        # overflow at capacity 8 serializes its reduction while CASE's
        # labels keep the references out of speculative storage.  The
        # compiled attempts (the default) never overflow partway
        # through and report HOSE close to CASE.
        response = Dispatcher().dispatch(
            rpc(
                4,
                "speedup_sweep",
                {"dsl": REDUCTION, "capacity": 8, "processors": [4], "batch": False},
            )
        )
        engines = response["result"]["engines"]
        hose = engines["hose"]["processors"]["4"]["speedup"]
        case = engines["case"]["processors"]["4"]["speedup"]
        assert engines["hose"]["bit_identical"] and engines["case"]["bit_identical"]
        assert 2 * hose < case

    @pytest.mark.parametrize("over", ["count", "length"])
    def test_speedup_sweep_caps_processors(self, over):
        # Scheduling is linear in P: an uncapped count could allocate
        # a lane per processor for any P a client sends.
        if over == "count":
            processors = [1, dispatch_mod.MAX_SWEEP_PROCESSORS + 1]
        else:
            processors = [1] * (dispatch_mod.MAX_SWEEP_COUNTS + 1)
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(
            rpc(4, "speedup_sweep", {"dsl": DSL, "processors": processors})
        )
        error = response["error"]
        assert error["code"] == INVALID_PARAMS
        assert error["data"] == {
            "max_processors": dispatch_mod.MAX_SWEEP_PROCESSORS,
            "max_counts": dispatch_mod.MAX_SWEEP_COUNTS,
        }
        at_cap = [dispatch_mod.MAX_SWEEP_PROCESSORS]
        response = dispatcher.dispatch(
            rpc(5, "speedup_sweep", {"dsl": DSL, "processors": at_cap})
        )
        assert response["result"]["engines"]["case"]["bit_identical"] is True

    def test_json_ir_submission(self):
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(
            rpc(5, "simulate", {"program": JSON_IR, "engine": "case"})
        )
        assert response["result"]["bit_identical"] is True
        assert response["result"]["program"] == "served_ir"

    def test_resubmission_interns_and_warms_cache(self):
        dispatcher = Dispatcher()
        first = dispatcher.resolve_program({"dsl": DSL})
        second = dispatcher.resolve_program({"dsl": DSL})
        assert first is second
        dispatcher.dispatch(rpc(1, "analyze", {"dsl": DSL}))
        warm = dispatcher.dispatch(rpc(2, "analyze", {"dsl": DSL}))
        assert warm["result"]["meta"]["cache"]["hits"] > 0

    def test_unknown_method(self):
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(rpc(6, "does_not_exist"))
        assert response["error"]["code"] == METHOD_NOT_FOUND
        assert "analyze" in response["error"]["data"]["methods"]

    def test_sleep_only_with_diagnostics(self):
        # ``sleep`` lets a client park a worker: a default dispatcher
        # refuses it and does not list it.
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(rpc(7, "sleep", {"seconds": 0.0}))
        assert response["error"]["code"] == METHOD_NOT_FOUND
        assert "sleep" not in response["error"]["data"]["methods"]
        metrics = dispatcher.dispatch(rpc(8, "metrics"))["result"]
        assert "sleep" not in metrics["methods"]
        enabled = Dispatcher(diagnostics=True)
        assert "sleep" in enabled.dispatch(rpc(9, "metrics"))["result"]["methods"]
        response = enabled.dispatch(rpc(10, "sleep", {"seconds": 0.0}))
        assert response["result"]["slept"] == 0.0

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"dsl": DSL, "program": JSON_IR},
            {"dsl": "program broken\n"},
            {"program": {"regions": [{"name": "L"}]}},
            {"dsl": DSL, "engine": "warp"},
            {"dsl": DSL, "region": "missing"},
            # JSON IR keys the schema does not name, which used to drop
            # part of the program and simulate what was left.
            {"program": {"dsl": DSL}, "engine": "case"},
            {"program": _ir(regions=None, region=JSON_IR["regions"]), "engine": "case"},
        ],
    )
    def test_invalid_params(self, params):
        dispatcher = Dispatcher()
        method = "simulate" if "engine" in params else "label"
        response = dispatcher.dispatch(rpc(7, method, params))
        assert response["error"]["code"] == INVALID_PARAMS

    @pytest.mark.parametrize(
        "program, path",
        [
            (_ir(regions=None, region=JSON_IR["regions"]), "program"),
            (_ir(symbols={"scalar": [{"name": "s"}]}), "symbols"),
            (_ir(symbols={"scalars": [{"name": "s", "intial": 2.0}]}),
             "symbols.scalars[0]"),
            (_ir(symbols={"arrays": [{"name": "x", "shape": [32], "init": 1.0}]}),
             "symbols.arrays[0]"),
            (_ir_region(liveout=["x"]), "regions[0]"),
            (_ir_region(body=[{"target": "s", "rhs": "s + 1", "gaurd": "s > 0"}]),
             "regions[0].body[0]"),
            (_ir_region(body=[{"kind": "do", "index": "k", "lower": 1, "upper": 2,
                               "body": [], "stride": 1}]),
             "regions[0].body[0]"),
            (_ir_region(body=[{"kind": "if", "cond": "s > 0", "than": []}]),
             "regions[0].body[0]"),
            (EXPLICIT_IR, "regions[0].segments[0]"),
        ],
    )
    def test_unknown_json_ir_keys(self, program, path):
        # Every JSON IR object rejects a key the schema does not name,
        # with the object's path.
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(rpc(7, "label", {"program": program}))
        assert response["error"]["code"] == INVALID_PARAMS
        assert response["error"]["message"].startswith(
            f"invalid params: {path}: unknown keys"
        )

    @pytest.mark.parametrize(
        "rhs", ["x(i) ** (0 - 1)", "(x(i) - 1) ** 0.5", "(i + 10) ** 400"]
    )
    def test_power_is_total(self, rhs):
        # ``**`` used to raise, return a complex or overflow a float on
        # these, so a valid program got an error envelope.
        dsl = DSL.replace("y(i) = x(i-1) + x(i+1)", f"y(i) = {rhs}")
        dispatcher = Dispatcher()
        for batch in (True, False):
            response = dispatcher.dispatch(
                rpc(7, "simulate", {"dsl": dsl, "batch": batch})
            )
            assert response["result"]["bit_identical"] is True, batch
        response = dispatcher.dispatch(rpc(8, "speedup_sweep", {"dsl": dsl}))
        engines = response["result"]["engines"]
        assert [e["bit_identical"] for e in engines.values()] == [True, True]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("y(i) = x(i-1) + x(i+1)", "y(i) = x(i+1) + x(i+2)"),
            ("s = s + y(i)", "x = x(i) + 1"),
        ],
    )
    def test_address_error_is_invalid_params(self, old, new):
        # A program that addresses memory it does not have is the
        # client's error; other run-time failures stay INTERNAL_ERROR.
        dsl = DSL.replace(old, new)
        dispatcher = Dispatcher()
        for method, params in (("simulate", {"batch": True}),
                               ("simulate", {"batch": False}),
                               ("speedup_sweep", {})):
            response = dispatcher.dispatch(rpc(7, method, dict(params, dsl=dsl)))
            error = response["error"]
            assert error["code"] == INVALID_PARAMS, (method, params)
            assert error["data"] == {"type": "AddressError"}
            assert error["message"].startswith("invalid program: ")

    def test_other_simulation_errors_stay_internal(self, monkeypatch):
        def diverged(self, entry):
            raise SimulationError("replay diverged")

        monkeypatch.setattr(Dispatcher, "_ground_truth", diverged)
        response = Dispatcher().dispatch(rpc(7, "simulate", {"dsl": DSL}))
        assert response["error"]["code"] == INTERNAL_ERROR
        assert "SimulationError: replay diverged" in response["error"]["message"]

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("    y(i) = x(i-1) + x(i+1)", "    y(i) = x()",
             "line 6: array read of 'x' needs subscripts"),
            ("    s = s + y(i)", "    i = s + y(i)",
             "line 7: assignment to induction local 'i' is not allowed"),
            ("do i = 2, 31", "do i = 2, 31, 0", "line 5: loop region 'L' has zero step"),
            ("  real s", "  real s = abc",
             "line 4: could not convert string to float: 'abc'"),
        ],
    )
    def test_malformed_dsl_is_invalid_params(self, old, new, message):
        # Programs the IR constructors reject are the client's error, with
        # the line of the statement, region header or declaration.
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(rpc(7, "analyze", {"dsl": DSL.replace(old, new)}))
        assert response["error"]["code"] == INVALID_PARAMS
        assert response["error"]["message"] == f"invalid params: {message}"

    @pytest.mark.parametrize(
        "method, params",
        [
            # The engine clamps a window below 1, so the echo would lie.
            ("simulate", {"window": 0}),
            ("speedup_sweep", {"window": -1}),
            # JSON true is an int in Python but not a processor count.
            ("speedup_sweep", {"processors": [True]}),
            # A bare string must not be iterated as engine names.
            ("speedup_sweep", {"engines": "hose"}),
            # bool("false") is true.
            ("simulate", {"batch": "false"}),
            ("speedup_sweep", {"batch": 0}),
            ("simulate", {"capacity": "8"}),
        ],
    )
    def test_malformed_run_params(self, method, params):
        dispatcher = Dispatcher()
        response = dispatcher.dispatch(rpc(8, method, dict(params, dsl=DSL)))
        assert response["error"]["code"] == INVALID_PARAMS
        (name,) = params
        assert f"{name!r} must be" in response["error"]["message"]

    def test_metrics_report_ground_truth_and_request_latency(self):
        registry = metrics_registry()
        registry.reset()
        registry.enable()
        try:
            dispatcher = Dispatcher()
            dispatcher.dispatch(rpc(1, "simulate", {"dsl": DSL}))
            dispatcher.dispatch(rpc(2, "simulate", {"dsl": DSL, "engine": "hose"}))
            dispatcher.dispatch(rpc(3, "speedup_sweep", {"dsl": DSL}))
            metrics = dispatcher.dispatch(rpc(4, "metrics"))["result"]
        finally:
            registry.disable()
            registry.reset()
        # simulate's one sequential run fills the memory and the baseline
        # cycles; the second simulate and the sweep hit.
        assert metrics["ground_truth"] == {"hits": 2, "misses": 1, "entries": 1}
        latency = metrics["request_ms"]
        assert 0 < latency["p50"] <= latency["p95"]

    def test_interner_eviction_is_bounded(self):
        dispatcher = Dispatcher(max_programs=2)
        sources = [DSL.replace("served", f"served{i}") for i in range(4)]
        for source in sources:
            dispatcher.dispatch(rpc(1, "analyze", {"dsl": source}))
        assert dispatcher.interned_programs() == 2


# ----------------------------------------------------------------------
# ground-truth memo
# ----------------------------------------------------------------------
@pytest.fixture
def sequential_runs(monkeypatch):
    """Count sequential runs and baseline pricings made through the
    dispatcher's module names."""
    runs = []
    interpreter = dispatch_mod.SequentialInterpreter
    baseline = dispatch_mod.sequential_baseline

    class Counted(interpreter):
        def run(self):
            runs.append(("interpreter", self.program.name))
            return super().run()

    def counted_baseline(stats, cost):
        runs.append(("baseline",))
        return baseline(stats, cost)

    monkeypatch.setattr(dispatch_mod, "SequentialInterpreter", Counted)
    monkeypatch.setattr(dispatch_mod, "sequential_baseline", counted_baseline)
    return runs


def _corrupting(engine_cls):
    """``engine_cls`` whose final memory has one value off by one."""

    class Corrupting(engine_cls):
        def run(self):
            result = super().run()
            address = sorted(result.memory.snapshot())[0]
            result.memory.store(address, result.memory.load(address) + 1.0)
            return result

    return Corrupting


class TestGroundTruthMemo:
    def test_repeat_simulate_runs_no_sequential_execution(self, sequential_runs):
        dispatcher = Dispatcher()
        for engine in ("case", "hose", "case"):
            result = dispatcher.dispatch(
                rpc(1, "simulate", {"dsl": DSL, "engine": engine})
            )["result"]
            assert result["bit_identical"] is True
        assert sequential_runs == [("interpreter", "served"), ("baseline",)]

    def test_repeat_sweep_runs_no_sequential_execution(self, sequential_runs):
        dispatcher = Dispatcher()
        for _ in range(2):
            result = dispatcher.dispatch(rpc(1, "speedup_sweep", {"dsl": DSL}))
            assert result["result"]["sequential_cycles"] > 0
        # The sweep's run also filled the memory simulate needs.
        dispatcher.dispatch(rpc(2, "simulate", {"dsl": DSL}))
        assert sequential_runs == [("interpreter", "served"), ("baseline",)]

    def test_sweep_after_simulate_reports_the_same_cycles(self):
        cold = Dispatcher().dispatch(rpc(1, "speedup_sweep", {"dsl": DSL}))
        dispatcher = Dispatcher()
        dispatcher.dispatch(rpc(1, "simulate", {"dsl": DSL}))
        warm = dispatcher.dispatch(rpc(2, "speedup_sweep", {"dsl": DSL}))
        assert (
            warm["result"]["sequential_cycles"]
            == cold["result"]["sequential_cycles"]
        )
        assert dispatcher.ground_truth_stats()["misses"] == 1

    def test_eviction_drops_the_entry(self, sequential_runs):
        dispatcher = Dispatcher(max_programs=1)
        other = DSL.replace("served", "other")
        dispatcher.dispatch(rpc(1, "simulate", {"dsl": DSL}))
        assert dispatcher.ground_truth_stats()["entries"] == 1
        dispatcher.dispatch(rpc(2, "analyze", {"dsl": other}))
        assert dispatcher.ground_truth_stats()["entries"] == 0
        dispatcher.dispatch(rpc(3, "simulate", {"dsl": DSL}))
        assert sequential_runs == [("interpreter", "served"), ("baseline",)] * 2

    @pytest.mark.parametrize("method", ["simulate", "speedup_sweep"])
    def test_corrupted_engine_result_fails_against_memo(
        self, method, monkeypatch
    ):
        dispatcher = Dispatcher()
        params = {"dsl": DSL, "engine": "hose", "engines": ["hose"]}
        warm = dispatcher.dispatch(rpc(1, method, params))["result"]
        misses = dispatcher.ground_truth_stats()["misses"]
        monkeypatch.setattr(
            dispatch_mod, "ENGINES", {"hose": _corrupting(dispatch_mod.HOSEEngine)}
        )
        cold = dispatcher.dispatch(rpc(2, method, params))["result"]
        if method == "speedup_sweep":
            warm, cold = warm["engines"]["hose"], cold["engines"]["hose"]
        assert warm["bit_identical"] is True
        assert cold["bit_identical"] is False
        assert dispatcher.ground_truth_stats()["misses"] == misses

    def test_concurrent_first_requests_agree(self, monkeypatch):
        # Both fills must be in flight at once: each run waits for the
        # other at the barrier, so neither finds the memo filled.
        barrier = threading.Barrier(2, timeout=30)
        interpreter = dispatch_mod.SequentialInterpreter

        class Racing(interpreter):
            def run(self):
                barrier.wait()
                return super().run()

        monkeypatch.setattr(dispatch_mod, "SequentialInterpreter", Racing)
        dispatcher = Dispatcher()
        results = [None, None]

        def send(i):
            response = dispatcher.dispatch(rpc(i, "simulate", {"dsl": DSL}))
            results[i] = response["result"]

        threads = [threading.Thread(target=send, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for result in results:
            result.pop("meta")
        assert results[0] == results[1]
        assert results[0]["bit_identical"] is True
        assert dispatcher.ground_truth_stats() == {
            "hits": 0,
            "misses": 2,
            "entries": 1,
        }

    def test_fill_after_eviction_does_not_leak(self, monkeypatch):
        dispatcher = Dispatcher(max_programs=1)
        other = DSL.replace("s = s + y(i)", "s = s - y(i)")
        first = dispatcher.resolve_program({"dsl": DSL})
        interpreter = dispatch_mod.SequentialInterpreter

        class Evicting(interpreter):
            def run(self):
                result = super().run()
                if self.program is first:
                    # Another session's request evicts this program
                    # while its ground truth is still being computed.
                    dispatcher.resolve_program({"dsl": other})
                return result

        monkeypatch.setattr(dispatch_mod, "SequentialInterpreter", Evicting)
        response = dispatcher.dispatch(rpc(1, "simulate", {"dsl": DSL}))
        assert response["result"]["bit_identical"] is True
        assert dispatcher.ground_truth_stats()["entries"] == 0
        response = dispatcher.dispatch(rpc(2, "simulate", {"dsl": other}))
        assert response["result"]["bit_identical"] is True
        assert dispatcher.ground_truth_stats()["misses"] == 2
        assert dispatcher.resolve_program({"dsl": DSL}) is not first


class TestTracedLayers:
    def test_instrument_spans_every_patched_layer(self):
        # perfbench's traced run swaps span wrappers into the names
        # dispatch calls through; a rename must fail here, not only in
        # the traced benchmark run.
        layers = perfbench_layers()
        dispatcher = Dispatcher()
        TRACER.reset()
        TRACER.enable()
        try:
            with layers.instrument(dispatcher, layers.EngineLog()):
                for n, method in enumerate(layers.METHODS):
                    response = dispatcher.dispatch(rpc(n, method, {"dsl": DSL}))
                    assert "result" in response, response
        finally:
            TRACER.disable()
            names = {span.name for span in TRACER.finished_spans()}
            TRACER.reset()
        assert {
            "ir.parse",
            "runtime.verdict",
            "timing.baseline",
            "timing.makespan",
        } <= names


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_saturation_raises(self):
        pool = WorkerPool(workers=1, max_inflight=2)
        release = threading.Event()
        try:
            pool.submit(release.wait)
            pool.submit(release.wait)
            with pytest.raises(PoolSaturated):
                pool.submit(lambda: None)
        finally:
            release.set()
            pool.close()

    def test_jobs_drain_and_close_joins(self):
        pool = WorkerPool(workers=2, max_inflight=8)
        done = []
        lock = threading.Lock()

        def job(i):
            with lock:
                done.append(i)

        for i in range(8):
            pool.submit(lambda i=i: job(i))
        pool.close(wait=True)
        assert sorted(done) == list(range(8))
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_failing_job_is_counted_and_worker_survives(self):
        dispatcher = Dispatcher()
        before = dispatcher.dispatch(rpc(1, "metrics"))["result"]["worker_failures"]
        pool = WorkerPool(workers=1, max_inflight=4)
        ran = threading.Event()

        def boom():
            raise RuntimeError("job failed on purpose")

        try:
            pool.submit(boom)
            pool.submit(ran.set)
            assert ran.wait(timeout=10), "the worker died with the failing job"
        finally:
            pool.close()
        after = dispatcher.dispatch(rpc(2, "metrics"))["result"]["worker_failures"]
        assert after == before + 1

    def test_slot_is_free_before_continuation_runs(self):
        # A client that has read its response may send the next request
        # at once; that request must not bounce off the finished one.
        pool = WorkerPool(workers=1, max_inflight=1)
        seen = []
        try:
            pool.submit(lambda: "response", then=lambda r: seen.append((r, pool.inflight)))
        finally:
            pool.close()
        assert seen == [("response", 0)]


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class _Client:
    """Tiny line-delimited JSON-RPC client over one TCP connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.stream = self.sock.makefile("rwb")
        self._next_id = 0

    def send(self, method, params=None, req_id=None, raw=None):
        if raw is not None:
            self.stream.write(raw.encode("utf-8") + b"\n")
        else:
            if req_id is None:
                self._next_id += 1
                req_id = self._next_id
            self.stream.write(
                (
                    json.dumps(
                        {
                            "jsonrpc": "2.0",
                            "id": req_id,
                            "method": method,
                            "params": params or {},
                        }
                    )
                    + "\n"
                ).encode("utf-8")
            )
        self.stream.flush()

    def recv(self):
        line = self.stream.readline()
        return json.loads(line) if line else None

    def call(self, method, params=None):
        self.send(method, params)
        return self.recv()

    def close(self):
        try:
            self.stream.close()
        except (OSError, ValueError):
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def _serve(dispatcher):
    pool = WorkerPool(workers=2, max_inflight=2)
    tcp = TCPServer(dispatcher, pool)
    tcp.start()
    yield tcp
    tcp.shutdown()
    pool.close()


@pytest.fixture
def server():
    yield from _serve(Dispatcher())


@pytest.fixture
def diagnostic_server():
    """A server whose dispatcher answers ``sleep``."""
    yield from _serve(Dispatcher(diagnostics=True))


class TestTCPServer:
    def test_round_trip_over_socket(self, server):
        client = _Client(server.port)
        try:
            response = client.call("analyze", {"dsl": DSL})
            assert response["result"]["regions"][0]["name"] == "L"
            response = client.call("ping")
            assert response["result"]["pong"] is True
        finally:
            client.close()

    def test_malformed_and_unknown_over_socket(self, server):
        client = _Client(server.port)
        try:
            client.send(None, raw="{bad json")
            assert client.recv()["error"]["code"] == PARSE_ERROR
            response = client.call("nope")
            assert response["error"]["code"] == METHOD_NOT_FOUND
        finally:
            client.close()

    def test_backpressure_rejects_when_saturated(self, diagnostic_server):
        # The fixture pool has two workers and max_inflight=2: two
        # sleeps occupy it, so the ping must bounce with OVERLOADED
        # (written inline by the reader thread, ahead of the sleeps).
        client = _Client(diagnostic_server.port)
        try:
            client.send("sleep", {"seconds": 1.0}, req_id="a")
            client.send("sleep", {"seconds": 1.0}, req_id="b")
            client.send("ping", req_id="probe")
            first = client.recv()
            assert first["id"] == "probe"
            assert first["error"]["code"] == OVERLOADED
            assert first["error"]["data"]["max_inflight"] == 2
            # The sleeps still complete.
            assert client.recv()["result"]["slept"] == 1.0
            assert client.recv()["result"]["slept"] == 1.0
        finally:
            client.close()

    def test_concurrent_sessions_share_cache(self, server):
        clients = [_Client(server.port) for _ in range(4)]
        errors = []
        diverged = []
        answered = []

        def call(client, method, params):
            # The fixture pool is tiny (max_inflight=2), so four
            # hammering sessions legitimately see OVERLOADED -- honour
            # the 429 and retry, fail on anything else.
            for _attempt in range(50):
                response = client.call(method, params)
                error = response.get("error")
                if error and error.get("code") == OVERLOADED:
                    time.sleep(0.02)
                    continue
                break
            if "result" not in response:
                errors.append(response)
                return {}
            answered.append(method)
            return response["result"]

        def hammer(index, client):
            for _ in range(3):
                call(client, "analyze", {"dsl": DSL})
            engine = "case" if index % 2 else "hose"
            result = call(client, "simulate", {"dsl": DSL, "engine": engine})
            if result.get("bit_identical") is not True:
                diverged.append(("simulate", engine, result))
            result = call(client, "speedup_sweep", {"dsl": DSL})
            sides = result.get("engines", {})
            if set(sides) != {"hose", "case"}:
                diverged.append(("speedup_sweep", sorted(sides)))
            for name, side in sides.items():
                if side["bit_identical"] is not True:
                    diverged.append(("speedup_sweep", name, side))

        try:
            threads = [
                threading.Thread(target=hammer, args=(i, c))
                for i, c in enumerate(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert not diverged
            # Every session's every request was answered (none dropped).
            assert len(answered) == 4 * 5
            stats = server.dispatcher.cache.stats()
            assert stats["hits"] > 0, "no cross-request warm hits"
            assert server.dispatcher.interned_programs() == 1
            metrics = clients[0].call("metrics")["result"]
            assert metrics["cache"]["hits"] == stats["hits"]
            # Only simulate and speedup_sweep consult the sequential
            # ground truth, memoized once for the one interned program.
            truth = metrics["ground_truth"]
            assert truth["hits"] + truth["misses"] == 4 + 4
            assert truth["entries"] == 1
            assert set(metrics["request_ms"]) == {"p50", "p95"}
        finally:
            for client in clients:
                client.close()

    def test_shutdown_request_stops_server(self, server):
        client = _Client(server.port)
        try:
            response = client.call("shutdown")
            assert response["result"]["stopping"] is True
        finally:
            client.close()
        assert server.stopped.wait(timeout=10)

    def test_idle_shutdown_is_prompt(self, server):
        # close() alone leaves the accept thread blocked until the join
        # times out.
        started = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - started < 1.0


# ----------------------------------------------------------------------
# request-line limit
# ----------------------------------------------------------------------
def _ping_line(req_id, length):
    """A valid ``ping`` request padded with inner whitespace to ``length``
    bytes, newline excluded."""
    head = '{"jsonrpc": "2.0", "method": "ping",'
    tail = f' "id": {json.dumps(req_id)}}}'
    line = head + " " * (length - len(head) - len(tail)) + tail
    assert len(line) == length and parse_request(line).method == "ping"
    return line.encode("utf-8") + b"\n"


def _check_line_limit(responses):
    """The padded ping over the limit got one INVALID_REQUEST envelope;
    the pings at the limit and after it got pong."""
    errors = [r for r in responses if "error" in r]
    assert len(errors) == 1, responses
    assert errors[0]["id"] is None
    assert errors[0]["error"]["code"] == INVALID_REQUEST
    assert errors[0]["error"]["data"] == {"max_line_bytes": MAX_LINE_BYTES}
    pongs = {r["id"]: r["result"]["pong"] for r in responses if "result" in r}
    assert pongs == {"at-limit": True, "after": True}


class TestLineLimit:
    LINES = (
        _ping_line("at-limit", MAX_LINE_BYTES)
        + _ping_line("over", MAX_LINE_BYTES + 1)
        + _ping_line("after", 64)
    )

    def test_over_long_line_over_stdio(self):
        pool = WorkerPool(workers=1, max_inflight=4)
        out = io.BytesIO()
        serve_stdio(Dispatcher(), pool, reader=io.BytesIO(self.LINES), writer=out)
        pool.close()
        _check_line_limit([json.loads(r) for r in out.getvalue().splitlines()])

    def test_over_long_line_over_socket(self, server):
        client = _Client(server.port)
        try:
            client.stream.write(self.LINES)
            client.stream.flush()
            _check_line_limit([client.recv() for _ in range(3)])
            assert client.call("ping")["result"]["pong"] is True
        finally:
            client.close()


# ----------------------------------------------------------------------
# wire subprocess smoke (the kimigas-style end-to-end check)
# ----------------------------------------------------------------------
def _spawn_wire(*extra):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--wire", "--quiet", *extra],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


class TestStartupImports:
    def test_daemon_imports_leave_numpy_and_batch_unloaded(self):
        # numpy costs about 57 ms to import; the batched executor (and
        # numpy with it) loads on the first batched run, not at start.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys, repro.serve, repro.serve.__main__\n"
            "print(sorted(m for m in ('numpy', 'repro.runtime.batch')"
            " if m in sys.modules))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestWireSubprocess:
    def test_wire_session_end_to_end(self):
        child = _spawn_wire()

        def call(req_id, method, params=None):
            child.stdin.write(
                json.dumps(
                    {
                        "jsonrpc": "2.0",
                        "id": req_id,
                        "method": method,
                        "params": params or {},
                    }
                )
                + "\n"
            )
            child.stdin.flush()
            return json.loads(child.stdout.readline())

        try:
            assert call(1, "analyze", {"dsl": DSL})["result"]["regions"]
            assert call(2, "label", {"dsl": DSL})["result"]["labels"]
            simulate = call(3, "simulate", {"dsl": DSL, "engine": "case"})
            assert simulate["result"]["bit_identical"] is True
            sweep = call(
                4, "speedup_sweep", {"dsl": DSL, "processors": [1, 2]}
            )
            assert sweep["result"]["engines"]["case"]["bit_identical"] is True
            # Warm across requests of one daemon lifetime.
            warm = call(5, "analyze", {"dsl": DSL})
            assert warm["result"]["meta"]["cache"]["hits"] > 0
            stopping = call(6, "shutdown")
            assert stopping["result"]["stopping"] is True
            child.stdin.close()
            assert child.wait(timeout=60) == 0
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)

    def test_wire_eof_is_clean_exit(self):
        child = _spawn_wire()
        try:
            child.stdin.close()
            assert child.wait(timeout=60) == 0
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)

    def test_selfcheck_passes(self):
        src = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--selfcheck"],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
