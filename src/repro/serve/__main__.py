"""CLI of the analysis daemon: ``python -m repro.serve``.

Modes (exactly one):

``--wire``
    Serve line-delimited JSON-RPC 2.0 over stdin/stdout until EOF or a
    ``shutdown`` request.  stdout is the protocol channel, so all
    logging goes to stderr.

``--listen HOST:PORT``
    Serve over a localhost TCP socket (``PORT`` 0 binds an ephemeral
    port, reported on stderr) until a client sends ``shutdown``.

``--selfcheck``
    Spawn a ``--wire`` daemon as a subprocess and drive a scripted
    client batch through it: all four analysis methods, a malformed
    line, an unknown method, and a backpressure probe against a
    saturated pool -- then a clean shutdown.  Exit 0 only if every
    probe got the expected envelope.  This is the CI smoke.

Common knobs: ``--workers`` (pool threads), ``--max-inflight``
(backpressure bound), ``--max-programs`` (interner capacity),
``--diagnostics`` (answer ``sleep``, for the selfcheck's backpressure probe).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import List, Optional, Tuple

from repro._version import __version__
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import metrics_registry
from repro.serve.dispatch import DEFAULT_MAX_PROGRAMS, Dispatcher
from repro.serve.pool import WorkerPool
from repro.serve.protocol import OVERLOADED
from repro.serve.sockets import TCPServer, serve_stdio

LOG = get_logger("serve")

#: DSL program used by the selfcheck batch.
SELFCHECK_DSL = """
program servecheck
  real x(32), y(32)
  real s
  region L do i = 2, 31
    y(i) = x(i-1) + x(i+1)
    s = s + y(i)
    liveout y, s
  end region
end program
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Analysis-as-a-service daemon (JSON-RPC 2.0, "
        "line-delimited).",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--wire",
        action="store_true",
        help="serve over stdin/stdout (logs go to stderr)",
    )
    mode.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="serve over a TCP socket (port 0 = ephemeral)",
    )
    mode.add_argument(
        "--selfcheck",
        action="store_true",
        help="drive a scripted client batch through a child --wire "
        "daemon and exit 0 on success (CI smoke)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker threads executing requests (default 4)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="queued-or-running requests before OVERLOADED (-32029) "
        "rejections (default 8)",
    )
    parser.add_argument(
        "--max-programs",
        type=int,
        default=DEFAULT_MAX_PROGRAMS,
        help="interned programs held live (LRU; default %(default)s)",
    )
    parser.add_argument(
        "--diagnostics", action="store_true",
        help="answer 'sleep', which parks a worker for up to 2 s (backpressure tests)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational log output",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log output as JSON lines",
    )
    return parser.parse_args(argv)


def _parse_listen(value: str) -> Tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise SystemExit(
            f"--listen needs HOST:PORT (got {value!r})"
        )
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"--listen port must be an integer (got {port!r})")


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    # In wire mode stdout belongs to the protocol; logs always go to
    # stderr so both modes behave identically.
    configure_logging(
        quiet=args.quiet, json_lines=args.log_json, stream=sys.stderr
    )
    if args.selfcheck:
        return _selfcheck(args)

    # Arm the metrics registry so per-request meta deltas are scoped
    # through the obs counters and `metrics` reports live numbers.
    metrics_registry().enable()
    dispatcher = Dispatcher(
        max_programs=args.max_programs, diagnostics=args.diagnostics
    )
    pool = WorkerPool(workers=args.workers, max_inflight=args.max_inflight)
    LOG.info(
        "daemon starting",
        version=__version__,
        workers=args.workers,
        max_inflight=args.max_inflight,
    )
    try:
        if args.wire:
            serve_stdio(dispatcher, pool)
        else:
            host, port = _parse_listen(args.listen)
            server = TCPServer(dispatcher, pool, host=host, port=port)
            server.start()
            try:
                server.wait()
            except KeyboardInterrupt:
                server.shutdown()
    finally:
        pool.close()
    LOG.info("daemon stopped", cache=dispatcher.cache.stats())
    return 0


# ----------------------------------------------------------------------
# selfcheck
# ----------------------------------------------------------------------
def _selfcheck(args) -> int:
    """Scripted client batch against a child ``--wire`` daemon."""
    failures: List[str] = []
    # Two workers / two in-flight makes the backpressure probe
    # deterministic: two sleeps occupy the pool, the next request
    # must bounce.
    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--wire",
            "--workers",
            "2",
            "--max-inflight",
            "2",
            "--diagnostics",
            "--quiet",
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )

    def send(payload: dict) -> None:
        child.stdin.write(json.dumps(payload) + "\n")
        child.stdin.flush()

    def send_raw(line: str) -> None:
        child.stdin.write(line + "\n")
        child.stdin.flush()

    def recv() -> Optional[dict]:
        line = child.stdout.readline()
        if not line:
            return None
        return json.loads(line)

    def request(req_id, method, params=None) -> None:
        send(
            {
                "jsonrpc": "2.0",
                "id": req_id,
                "method": method,
                "params": params or {},
            }
        )

    def expect(tag: str, check) -> None:
        response = recv()
        if response is None:
            failures.append(f"{tag}: daemon closed the pipe early")
            return
        try:
            check(response)
        except AssertionError as exc:
            failures.append(f"{tag}: {exc} (got {response})")

    try:
        program = {"dsl": SELFCHECK_DSL}

        # -- the four analysis methods --------------------------------
        request(1, "analyze", program)
        expect(
            "analyze",
            lambda r: _assert(
                r.get("result", {}).get("regions"), "no regions in result"
            ),
        )
        request(2, "label", dict(program, region="L"))
        expect(
            "label",
            lambda r: _assert(
                r.get("result", {}).get("labels"), "no labels in result"
            ),
        )
        request(3, "simulate", dict(program, engine="case"))
        expect(
            "simulate",
            lambda r: _assert(
                r.get("result", {}).get("bit_identical") is True,
                "simulate not bit-identical",
            ),
        )
        request(4, "speedup_sweep", dict(program, processors=[1, 4]))
        expect(
            "speedup_sweep",
            lambda r: _assert(
                r.get("result", {}).get("engines"), "no engines in result"
            ),
        )
        # Re-analyze: the shared cache must produce warm hits now.
        request(5, "analyze", program)
        expect(
            "analyze-warm",
            lambda r: _assert(
                r.get("result", {}).get("meta", {})
                .get("cache", {})
                .get("hits", 0)
                > 0,
                "second analyze produced no warm cache hits",
            ),
        )

        # -- error envelopes ------------------------------------------
        send_raw("this is not json")
        expect(
            "malformed",
            lambda r: _assert(
                r.get("error", {}).get("code") == -32700,
                "malformed line did not produce PARSE_ERROR",
            ),
        )
        request(6, "no_such_method")
        expect(
            "unknown-method",
            lambda r: _assert(
                r.get("error", {}).get("code") == -32601,
                "unknown method did not produce METHOD_NOT_FOUND",
            ),
        )

        # -- backpressure probe ---------------------------------------
        request(7, "sleep", {"seconds": 1.0})
        request(8, "sleep", {"seconds": 1.0})
        request(9, "ping")
        # The rejection is written inline by the reader thread, so it
        # arrives before the sleeps complete.
        expect(
            "backpressure",
            lambda r: _assert(
                r.get("id") == 9
                and r.get("error", {}).get("code") == OVERLOADED,
                "saturated pool did not reject with OVERLOADED",
            ),
        )
        expect("sleep-1", lambda r: _assert(r.get("result"), "sleep 1 failed"))
        expect("sleep-2", lambda r: _assert(r.get("result"), "sleep 2 failed"))

        # -- clean shutdown -------------------------------------------
        request(10, "shutdown")
        expect(
            "shutdown",
            lambda r: _assert(
                r.get("result", {}).get("stopping") is True,
                "shutdown not acknowledged",
            ),
        )
        child.stdin.close()
        code = child.wait(timeout=30)
        if code != 0:
            failures.append(f"daemon exit code {code} (want 0)")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10)

    if failures:
        for failure in failures:
            LOG.error(f"selfcheck FAIL {failure}")
        return 1
    LOG.info(
        "selfcheck OK (analyze/label/simulate/speedup_sweep, error "
        "envelopes, backpressure, warm cache, clean shutdown)"
    )
    return 0


def _assert(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


if __name__ == "__main__":
    raise SystemExit(main())
