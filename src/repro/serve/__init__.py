"""Analysis-as-a-service daemon: ``python -m repro.serve``.

A long-lived process speaking line-delimited JSON-RPC 2.0 over
stdin/stdout (``--wire``) and over a localhost TCP socket
(``--listen HOST:PORT``).  Requests submit programs as DSL text or as
the JSON IR of :func:`repro.ir.builder.program_from_json` and ask for

* ``analyze``       -- the full Algorithm-2 labeling summary per region,
* ``label``         -- per-reference labels/categories of one region,
* ``simulate``      -- an engine run plus the bit-identity verdict
  against the program's sequential final memory (memoized per
  interned program),
* ``speedup_sweep`` -- makespans/speedups across processor counts.

All sessions share one thread-safe :class:`repro.analysis.cache
.AnalysisCache` (submitted programs are interned, so re-submitting the
same source hits warm analysis entries), a bounded worker pool applies
429-style backpressure (error ``-32029``) once ``--max-inflight``
requests are in flight, and every response carries per-request timing
and cache-delta metrics scoped through the :mod:`repro.obs` registry.

Protocol spec and transcript examples: ``docs/SERVING.md``.  The
``serve-mix`` and ``analyze-cold`` workloads of ``perfbench/run.py``
drive a daemon child over TCP and report requests/sec and latency
percentiles.
"""

from repro.serve.dispatch import Dispatcher
from repro.serve.pool import PoolSaturated, WorkerPool
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
from repro.serve.sockets import Session, TCPServer, serve_stdio

__all__ = [
    "Dispatcher",
    "WorkerPool",
    "PoolSaturated",
    "ProtocolError",
    "Request",
    "parse_request",
    "ok_response",
    "error_response",
    "encode_line",
    "Session",
    "TCPServer",
    "serve_stdio",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "OVERLOADED",
]
