"""Bounded worker pool with backpressure.

The daemon's sessions parse requests on their reader threads but run
handlers on this shared pool, so one slow ``speedup_sweep`` never
blocks another session's ``analyze``.  Admission is bounded: once
``max_inflight`` jobs are queued-or-running, :meth:`WorkerPool.submit`
raises :class:`PoolSaturated` and the session answers with the
``OVERLOADED`` (-32029) error instead of buffering unboundedly -- the
JSON-RPC analogue of HTTP 429.

A job's slot is released before its ``then`` continuation runs, so a
client that has read a response can rely on that request no longer
counting against the bound.  A job that raises is logged and counted
(``serve.worker_failures``); the worker thread carries on.
"""

from __future__ import annotations

import queue
import threading
import traceback
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.log import get_logger
from repro.obs.metrics import metrics_registry

LOG = get_logger("serve")

#: Counter of jobs (or continuations) that raised.
FAILURES_COUNTER = "serve.worker_failures"

#: Queue sentinel that tells a worker to exit.
_STOP = object()


class PoolSaturated(Exception):
    """Raised by :meth:`WorkerPool.submit` once ``max_inflight`` is hit."""

    def __init__(self, max_inflight: int):
        super().__init__(f"worker pool saturated ({max_inflight} in flight)")
        self.max_inflight = max_inflight


class WorkerPool:
    """``workers`` daemon threads draining a bounded job queue.

    Jobs are zero-argument callables; an optional ``then`` receives the
    job's result once its slot is free (the session writes the
    response there).  A job that raises is logged and counted so one
    bad request never kills a worker.
    """

    def __init__(self, workers: int = 4, max_inflight: int = 8):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._inflight = 0
        self._closed = False
        self._threads: List[threading.Thread] = []
        for i in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Jobs currently queued or running."""
        with self._lock:
            return self._inflight

    @property
    def workers(self) -> int:
        return len(self._threads)

    def submit(
        self,
        job: Callable[[], Any],
        then: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Enqueue ``job``; raise :class:`PoolSaturated` over the bound."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self._inflight >= self.max_inflight:
                raise PoolSaturated(self.max_inflight)
            self._inflight += 1
        self._queue.put((job, then))

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs; with ``wait`` drain and join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(_STOP)
        if wait:
            for thread in self._threads:
                thread.join(timeout=10)

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            job, then = item
            try:
                ok, result = _call(job)
            finally:
                with self._lock:
                    self._inflight -= 1
            if ok and then is not None:
                _call(then, result)


def _call(fn: Callable[..., Any], *args: Any) -> Tuple[bool, Any]:
    """``(True, fn(*args))``, or ``(False, None)`` after logging a raise."""
    try:
        return True, fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the worker must survive
        metrics_registry().counter(FAILURES_COUNTER).inc()
        LOG.error(
            "worker job failed",
            thread=threading.current_thread().name,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
        return False, None
