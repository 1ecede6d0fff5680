"""The daemon under test and the closed-loop client that drives it."""

from __future__ import annotations

import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Seconds to wait for a spawned daemon to report its port.
READY_TIMEOUT = 60.0
#: The CPUs the benchmark may use, read before it pins anything.
CPUS: List[int] = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
#: Iterations of the loop that times a CPU: a few milliseconds.
PROBE_ITERATIONS = 20_000


def pin(cpu: Optional[int]) -> None:
    """Run this thread, and the threads and processes it starts, on ``cpu``."""
    if cpu is not None and CPUS:
        os.sched_setaffinity(0, {cpu})


def move(pid: int, cpu: Optional[int]) -> None:
    """Run every thread of process ``pid`` on ``cpu``."""
    if cpu is None or not CPUS:
        return
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread has just ended


def _probe(cpu: int) -> float:
    pin(cpu)
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def fastest_cpus() -> Tuple[Optional[int], Optional[int]]:
    """The CPU that runs a fixed loop fastest right now, for the program
    under test, and the next fastest, for the client.

    On the shared host the benchmark was written on, each CPU slowed by
    about 1.4x for seconds to tens of seconds at a time, seldom both at
    once.  Moving the program under test to the quicker CPU before each
    round keeps most rounds at one speed.  The calling thread ends up
    where it was.
    """
    if len(CPUS) < 2:
        return (CPUS[0], CPUS[0]) if CPUS else (None, None)
    best = {cpu: float("inf") for cpu in CPUS}
    previous = os.sched_getaffinity(0)
    try:
        for _ in range(2):
            for cpu in CPUS:
                best[cpu] = min(best[cpu], _probe(cpu))
    finally:
        os.sched_setaffinity(0, previous)
    ranked = sorted(CPUS, key=best.__getitem__)
    return ranked[0], ranked[1]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of process ``pid``, in MiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    raise RuntimeError(f"cannot read the peak RSS of process {pid}")


class Daemon:
    """``python -m repro.serve --listen 127.0.0.1:0`` as a child process."""

    def __init__(self, root: Path, workers: int = 2, cpu: Optional[int] = None):
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # The child inherits the affinity of the thread that starts it.
        previous = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        pin(cpu)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0",
                 "--workers", str(workers), "--log-json"],
                cwd=str(root), env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        finally:
            if previous is not None:
                os.sched_setaffinity(0, previous)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._wait_for_port()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("the daemon exited or stalled before listening")
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("msg") == "listening":
                return int(record["port"])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate the child and wait for it (its own shutdown path stalls)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stderr.close()


@dataclass
class Sample:
    """One request as the client saw it."""

    session: int
    n: int
    method: str
    params: Dict
    latency_ms: float
    response: Optional[Dict]


@dataclass
class Round:
    """One round of a closed loop: every session's requests and the wall time."""

    seconds: float
    samples: List[Sample]


def closed_loop(
    port: int,
    sessions: int,
    round_size: int,
    next_request: Callable[[int, int], Tuple[str, Dict]],
    seconds: float,
    between: Callable[[], None],
) -> List[Round]:
    """Drive ``sessions`` connections in rounds until ``seconds`` of rounds
    have passed.

    In a round each connection sends ``round_size`` requests, the next
    only after the previous response; the round ends when every
    connection is done.  The first round warms the daemon up and is not
    returned.  ``between`` runs after each round, with no request in
    flight, and is not timed.
    """
    samples: List[List[Sample]] = [[] for _ in range(sessions)]
    gate = threading.Barrier(sessions + 1)
    stop = [False]

    def session(idx: int) -> None:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        except BaseException:
            gate.abort()
            raise
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = sock.makefile("rwb")
        dropped = False
        n = 0
        try:
            while True:
                gate.wait()
                if stop[0]:
                    break
                for _ in range(round_size):
                    if dropped:
                        break  # a dropped connection fails its request once
                    method, params = next_request(idx, n)
                    line = json.dumps({"jsonrpc": "2.0", "id": n, "method": method,
                                       "params": params}).encode() + b"\n"
                    sent = time.perf_counter()
                    try:
                        stream.write(line)
                        stream.flush()
                        raw = stream.readline()
                        response = json.loads(raw) if raw else None
                    except (OSError, ValueError):
                        response = None
                    done = time.perf_counter()
                    samples[idx].append(
                        Sample(idx, n, method, params, (done - sent) * 1000.0, response))
                    dropped = response is None
                    n += 1
                gate.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException:
            gate.abort()
            raise
        finally:
            stream.close()
            sock.close()

    threads = [threading.Thread(target=session, args=(i,)) for i in range(sessions)]
    for thread in threads:
        thread.start()
    rounds: List[Round] = []
    try:
        measured = 0.0
        warm_up = True
        while warm_up or measured < seconds:
            taken = [len(s) for s in samples]
            started = time.perf_counter()
            gate.wait()  # start the round
            gate.wait()  # every session has finished it
            wall = time.perf_counter() - started
            if not warm_up:
                measured += wall
                rounds.append(Round(wall, [x for s, k in zip(samples, taken) for x in s[k:]]))
            warm_up = False
            if measured < seconds:
                between()
        stop[0] = True
        gate.wait()
    except BaseException:
        gate.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    return rounds
