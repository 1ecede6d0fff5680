"""Transports: stdio wire sessions and the localhost TCP listener.

A :class:`Session` owns one line-delimited connection (stdin/stdout or
one accepted socket).  The session's reader thread parses each line
and hands the handler to the shared :class:`~repro.serve.pool
.WorkerPool`; responses are written back under a per-session lock so
concurrent workers never interleave partial lines.  Saturation is
answered inline from the reader thread (``OVERLOADED``), which is what
keeps the daemon responsive while the pool is busy.

Request lines are read with a bounded ``readline``: a line longer than
:data:`MAX_LINE_BYTES` gets one ``INVALID_REQUEST`` envelope, the rest
of it is discarded, and the session keeps serving.

``shutdown`` is transport-level, not a dispatcher method: the session
acknowledges it, stops reading, and (TCP) asks the server to stop
accepting -- so a scripted client can end an entire daemon run
cleanly.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Iterator, List, Optional

from repro.obs.log import get_logger
from repro.serve.dispatch import Dispatcher
from repro.serve.pool import PoolSaturated, WorkerPool
from repro.serve.protocol import (
    INVALID_REQUEST,
    OVERLOADED,
    PARSE_ERROR,
    ProtocolError,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)

LOG = get_logger("serve")

#: Method handled by the session itself (stops the transport).
SHUTDOWN_METHOD = "shutdown"

#: Longest request line a session reads, in bytes, newline excluded.
MAX_LINE_BYTES = 1 << 20


class Session:
    """One client connection (binary streams): reads request lines,
    writes response lines."""

    def __init__(
        self,
        reader,
        writer,
        dispatcher: Dispatcher,
        pool: WorkerPool,
        name: str = "stdio",
        on_shutdown: Optional[Callable[[], None]] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.dispatcher = dispatcher
        self.pool = pool
        self.name = name
        self.on_shutdown = on_shutdown
        self._write_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve until EOF or ``shutdown``; never raises to the caller."""
        LOG.debug("session open", session=self.name)
        for raw in self._lines():
            if raw is None:
                limit = {"max_line_bytes": MAX_LINE_BYTES}
                self._write(error_response(
                    None, INVALID_REQUEST, "request line too long", limit
                ))
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                self._write(
                    error_response(None, PARSE_ERROR, f"parse error: {exc}")
                )
                continue
            line = line.strip()
            if not line:
                continue
            try:
                request = parse_request(line)
            except ProtocolError as exc:
                self._write(
                    error_response(None, exc.code, exc.message, exc.data)
                )
                continue
            if request.method == SHUTDOWN_METHOD:
                if not request.notification:
                    self._write(ok_response(request.id, {"stopping": True}))
                LOG.info("session shutdown", session=self.name)
                if self.on_shutdown is not None:
                    self.on_shutdown()
                break
            try:
                self.pool.submit(
                    lambda req=request: self.dispatcher.dispatch(req),
                    then=None if request.notification else self._write,
                )
            except PoolSaturated as exc:
                if not request.notification:
                    self._write(
                        error_response(
                            request.id,
                            OVERLOADED,
                            "server overloaded, retry later",
                            data={"max_inflight": exc.max_inflight},
                        )
                    )
        self._closed = True
        LOG.debug("session closed", session=self.name)

    def _lines(self) -> Iterator[Optional[bytes]]:
        """Request lines until EOF; ``None`` stands for a line longer than
        :data:`MAX_LINE_BYTES`, whose rest has been read and dropped."""
        while True:
            raw = self.reader.readline(MAX_LINE_BYTES + 1)
            if not raw:
                return
            if len(raw) <= MAX_LINE_BYTES or raw.endswith(b"\n"):
                yield raw
                continue
            while raw and not raw.endswith(b"\n"):
                raw = self.reader.readline(MAX_LINE_BYTES + 1)
            yield None

    # ------------------------------------------------------------------
    def _write(self, payload) -> None:
        data = encode_line(payload)
        try:
            with self._write_lock:
                self.writer.write(data)
                self.writer.flush()
        except (BrokenPipeError, ConnectionError, ValueError, OSError):
            # The client hung up mid-response; nothing left to tell it.
            self._closed = True


def serve_stdio(
    dispatcher: Dispatcher,
    pool: WorkerPool,
    reader=None,
    writer=None,
    on_shutdown: Optional[Callable[[], None]] = None,
) -> None:
    """Run one wire session over stdin/stdout (blocks until EOF)."""
    import sys

    session = Session(
        reader if reader is not None else sys.stdin.buffer,
        writer if writer is not None else sys.stdout.buffer,
        dispatcher,
        pool,
        name="stdio",
        on_shutdown=on_shutdown,
    )
    session.run()


class TCPServer:
    """Localhost TCP listener: one :class:`Session` thread per client.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  A client's ``shutdown`` request (or
    :meth:`shutdown` from the owner) stops the accept loop and closes
    every open connection.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.dispatcher = dispatcher
        self.pool = pool
        self.host = host
        self._requested_port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions_lock = threading.Lock()
        self._client_sockets: List[socket.socket] = []
        self._session_threads: List[threading.Thread] = []
        self.stopped = threading.Event()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[1]

    def start(self) -> int:
        """Bind, listen and start accepting; returns the bound port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(32)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        LOG.info("listening", host=self.host, port=self.port)
        return self.port

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server is shut down."""
        return self.stopped.wait(timeout)

    def shutdown(self) -> None:
        """Stop accepting and close every open connection (idempotent)."""
        if self.stopped.is_set():
            return
        self.stopped.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutting the listener down does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._sessions_lock:
            clients = list(self._client_sockets)
        for client in clients:
            try:
                client.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                client.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        with self._sessions_lock:
            threads = list(self._session_threads)
        for thread in threads:
            thread.join(timeout=5)
        LOG.info("server stopped", host=self.host)

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        counter = 0
        while not self.stopped.is_set():
            try:
                client, address = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            counter += 1
            name = f"tcp:{address[0]}:{address[1]}"
            with self._sessions_lock:
                self._client_sockets.append(client)
            thread = threading.Thread(
                target=self._serve_client,
                args=(client, name),
                name=f"serve-session-{counter}",
                daemon=True,
            )
            with self._sessions_lock:
                self._session_threads.append(thread)
            thread.start()

    def _serve_client(self, client: socket.socket, name: str) -> None:
        try:
            # Separate streams: a ``"rwb"`` pair's ``readline`` ignores
            # its size limit.
            streams = (client.makefile("rb"), client.makefile("wb"))
            session = Session(
                *streams,
                self.dispatcher,
                self.pool,
                name=name,
                on_shutdown=self._deferred_shutdown,
            )
            session.run()
            for stream in streams:
                try:
                    stream.close()
                except (OSError, ValueError):
                    pass
        except (OSError, ValueError):
            pass
        finally:
            try:
                client.close()
            except OSError:
                pass
            with self._sessions_lock:
                if client in self._client_sockets:
                    self._client_sockets.remove(client)

    def _deferred_shutdown(self) -> None:
        # A session thread must not join itself: run the full shutdown
        # from a helper thread and let the session finish its loop.
        threading.Thread(
            target=self.shutdown, name="serve-shutdown", daemon=True
        ).start()
