"""The newline-delimited line protocol and its TCP accept loop.

``python -m repro.service serve`` speaks one protocol: one request per
line in, one reply line out per request, a greeting line on attach, a
farewell line on detach, and strict request isolation.  What a line means
is decided by the handler the CLI passes in, so the transport never
imports JSON, services or routers.  :class:`LineProtocol` runs one
connection on the calling thread over any object with ``recv`` /
``sendall`` (stdin serving is exactly one such connection);
:class:`ThreadedLineServer` owns the listening socket and runs one
connection per TCP client, one thread each.

Contract of the line loop:

* **Trailing line at EOF.**  A final request line whose newline never
  arrived (client wrote ``{"focal": 5}`` and closed) is still a request:
  it is handled at EOF — processed if valid, answered with a
  ``bad_request`` error line if truncated mid-JSON.  Never dropped.
* **Graceful drain.**  ``shutdown(reason)`` lets every connection finish
  the requests it has already received (buffered complete lines included
  — they were sent before the drain began), sends each a farewell line
  and only then ends it; the accept loop also stops accepting.  The CLI
  wires this to SIGTERM/SIGINT.
* **Isolation.**  A handler exception answers that request's line with an
  error produced by ``on_error`` and the connection keeps serving; one
  client's malformed traffic never tears down another's connection.

Handlers are called from every connection thread and are expected to be
thread-safe (the router/admission stack is — see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, List, Optional, Tuple

__all__ = ["LineProtocol", "ThreadedLineServer", "parse_hostport"]

#: handler(line) -> (response line or None, close-this-connection flag)
LineHandler = Callable[[str], Tuple[Optional[str], bool]]


def parse_hostport(spec: str, *, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``HOST:PORT`` / ``:PORT`` / ``PORT`` into ``(host, port)``.

    Port 0 is allowed (the kernel picks a free port; read it back from
    :attr:`ThreadedLineServer.address`).
    """
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = default_host, spec
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid listen address {spec!r}; expected HOST:PORT"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in listen address {spec!r}")
    return host, port


class LineProtocol:
    """The per-connection newline-delimited line loop.

    Parameters
    ----------
    handler:
        ``handler(line) -> (response, close)``: called once per received
        line (stripped of its newline, blank lines skipped); the response
        string (if any) is sent back followed by ``\\n``; ``close=True``
        ends the connection after the response (the protocol's ``quit``).
    greeting:
        Optional zero-argument callable; its return value is sent as the
        first line of every fresh connection (the ``ready`` metadata).
    farewell:
        Optional ``farewell(reason)``; its return value is sent as the
        connection's last line.  ``reason`` is ``"eof"`` when the client
        closed, ``"quit"`` for a handler-requested close, or the reason
        given to :meth:`shutdown` during a drain.
    on_error:
        ``on_error(exc)`` maps a handler exception to the error-response
        line (request isolation).  Without it, handler exceptions end the
        connection.
    """

    def __init__(
        self,
        handler: LineHandler,
        *,
        greeting: Optional[Callable[[], str]] = None,
        farewell: Optional[Callable[[str], Optional[str]]] = None,
        on_error: Optional[Callable[[BaseException], str]] = None,
    ) -> None:
        self._handler = handler
        self._greeting = greeting
        self._farewell = farewell
        self._on_error = on_error
        self._stopping = threading.Event()
        self._drain_reason = "shutdown"
        self._lock = threading.Lock()
        #: lifetime counters (under ``_lock``)
        self.connections_accepted = 0
        self.requests_handled = 0

    def serve_connection(self, conn) -> None:
        """Serve one connection to its end on the calling thread.

        ``conn`` needs ``recv(size)`` — bytes, ``b""`` at EOF, raising
        :class:`socket.timeout` when nothing arrived within a short poll so
        a drain is honoured promptly — and ``sendall(data)``.  Closing
        ``conn`` is left to the caller.
        """
        with self._lock:
            self.connections_accepted += 1
        reason: Optional[str] = None
        if self._greeting is not None:
            self._send(conn, self._greeting())
        buffer = b""
        while reason is None:
            if self._stopping.is_set():
                reason = self._drain_reason
                break
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return  # peer vanished; nothing left to say
            if not chunk:
                # EOF with an unterminated final line: still a request.
                if buffer.strip():
                    self._handle_line(conn, buffer)
                # A drain that began first names the end (a signalled
                # client may close its side before reading the farewell).
                reason = self._drain_reason if self._stopping.is_set() else "eof"
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                keep_open, close_reason = self._handle_line(conn, line)
                if not keep_open:
                    reason = close_reason
                    break
        if self._farewell is not None:
            line = self._farewell(reason)
            if line is not None:
                self._send(conn, line)

    def shutdown(self, reason: str = "shutdown") -> None:
        """Begin a graceful drain (signal-handler safe: only sets a flag)."""
        self._drain_reason = reason
        self._stopping.set()

    @property
    def drain_reason(self) -> str:
        """The reason given to :meth:`shutdown` (``"shutdown"`` before one)."""
        return self._drain_reason

    # ------------------------------------------------------------- internal
    def _handle_line(self, conn, raw: bytes) -> Tuple[bool, str]:
        """Handle one request line; returns (keep-connection-open, reason)."""
        text = raw.decode("utf-8", "replace").strip()
        with self._lock:
            self.requests_handled += 1
        try:
            response, close = self._handler(text)
        except Exception as exc:
            if self._on_error is None:
                raise
            response, close = self._on_error(exc), False
        if response is not None:
            if not self._send(conn, response):
                return False, "eof"
        return (not close), ("quit" if close else "eof")

    @staticmethod
    def _send(conn, line: str) -> bool:
        try:
            conn.sendall(line.encode("utf-8") + b"\n")
            return True
        except OSError:
            return False  # client went away mid-response


class ThreadedLineServer(LineProtocol):
    """The TCP accept loop: one :class:`LineProtocol` connection per client.

    ``host`` / ``port`` is the bind address; port 0 asks the kernel for a
    free port — the bound address is :attr:`address`.  ``handler`` and the
    keyword callables are the line protocol's (see :class:`LineProtocol`).
    """

    def __init__(self, host: str, port: int, handler: LineHandler, *,
                 backlog: int = 64, **callables) -> None:
        super().__init__(handler, **callables)
        self._listener = socket.create_server((host, port), backlog=backlog)
        self._listener.settimeout(0.2)  # poll so shutdown() is honoured
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._threads: List[threading.Thread] = []

    def serve_forever(self) -> None:
        """Accept until :meth:`shutdown`, then drain every connection.

        Returns only after all connection threads have finished their
        buffered requests and said farewell — the caller can exit cleanly
        the moment this returns.
        """
        accepted = 0
        try:
            while not self._stopping.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us during shutdown
                accepted += 1
                thread = threading.Thread(
                    target=self._run_connection,
                    args=(conn,),
                    name=f"repro-serve-conn-{accepted}",
                    daemon=True,
                )
                with self._lock:
                    self._threads.append(thread)
                thread.start()
        finally:
            self._listener.close()
            with self._lock:
                threads = list(self._threads)
            for thread in threads:
                thread.join()

    def _run_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(0.2)  # poll so a drain is honoured promptly
            self.serve_connection(conn)
        finally:
            try:
                # shutdown() before close(): a process-pool worker forked
                # while this connection was open holds a copy of its
                # descriptor, and close() alone would not end the stream.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer is already gone
            try:
                conn.close()
            except OSError:
                pass
            # Leave the drain list: it holds only live connections, so a
            # long-running server does not grow it by one per connection.
            with self._lock:
                self._threads.remove(threading.current_thread())
