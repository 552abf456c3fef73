"""Threaded line-oriented TCP transport for the serving front.

The stdin serve loop (``python -m repro.service serve``) already defines
the protocol: newline-delimited JSON requests in, one JSON line out per
request, a greeting line on attach, a shutdown line on detach, and strict
request isolation.  This module carries the *same* protocol over TCP —
it moves bytes and threads only; what a line means is decided by the
handler callable the CLI passes in, so the transport never imports JSON,
services or routers.

Contract carried over from the stdin loop:

* **Trailing line at EOF.**  A final request line whose newline never
  arrived (client wrote ``{"focal": 5}`` and closed) is still a request:
  it is handled at connection EOF exactly as the stdin loop handles an
  unterminated final line — processed if valid, answered with a
  ``bad_request`` error line if truncated mid-JSON.  Never dropped.
* **Graceful drain.**  ``shutdown(reason)`` stops the accept loop, lets
  every connection finish the requests it has already received (buffered
  complete lines included — they were sent before the drain began), sends
  each client a farewell line and only then closes.  The CLI wires this
  to SIGTERM/SIGINT, mirroring the stdin loop's drain.
* **Isolation.**  A handler exception answers that request's line with an
  error produced by ``on_error`` and the connection keeps serving; one
  client's malformed traffic never tears down another's connection.

Every connection gets its own thread; handlers are expected to be
thread-safe (the router/admission stack is — see
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, List, Optional, Tuple

__all__ = ["ThreadedLineServer", "parse_hostport"]

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


class ThreadedLineServer:
    """A thread-per-connection newline-delimited line server.

    Parameters
    ----------
    host / port:
        Bind address; port 0 asks the kernel for a free port — the bound
        address is :attr:`address`.
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
        line (request isolation).  Without it, handler exceptions close
        the connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        handler: LineHandler,
        *,
        greeting: Optional[Callable[[], str]] = None,
        farewell: Optional[Callable[[str], Optional[str]]] = None,
        on_error: Optional[Callable[[BaseException], str]] = None,
        backlog: int = 64,
    ) -> None:
        self._handler = handler
        self._greeting = greeting
        self._farewell = farewell
        self._on_error = on_error
        self._listener = socket.create_server((host, port), backlog=backlog)
        self._listener.settimeout(0.2)  # poll so shutdown() is honoured
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._drain_reason = "shutdown"
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        #: lifetime counters (under ``_lock``)
        self.connections_accepted = 0
        self.requests_handled = 0

    # ------------------------------------------------------------------ API
    def serve_forever(self) -> None:
        """Accept until :meth:`shutdown`, then drain every connection.

        Returns only after all connection threads have finished their
        buffered requests and said farewell — the caller can exit cleanly
        the moment this returns.
        """
        try:
            while not self._stopping.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us during shutdown
                with self._lock:
                    self.connections_accepted += 1
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(conn,),
                        name=f"repro-serve-conn-{self.connections_accepted}",
                        daemon=True,
                    )
                    self._threads.append(thread)
                thread.start()
        finally:
            self._listener.close()
            with self._lock:
                threads = list(self._threads)
            for thread in threads:
                thread.join()

    def shutdown(self, reason: str = "shutdown") -> None:
        """Begin a graceful drain (signal-handler safe: only sets a flag)."""
        self._drain_reason = reason
        self._stopping.set()

    @property
    def drain_reason(self) -> str:
        """The reason given to :meth:`shutdown` (``"shutdown"`` before one)."""
        return self._drain_reason

    # ------------------------------------------------------------- internal
    def _serve_connection(self, conn: socket.socket) -> None:
        reason: Optional[str] = None
        try:
            conn.settimeout(0.2)  # poll so a drain is honoured promptly
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
                    reason = "eof"
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
        finally:
            try:
                conn.close()
            except OSError:
                pass
            # Leave the drain list: it holds only live connections, so a
            # long-running server does not grow it by one per connection.
            with self._lock:
                self._threads.remove(threading.current_thread())

    def _handle_line(self, conn: socket.socket, raw: bytes) -> Tuple[bool, str]:
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
    def _send(conn: socket.socket, line: str) -> bool:
        try:
            conn.sendall(line.encode("utf-8") + b"\n")
            return True
        except OSError:
            return False  # client went away mid-response
