"""Serve the hub's REST API over a real TCP socket — and speak to it.

Until this module existed, :class:`~repro.hub.api.RestApi` was only ever a
method call: client and server shared one process, one thread and one Python
object graph.  :class:`HubHttpServer` puts the same API behind a stdlib
:class:`~http.server.ThreadingHTTPServer`, so every request arrives on its
own thread over a genuine socket, and :class:`HttpTransport` is the client
half — an object with the exact ``RestApi`` verb surface (``request`` /
``get`` / ``put`` / ``post`` / ``delete`` returning
:class:`~repro.hub.api.ApiResponse`), implemented with
:class:`http.client.HTTPConnection`.

Because the surfaces match, everything built against the in-process API
works over the wire unchanged: wrap an :class:`HttpTransport` in
:class:`~repro.hub.retry.RetryingApi` and hand it to
:class:`~repro.hub.sync.HubRemote` and clone/fetch/pull/push run over TCP
with transparent retry.  Socket-level failures (connection refused, reset,
timeout) surface as :class:`~repro.errors.TransportError` — the same
exception the ``wire.*`` failpoints raise — so the retry classification
needs no new cases.

Thread-safety contract
----------------------
``HubHttpServer`` handles each connection on its own thread, and a
connection carries many requests (HTTP/1.1 keep-alive); it is safe exactly
because every layer below it is: the platform serialises per-repository
mutations, ref moves are compare-and-swap, storage backends take a write
lock, and the token authority and rate limiter lock their counters (see
``docs/ARCHITECTURE.md``).  ``HttpTransport`` keeps one persistent
connection per client thread and reuses it across requests, so a single
transport instance may be shared freely between client threads: no two
threads ever touch the same connection.

HTTP mapping
------------
* the request path + query string is passed verbatim to ``RestApi.request``;
* ``Authorization: token <value>`` (or ``Bearer <value>``) carries the
  access token;
* request and response bodies are JSON (``Content-Type:
  application/json``); an unparseable request body is a 400;
* the :class:`~repro.hub.api.ApiResponse` status becomes the HTTP status
  line and its ``json`` the response body — including the ``retryable`` /
  ``retry_after`` error fields documented in ``docs/WIRE_PROTOCOL.md``;
* bodies are framed by ``Content-Length`` only: a negative length is a 400
  and a ``Transfer-Encoding`` body a 411, and both close the connection,
  because the bytes that follow can no longer be told apart from the next
  request.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlsplit

from repro.errors import ReproError, TransportError
from repro.faults import SimulatedCrash
from repro.hub.api import ApiResponse, ApiVerbs, RestApi
from repro.utils.jsonutil import stable_loads

__all__ = ["HubHttpServer", "HttpTransport", "serve_platform"]

#: Sockets a handler will wait on before giving up on a stalled client.
DEFAULT_REQUEST_TIMEOUT = 30.0
#: Largest request body the server will read (a receive-pack bundle).
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024
#: Largest response body the client transport will buffer.
DEFAULT_MAX_RESPONSE_BYTES = 256 * 1024 * 1024


#: Socket-level failures a request thread absorbs quietly: the client
#: vanished or stalled, which is its prerogative, not a server fault.
_CLIENT_GONE = (BrokenPipeError, ConnectionResetError, TimeoutError)

#: How a kept-alive connection the server has already closed fails before
#: any status line arrives (``RemoteDisconnected`` is a reset subclass).
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class _HubRequestHandler(BaseHTTPRequestHandler):
    """Translate each HTTP exchange on one connection into a ``RestApi.request`` call."""

    protocol_version = "HTTP/1.1"
    server_version = "gitcite-hub/1.0"
    # Headers and body go out in two writes; without TCP_NODELAY the second
    # waits on the client's delayed ACK of the first on a reused connection.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # A per-connection socket timeout: a client that stops sending (or
        # reading) mid-exchange, or leaves a kept-alive connection idle,
        # gets its connection dropped instead of pinning this thread forever.
        self.timeout = self.server.request_timeout
        super().setup()

    def handle(self) -> None:
        # Between requests the connection is registered idle, so stop() can
        # close it instead of leaving it to answer after the server stopped.
        try:
            while self.server._set_idle(self.connection, True):
                self.handle_one_request()
                if self.close_connection:
                    break
        finally:
            self.server._set_idle(self.connection, False)

    def parse_request(self) -> bool:
        # A request line arrived.  Once the server is stopped it is read
        # but never answered: the connection just closes.
        if not self.server._set_idle(self.connection, False):
            self.close_connection = True
            return False
        return super().parse_request()

    def _token(self) -> Optional[str]:
        header = self.headers.get("Authorization")
        if not header:
            return None
        parts = header.split(None, 1)
        # "token <v>" (GitHub style) or "Bearer <v>"; a bare value also works.
        return parts[1].strip() if len(parts) == 2 else parts[0].strip()

    def _reject_framing(self, status: int, message: str):
        """Answer a body whose extent is unknown, then close the connection.

        The unread bytes would otherwise be parsed as the next request on a
        kept-alive connection.
        """
        self.close_connection = True
        self._send(status, {"message": message, "retryable": False})
        return False, None

    def _read_payload(self):
        """Return ``(ok, payload)``; a malformed body answers 4xx itself."""
        if self.headers.get("Transfer-Encoding"):
            return self._reject_framing(
                411, "Transfer-Encoding bodies are not accepted; send Content-Length"
            )
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return self._reject_framing(400, "invalid Content-Length header")
        if length < 0:
            return self._reject_framing(400, "negative Content-Length header")
        if not length:
            return True, None
        if length > self.server.max_body_bytes:
            # The 413 analogue, shaped as the protocol's 422 rejection: the
            # body is refused *before* it is read, the payload is told it is
            # not retryable (re-sending the same oversized bundle cannot
            # succeed), and the connection is closed so the unread bytes
            # cannot poison a keep-alive successor request.
            self.close_connection = True
            self._send(
                422,
                {
                    "message": (
                        f"request body of {length} bytes exceeds the server's "
                        f"{self.server.max_body_bytes}-byte limit"
                    ),
                    "retryable": False,
                },
            )
            return False, None
        raw = self.rfile.read(length)
        if len(raw) < length:
            # Truncated upload (client died mid-body): nothing to answer.
            self.close_connection = True
            return False, None
        try:
            payload = stable_loads(raw)
        except ValueError:  # undecodable UTF-8 and too-deep nesting included
            self._send(400, {"message": "request body is not valid JSON", "retryable": False})
            return False, None
        if payload is not None and not isinstance(payload, dict):
            self._send(
                422,
                {"message": "request body must be a JSON object", "retryable": False},
            )
            return False, None
        return True, payload

    def _dispatch(self, method: str) -> None:
        try:
            ok, payload = self._read_payload()
        except _CLIENT_GONE:
            self.close_connection = True
            return
        if not ok:
            return
        try:
            response = self.server.api.request(
                method, self.path, token=self._token(), payload=payload
            )
        except SimulatedCrash:
            # In a real process a crash in a request thread takes the whole
            # server with it.  ``gitcite serve`` opts in (the chaos suite's
            # in-process kill points); in-process test servers keep the
            # default and let the crash surface to the spawning test.
            if self.server.exit_on_crash:
                os._exit(70)
            raise
        except ReproError as exc:
            # RestApi already maps hub errors to statuses; anything that
            # still escapes (an armed wire failpoint, an unexpected internal
            # error) is a server-side failure the client may retry.
            self._send(500, {"message": str(exc), "retryable": True})
            return
        self._send(response.status, response.json)

    def _send(self, status: int, body) -> None:
        data = json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                # Tell the client not to reuse a connection we will close.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)
        except _CLIENT_GONE:
            # The client disconnected (or stalled past the socket timeout)
            # while we were answering.  That is not a server-side failure:
            # the request itself completed, so no traceback, no error mark —
            # just drop the connection.
            self.close_connection = True

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        """Route access logs to the server's optional callback (default: silent)."""
        log = getattr(self.server, "log", None)
        if log is not None:
            log(format % args)


class HubHttpServer(ThreadingHTTPServer):
    """``RestApi`` behind a real listening TCP socket, one thread per connection.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    Use as a context manager — entering starts the accept loop on a
    background thread, leaving shuts it down and closes the socket::

        with HubHttpServer(RestApi(platform)) as server:
            api = HttpTransport(server.url)
            ...

    or call :meth:`start` / :meth:`stop` explicitly.  ``api`` may be any
    object with the ``RestApi.request`` signature (a bare :class:`RestApi`,
    or one already wrapped in instrumentation).

    Connections are kept alive between requests for up to
    ``request_timeout`` seconds.  :meth:`stop` closes the idle ones; a
    request that still arrives on a kept-alive connection after that is
    read but never answered.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        api,
        host: str = "127.0.0.1",
        port: int = 0,
        log=None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        exit_on_crash: bool = False,
    ) -> None:
        super().__init__((host, port), _HubRequestHandler)
        self.api = api
        self.log = log
        #: Per-connection socket timeout (None disables; stalls pin threads).
        self.request_timeout = request_timeout
        #: Hard cap on request bodies (oversized receive-pack → 422).
        self.max_body_bytes = max_body_bytes
        #: ``gitcite serve`` sets this: a :class:`SimulatedCrash` escaping a
        #: request thread kills the whole process, like a real crash would.
        self.exit_on_crash = exit_on_crash
        self._thread: Optional[threading.Thread] = None
        self._connections_lock = threading.Lock()
        #: Kept-alive connections waiting for their next request line.
        self._idle: set[socket.socket] = set()  # guarded-by: _connections_lock
        self._stopped = False  # guarded-by: _connections_lock

    def _set_idle(self, connection: socket.socket, idle: bool) -> bool:
        """Record whether ``connection`` awaits its next request; False once stopped."""
        with self._connections_lock:
            if idle and not self._stopped:
                self._idle.add(connection)
            else:
                self._idle.discard(connection)
            return not self._stopped

    def handle_error(self, request, client_address) -> None:
        """Client disconnects and stalls are routine, not tracebacks."""
        exc = sys.exc_info()[1]
        if isinstance(exc, _CLIENT_GONE):
            return
        super().handle_error(request, client_address)

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HubHttpServer":
        """Serve on a daemon thread; returns ``self`` once the socket accepts."""
        if self._thread is None:
            thread = threading.Thread(
                target=self.serve_forever, name="gitcite-hub-httpd", daemon=True
            )
            thread.start()
            self._thread = thread
        return self

    def stop(self) -> None:
        """Stop accepting, close idle connections and the listening socket.

        A request already being handled runs to completion; one that
        arrives later on a kept-alive connection is not answered.
        """
        with self._connections_lock:
            self._stopped = True
            idle, self._idle = self._idle, set()
        for connection in idle:
            try:
                # Wakes the handler blocked on the next request line with EOF.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client closed it first
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()

    def __enter__(self) -> "HubHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_platform(platform, host: str = "127.0.0.1", port: int = 0) -> HubHttpServer:
    """Convenience: wrap ``platform`` in a :class:`RestApi` and start serving."""
    return HubHttpServer(RestApi(platform), host=host, port=port).start()


class HttpTransport(ApiVerbs):
    """The ``RestApi`` verb surface spoken over persistent HTTP connections.

    ``base`` is either a full ``http://host:port`` URL (e.g.
    :attr:`HubHttpServer.url`) or a bare host, with ``port`` given
    separately.  Each client thread gets its own HTTP/1.1 connection
    and reuses it for every request it makes —
    :class:`http.client.HTTPConnection` is not thread-safe, so per-thread
    connections are what make a single shared transport instance safe for
    N client threads.  A connection is dropped when the server says it
    will close, on any send/read error, and when a response exceeds the
    cap; the thread's next request opens a fresh one.  :meth:`close`
    closes them all; a thread that exits has its connection closed by the
    transport's next connect.

    A *reused* connection that fails before any status line arrives (reset,
    broken pipe, remote disconnect) is how a connection the server closed
    while idle looks, so the request is re-sent once on a fresh connection.
    The server may have seen the first send; the re-send leans on the same
    endpoint idempotence as :class:`~repro.hub.retry.RetryingApi`.

    Socket-level failures raise :class:`~repro.errors.TransportError`
    (always retryable — the server may or may not have acted, which is the
    ambiguity :class:`~repro.hub.retry.RetryingApi` plus the idempotent
    wire endpoints resolve).  The error message names the phase that died —
    ``connect`` (a fresh connection could not be opened, so the server
    never saw the request; a retry is free) versus ``request/read`` (the
    server may have acted; the retry leans on endpoint idempotence).
    Non-2xx responses are *returned*, not raised, exactly like the
    in-process :class:`RestApi`.

    ``max_response_bytes`` bounds how much response body the transport will
    buffer: a huge (or hostile — Content-Length lies, the stream just keeps
    coming) response raises :class:`TransportError` instead of growing RAM
    without limit.  ``connect_timeout`` defaults to ``timeout`` but can be
    set tighter — connection establishment to a dead host should fail in
    seconds even when reads of a slow-but-live server are allowed minutes.
    """

    def __init__(
        self,
        base: str,
        port: Optional[int] = None,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        max_response_bytes: int = DEFAULT_MAX_RESPONSE_BYTES,
    ) -> None:
        if "//" in base:
            split = urlsplit(base)
            self.host = split.hostname or "127.0.0.1"
            self.port = split.port or port or 80
        else:
            self.host = base
            self.port = port or 80
        self.timeout = timeout
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.max_response_bytes = max_response_bytes
        self._connections_lock = threading.Lock()
        #: Each client thread's open connection; a thread only ever uses its own.
        self._connections: dict[threading.Thread, HTTPConnection] = {}  # guarded-by: _connections_lock

    def _connect(self, method: str, url: str, stale: Optional[Exception] = None) -> HTTPConnection:
        """Open this thread's fresh connection, or raise :class:`TransportError`.

        ``stale`` is the failure of the reused connection this one replaces;
        the message then says the request may already have been sent.
        """
        connection = HTTPConnection(self.host, self.port, timeout=self.connect_timeout)
        try:
            connection.connect()
        except (OSError, HTTPException) as exc:
            connection.close()
            if stale is not None:
                raise TransportError(
                    f"{method} {url}: request/read failed on a reused connection "
                    f"({stale}), and the re-send could not reach "
                    f"{self.host}:{self.port}: {exc}"
                ) from exc
            reason = "connect timeout" if isinstance(exc, TimeoutError) else "connect failed"
            raise TransportError(
                f"{method} {url}: {reason} "
                f"({self.host}:{self.port}, {self.connect_timeout:.1f}s): {exc}"
            ) from exc
        # Connected: the remaining socket operations (send, await the
        # response, drain the body) run under the read timeout.
        connection.sock.settimeout(self.timeout)
        with self._connections_lock:
            for owner in [owner for owner in self._connections if not owner.is_alive()]:
                self._connections.pop(owner).close()  # its thread has exited
            self._connections[threading.current_thread()] = connection
        return connection

    def _drop(self) -> None:
        """Close the calling thread's connection; its next request opens a fresh one."""
        with self._connections_lock:
            connection = self._connections.pop(threading.current_thread(), None)
        if connection is not None:
            connection.close()

    def close(self) -> None:
        """Close every connection this transport holds open.

        Call it when no request is in flight; the transport stays usable,
        and each thread's next request opens a fresh connection.
        """
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    def _read_capped(self, response, method: str, url: str) -> bytes:
        """Drain the response body, refusing to buffer past the cap."""
        chunks: list[bytes] = []
        total = 0
        while True:
            chunk = response.read(65536)
            if not chunk:
                return b"".join(chunks)
            total += len(chunk)
            if total > self.max_response_bytes:
                raise TransportError(
                    f"{method} {url}: response body exceeds the "
                    f"{self.max_response_bytes}-byte client limit"
                )
            chunks.append(chunk)

    def request(
        self,
        method: str,
        url: str,
        token: Optional[str] = None,
        payload: Optional[dict] = None,
    ) -> ApiResponse:
        headers = {"Accept": "application/json"}
        if token is not None:
            headers["Authorization"] = f"token {token}"
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connections.get(threading.current_thread())
        reused = connection is not None
        try:
            if not reused:
                connection = self._connect(method, url)
            try:
                connection.request(method.upper(), url, body=body, headers=headers)
                response = connection.getresponse()
            except _STALE_CONNECTION as stale:
                if not reused:
                    raise
                # The server closed this kept-alive connection while it sat
                # idle: re-send once on a fresh one.
                self._drop()
                connection = self._connect(method, url, stale=stale)
                connection.request(method.upper(), url, body=body, headers=headers)
                response = connection.getresponse()
            status = response.status
            raw = self._read_capped(response, method, url)
        except (OSError, HTTPException) as exc:
            self._drop()
            reason = "read timeout" if isinstance(exc, TimeoutError) else "request/read failed"
            raise TransportError(
                f"{method} {url}: {reason} (after connect, {self.timeout:.1f}s): {exc}"
            ) from exc
        except TransportError:
            # A failed connect, or a cap overrun that leaves the connection
            # mid-response where it cannot carry another request.
            self._drop()
            raise
        if response.will_close:
            self._drop()
        try:
            parsed = stable_loads(raw) if raw else None
        except ValueError:  # undecodable UTF-8 and too-deep nesting included
            parsed = None
        return ApiResponse(status=status, json=parsed)
