"""End-to-end tests for the hub over a real TCP socket.

Everything here exercises :class:`~repro.hub.httpd.HubHttpServer` on a live
ephemeral port: raw wire behaviour (statuses, auth header parsing, malformed
bodies), the :class:`~repro.hub.httpd.HttpTransport` drop-in transport, and
the full clone → commit → push round trip through
:class:`~repro.hub.sync.HubRemote` — the same code paths the in-process
tests cover, now with a genuine socket in the middle.
"""

import base64
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPResponse
from pathlib import Path

import pytest

from repro.errors import TransportError
from repro.hub.api import ApiResponse, RestApi
from repro.hub.httpd import HttpTransport, HubHttpServer, serve_platform
from repro.hub.retry import RetryingApi, RetryPolicy
from repro.hub.server import HostingPlatform


@pytest.fixture
def platform(enabled_manager) -> HostingPlatform:
    platform = HostingPlatform()
    platform.register_user("alice", name="Alice Smith")
    platform.register_user("bob", name="Bob Jones")
    platform.host_repository(enabled_manager.repo)
    return platform


@pytest.fixture
def alice_token(platform) -> str:
    return platform.issue_token("alice").value


@pytest.fixture
def server(platform):
    """The platform's REST API live on an ephemeral local port."""
    with HubHttpServer(RestApi(platform)) as served:
        yield served


@pytest.fixture
def wire(server) -> HttpTransport:
    transport = HttpTransport(server.url)
    yield transport
    transport.close()


class TestServerBasics:
    def test_binds_ephemeral_port_and_reports_url(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_refs_over_the_socket(self, wire):
        response = wire.get("/repos/alice/demo/git/refs")
        assert response.status == 200
        assert "main" in {branch["name"] for branch in response.json["branches"]}

    def test_unknown_repository_is_404(self, wire):
        response = wire.get("/repos/alice/nope/git/refs")
        assert response.status == 404
        assert response.json["retryable"] is False

    def test_invalid_token_is_401(self, wire):
        response = wire.get("/repos/alice/demo", token="ghs_bogus")
        assert response.status == 401

    def test_token_and_bearer_auth_schemes(self, server, wire, alice_token):
        for scheme in ("token", "Bearer"):
            connection = HTTPConnection(server.host, server.port, timeout=10)
            try:
                connection.request(
                    "GET", "/user", headers={"Authorization": f"{scheme} {alice_token}"}
                )
                response = connection.getresponse()
                body = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 200
            assert body["login"] == "alice"

    def test_malformed_json_body_is_400(self, server):
        connection = HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", "/repos/alice/demo/git/upload-pack", body=b"{not json",
                headers={"Content-Type": "application/json", "Content-Length": "9"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert body["retryable"] is False

    def test_deeply_nested_json_body_is_400_and_the_server_lives_on(self, server):
        payload = b"[" * 200_000 + b"]" * 200_000
        connection = HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", "/repos/alice/demo/git/upload-pack", body=payload,
                headers={"Content-Type": "application/json",
                         "Content-Length": str(len(payload))},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            connection.request("GET", "/repos/alice/demo/git/refs")
            follow_up = connection.getresponse()
            follow_up.read()
        finally:
            connection.close()
        assert response.status == 400
        assert body["retryable"] is False
        assert follow_up.status == 200

    def test_deeply_nested_json_reply_reads_as_no_json(self):
        """A hostile server's reply nested past the parser's recursion limit
        is an unparsed body, not a RecursionError in the client."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Hostile(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"[" * 200_000
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = ThreadingHTTPServer(("127.0.0.1", 0), Hostile)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            wire = HttpTransport(f"http://127.0.0.1:{stub.server_address[1]}", timeout=10)
            response = wire.get("/repos/alice/demo/git/refs")
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=10)
        assert (response.status, response.json) == (200, None)

    def test_non_object_json_body_is_422(self, server):
        payload = b'["not", "an", "object"]'
        connection = HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", "/repos/alice/demo/git/upload-pack", body=payload,
                headers={"Content-Type": "application/json",
                         "Content-Length": str(len(payload))},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 422

    def test_percent_encoded_contents_path_round_trips(self, wire, alice_token):
        url = "/repos/alice/demo/contents/my%20file.txt"
        body = {"message": "add", "content": base64.b64encode(b"spaced\n").decode("ascii")}
        put = wire.put(url, body, token=alice_token)
        assert (put.status, put.json["content"]["path"]) == (201, "my file.txt")
        got = wire.get(url, token=alice_token)
        assert got.status == 200 and base64.b64decode(got.json["content"]) == b"spaced\n"
        # Each segment is decoded once: %2520 names '/my%20file.txt'.
        assert wire.get("/repos/alice/demo/contents/my%2520file.txt", token=alice_token).status == 404
        assert wire.delete(url, {"message": "drop"}, token=alice_token).status == 200
        assert wire.get(url, token=alice_token).status == 404

    def test_connection_refused_raises_transport_error(self, platform):
        stopped = serve_platform(platform)
        url = stopped.url
        stopped.stop()
        with pytest.raises(TransportError):
            HttpTransport(url, timeout=2).get("/repos/alice/demo")

    def test_concurrent_requests_all_answered(self, wire):
        statuses = []
        lock = threading.Lock()

        def fetch():
            response = wire.get("/repos/alice/demo/git/refs")
            with lock:
                statuses.append(response.status)

        threads = [threading.Thread(target=fetch) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [200] * 12


class _CountingServer(HubHttpServer):
    """A hub server that counts the TCP connections it accepts."""

    accepts = 0

    def get_request(self):
        accepted = super().get_request()
        self.accepts += 1  # only the accept-loop thread runs this
        return accepted


class _CountingApi:
    """Counts the requests that reach the API behind the socket."""

    def __init__(self, api, gate: threading.Event = None) -> None:
        self.api = api
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def request(self, method, url, token=None, payload=None) -> ApiResponse:
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            self.gate.wait(5.0)
        return self.api.request(method, url, token=token, payload=payload)


def _read_response_status(raw: socket.socket) -> int:
    """Read one whole response off a raw socket; return its status."""
    raw.settimeout(5.0)
    response = HTTPResponse(raw)
    response.begin()
    response.read()
    return response.status


def _read_until_closed(raw: socket.socket) -> bytes:
    """Everything the server sends before closing; a 1 s silence fails the test."""
    raw.settimeout(1.0)
    received = b""
    while True:
        chunk = raw.recv(65536)
        if not chunk:
            return received
        received += chunk


class TestKeepAlive:
    """One persistent connection per client thread, reused across requests."""

    def test_sequential_requests_share_one_connection(self, platform):
        with _CountingServer(RestApi(platform)) as server:
            wire = HttpTransport(server.url, timeout=10)
            for _ in range(10):
                assert wire.get("/repos/alice/demo/git/refs").status == 200
            assert server.accepts == 1
            wire.close()  # the transport stays usable on a fresh connection
            assert wire.get("/repos/alice/demo/git/refs").status == 200
            assert server.accepts == 2
            wire.close()

    def test_threads_sharing_a_transport_use_a_connection_each(self, platform):
        statuses = []
        lock = threading.Lock()
        with _CountingServer(RestApi(platform)) as server:
            wire = HttpTransport(server.url, timeout=10)

            def fetch():
                for _ in range(5):
                    response = wire.get("/repos/alice/demo/git/refs")
                    with lock:
                        statuses.append(response.status)

            threads = [threading.Thread(target=fetch) for _ in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads aggressively
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=20.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert statuses == [200] * 40
            assert 1 <= server.accepts <= 8
            wire.close()

    def test_connection_closed_by_idle_timeout_is_replaced_transparently(self, platform):
        with _CountingServer(RestApi(platform), request_timeout=0.3) as server:
            wire = HttpTransport(server.url, timeout=10)
            assert wire.get("/repos/alice/demo/git/refs").status == 200
            time.sleep(0.8)  # the server drops the idle connection
            assert wire.get("/repos/alice/demo/git/refs").status == 200
            assert server.accepts == 2
            wire.close()

    def test_stopped_server_does_not_answer_a_kept_alive_connection(self, platform):
        api = _CountingApi(RestApi(platform))
        server = HubHttpServer(api).start()
        wire = HttpTransport(server.url, timeout=5, connect_timeout=1)
        assert wire.get("/repos/alice/demo/git/refs").status == 200
        server.stop()
        with pytest.raises(TransportError) as caught:
            wire.get("/repos/alice/demo/git/refs")
        assert api.calls == 1
        # The first send may have reached the server: not a connect failure.
        assert "reused connection" in str(caught.value)
        assert "connect failed" not in str(caught.value)

    def test_stop_closes_idle_connections_and_lets_in_flight_finish(self, platform):
        gate = threading.Event()
        api = _CountingApi(RestApi(platform), gate=gate)
        server = HubHttpServer(api).start()
        request = b"GET /repos/alice/demo/git/refs HTTP/1.1\r\nHost: hub\r\n\r\n"
        idle = socket.create_connection((server.host, server.port))
        busy = socket.create_connection((server.host, server.port))
        try:
            gate.set()
            idle.sendall(request)
            assert _read_response_status(idle) == 200
            gate.clear()
            busy.sendall(request)
            deadline = time.monotonic() + 5.0
            while api.calls < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            # The idle connection is closed at once ...
            assert _read_until_closed(idle) == b""
            # ... the in-flight request is still answered, and a second
            # request on the same connection after stop() is not.
            gate.set()
            assert _read_response_status(busy) == 200
            stopper.join(5.0)
            try:
                busy.sendall(request)
                answer = _read_until_closed(busy)
            except (BrokenPipeError, ConnectionResetError):
                answer = b""  # closed before the request even landed
            assert answer == b""
            assert api.calls == 2
        finally:
            gate.set()
            idle.close()
            busy.close()
            server.stop()

    def test_draining_sheds_503_on_a_live_connection_then_stops_answering(self, platform):
        from repro.hub.lifecycle import GuardedApi, ServingState, drain

        state = ServingState()
        server = _CountingServer(GuardedApi(RestApi(platform), state)).start()
        wire = HttpTransport(server.url, timeout=5, connect_timeout=1)
        assert wire.get("/repos/alice/demo/git/refs").status == 200
        state.start_draining()
        shed = wire.get("/repos/alice/demo/git/refs")
        assert shed.status == 503 and shed.json["retryable"] is True
        assert server.accepts == 1  # answered on the kept-alive connection
        assert drain(state, http_server=server, timeout=5.0)
        with pytest.raises(TransportError):
            wire.get("/repos/alice/demo/git/refs")

    def test_oversized_body_close_is_followed_by_a_fresh_connection(self, platform):
        with _CountingServer(RestApi(platform), max_body_bytes=1024) as server:
            wire = HttpTransport(server.url, timeout=10)
            assert wire.get("/repos/alice/demo/git/refs").status == 200
            rejected = wire.post("/repos/alice/demo/git/receive-pack", {"bundle": "A" * 4096})
            assert rejected.status == 422
            assert wire.get("/repos/alice/demo/git/refs").status == 200
            assert server.accepts == 2
            wire.close()

    def test_response_cap_overrun_is_followed_by_a_fresh_connection(self, platform):
        with _CountingServer(RestApi(platform)) as server:
            wire = HttpTransport(server.url, timeout=10, max_response_bytes=100)
            assert wire.get("/nope").status == 404  # a short body, under the cap
            with pytest.raises(TransportError, match="client limit"):
                wire.get("/repos/alice/demo/git/refs")
            assert wire.get("/nope").status == 404
            assert server.accepts == 2
            wire.close()


class TestHostileFraming:
    """Bodies whose extent is unknown are refused at once, then the connection closes."""

    def _exchange(self, platform, head: bytes) -> bytes:
        # At a 3 s socket timeout a handler that waits on the body would
        # outlast the 1 s the client allows.
        with HubHttpServer(RestApi(platform), request_timeout=3.0) as server:
            raw = socket.create_connection((server.host, server.port))
            try:
                raw.sendall(head)
                return _read_until_closed(raw)
            finally:
                raw.close()

    def test_negative_content_length_is_400(self, platform):
        answer = self._exchange(
            platform,
            b"POST /repos/alice/demo/git/upload-pack HTTP/1.1\r\n"
            b"Content-Length: -1\r\n\r\n{}",
        )
        assert answer.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in answer
        assert json.loads(answer.split(b"\r\n\r\n", 1)[1])["retryable"] is False

    def test_chunked_body_is_411_and_never_parsed_as_a_request(self, platform):
        answer = self._exchange(
            platform,
            b"POST /repos/alice/demo/git/upload-pack HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 411")
        assert answer.count(b"HTTP/1.1 ") == 1  # the chunk bytes got no answer
        assert json.loads(answer.split(b"\r\n\r\n", 1)[1])["retryable"] is False


class TestRemoteOverSocket:
    """HubRemote + RetryingApi running over the real wire."""

    @pytest.fixture
    def remote(self, wire, alice_token):
        from repro.hub.sync import HubRemote

        api = RetryingApi(wire, RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
        return HubRemote(api, "alice/demo", token=alice_token)

    def test_clone_over_socket_matches_hosted_content(self, remote, platform):
        clone = remote.clone()
        hosted = platform.repositories["alice/demo"].repo
        assert clone.refs.branches == hosted.refs.branches
        assert clone.read_file("README.md") == hosted.read_file("README.md")

    def test_push_over_socket_advances_remote_tip(self, remote, platform):
        clone = remote.clone()
        clone.write_file("pushed.txt", "over a real socket\n")
        new_tip = clone.commit("add pushed.txt", author_name="alice")
        report = remote.push(clone, "main")
        assert report["updated"] == {"main": new_tip}
        assert report["objects_added"] > 0
        hosted = platform.repositories["alice/demo"].repo
        assert hosted.refs.branch_target("main") == new_tip

    def test_push_retry_after_landed_response_is_noop(self, remote):
        clone = remote.clone()
        clone.write_file("idem.txt", "once\n")
        clone.commit("add idem.txt", author_name="alice")
        first = remote.push(clone, "main")
        assert first["objects_added"] > 0
        # Re-send the identical push, as RetryingApi would after a lost
        # response: idempotent apply, zero new objects, same tip.
        second = remote.push(clone, "main")
        assert second["objects_added"] == 0

    def test_pull_over_socket_fast_forwards(self, remote, platform):
        clone = remote.clone()
        hosted = platform.repositories["alice/demo"].repo
        hosted.write_file("upstream.txt", "server-side change\n")
        upstream_tip = hosted.commit("server-side commit", author_name="alice")
        assert remote.pull(clone, "main") == upstream_tip
        assert clone.read_file("upstream.txt") == b"server-side change\n"


class TestServeCommand:
    def _build_working_copy(self, tmp_path: Path) -> Path:
        from repro.cli.main import main

        directory = tmp_path / "proj"
        directory.mkdir()
        (directory / "README.md").write_text("# served\n")
        assert main(["init", "-C", str(directory), "--owner", "alice",
                     "--name", "proj"]) == 0
        return directory

    def test_serve_hosts_working_copy_over_tcp(self, tmp_path):
        directory = self._build_working_copy(tmp_path)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve",
             "-C", str(directory), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving alice/proj on http://")
            url = banner.rsplit(" ", 1)[1]
            token_line = process.stdout.readline()
            token = token_line.rsplit(" ", 1)[1].strip()
            wire = HttpTransport(url, timeout=10)
            refs = wire.get("/repos/alice/proj/git/refs")
            assert refs.status == 200
            assert "main" in {branch["name"] for branch in refs.json["branches"]}
            authed = wire.get("/user", token=token)
            assert authed.status == 200 and authed.json["login"] == "alice"
            wire.close()
        finally:
            process.send_signal(signal.SIGINT)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert "stopped; alice/proj saved" in out
