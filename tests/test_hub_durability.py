"""Write-ahead journal, serve recovery and lifecycle guarantees (PR 8).

Covers the durability layer in isolation (journal framing, torn tails,
silent corruption, durable vs write-behind fsync cadence), the recovery
pipeline end to end (push → no save → recover → bytes identical, double
restart idempotence, damaged records degrade instead of fabricating
history), the lifecycle guard (drain, overload shed, degraded read-only,
``/healthz`` probe recovery, deadline accounting) and the HTTP hardening
satellites (oversized bodies, stalled/vanished clients, response caps,
connect-vs-read timeout classification).
"""

from __future__ import annotations

import base64
import socket
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.errors import RemoteError, TransportError, VCSError
from repro.faults import SimulatedCrash
from repro.hub.api import ApiResponse, RestApi
from repro.hub.durability import (
    PushJournal,
    journal_path,
    recover_working_copy,
    replay_journal,
)
from repro.hub.httpd import HubHttpServer, HttpTransport
from repro.hub.lifecycle import GuardedApi, ServingState, drain
from repro.hub.server import HostingPlatform
from repro.hub.sync import HubRemote
from repro.vcs.fsck import fsck_working_copy
from repro.vcs.repository import Repository
from repro.vcs.transfer import advertise_refs, create_bundle
from repro.vcs.workingcopy import load_repository, save_repository


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def _build_served_root(tmp_path: Path) -> Path:
    root = tmp_path / "served"
    repo = Repository.init(name="proj", owner="alice")
    repo.write_file("README.md", "served\n")
    repo.commit("init")
    save_repository(repo, root)
    return root


def _hosted_platform(root: Path, attach_journal: bool = True):
    """(platform, api, token, journal) serving the working copy at ``root``."""
    repo = load_repository(root)
    platform = HostingPlatform()
    platform.host_repository(repo)
    token = platform.issue_token("alice").value
    journal = None
    if attach_journal:
        journal = PushJournal(journal_path(root))
        platform.attach_journal("alice/proj", journal)
    return platform, RestApi(platform), token, journal


# ---------------------------------------------------------------------------
# The journal itself
# ---------------------------------------------------------------------------


class TestPushJournal:
    def test_round_trip_preserves_order_and_force_flags(self, tmp_path):
        path = tmp_path / "j" / "pushes.waj"
        with PushJournal(path) as journal:
            journal.append(b"bundle-one")
            journal.append(b"bundle-two", force=True)
            journal.append(b"bundle-three")
        replay = replay_journal(path)
        assert [record.bundle for record in replay.records] == [
            b"bundle-one", b"bundle-two", b"bundle-three",
        ]
        assert [record.force for record in replay.records] == [False, True, False]
        assert not replay.torn_tail and not replay.corrupt_record

    def test_torn_tail_replays_the_intact_prefix(self, tmp_path):
        path = tmp_path / "pushes.waj"
        with PushJournal(path) as journal:
            journal.append(b"intact")
            journal.append(b"this one is torn by the crash")
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last record mid-payload
        replay = replay_journal(path)
        assert [record.bundle for record in replay.records] == [b"intact"]
        assert replay.torn_tail and not replay.corrupt_record

    def test_flipped_byte_stops_replay_at_the_damage(self, tmp_path):
        path = tmp_path / "pushes.waj"
        with PushJournal(path) as journal:
            journal.append(b"first")
            journal.append(b"second")
            journal.append(b"third")
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # silently corrupt the last record's payload
        path.write_bytes(bytes(data))
        replay = replay_journal(path)
        assert [record.bundle for record in replay.records] == [b"first", b"second"]
        assert replay.corrupt_record and not replay.torn_tail

    def test_durable_mode_fsyncs_every_append(self, tmp_path):
        journal = PushJournal(tmp_path / "pushes.waj", durable=True)
        baseline = journal.syncs
        journal.append(b"a")
        journal.append(b"b")
        assert journal.syncs == baseline + 2
        journal.close()

    def test_write_behind_batches_fsyncs(self, tmp_path):
        journal = PushJournal(tmp_path / "pushes.waj", durable=False, flush_every=3)
        baseline = journal.syncs
        journal.append(b"a")
        journal.append(b"b")
        assert journal.syncs == baseline  # buffered
        journal.append(b"c")
        assert journal.syncs == baseline + 1  # batch boundary
        journal.close()  # close flushes the tail

    def test_append_failpoint_truncate_leaves_a_torn_frame(self, tmp_path):
        path = tmp_path / "pushes.waj"
        journal = PushJournal(path)
        journal.append(b"durable")
        # at=2: the hit counter is per-name and append #1 already consumed hit 1.
        with faults.armed("journal.append", "truncate", keep=5, at=2):
            with pytest.raises(SimulatedCrash):
                journal.append(b"torn away")
        replay = replay_journal(path)
        assert [record.bundle for record in replay.records] == [b"durable"]
        assert replay.torn_tail

    def test_append_failpoint_flip_is_caught_by_the_checksum(self, tmp_path):
        path = tmp_path / "pushes.waj"
        journal = PushJournal(path)
        journal.append(b"good")
        with faults.armed("journal.append", "flip", offset=2, at=2):
            journal.append(b"silently damaged")
        journal.close()
        replay = replay_journal(path)
        assert [record.bundle for record in replay.records] == [b"good"]
        assert replay.corrupt_record

    def test_truncate_resets_to_an_empty_journal(self, tmp_path):
        path = tmp_path / "pushes.waj"
        journal = PushJournal(path)
        journal.append(b"checkpointed")
        journal.truncate()
        journal.append(b"fresh era")
        journal.close()
        replay = replay_journal(path)
        assert [record.bundle for record in replay.records] == [b"fresh era"]

    def test_verify_writable_probes_the_disk(self, tmp_path):
        journal = PushJournal(tmp_path / "pushes.waj")
        assert journal.verify_writable() is True
        journal._handle.close()  # simulate the disk going away
        assert journal.verify_writable() is False

    def test_missing_journal_replays_empty(self, tmp_path):
        replay = replay_journal(tmp_path / "never-created.waj")
        assert replay.records == [] and not replay.torn_tail


# ---------------------------------------------------------------------------
# Recovery end to end
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_acknowledged_push_survives_without_a_save(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, journal = _hosted_platform(root)
        remote = HubRemote(api, "alice/proj", token=token)
        clone = remote.clone()
        clone.write_file("pushed.txt", "must survive\n")
        clone.commit("add pushed.txt")
        result = remote.push(clone)
        assert result["updated"]
        journal.close()  # the process dies here: no save_repository

        recovered, report = recover_working_copy(root)
        assert report.clean and report.records_replayed == 1
        assert recovered.read_file_at("main", "pushed.txt") == b"must survive\n"
        assert recovered.refs.branch_target("main") == result["updated"]["main"]
        # A clean recovery checkpointed and reset the journal.
        assert replay_journal(journal_path(root)).records == []

    def test_contents_commit_is_journalled_as_a_bundle(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, journal = _hosted_platform(root)
        response = api.put(
            "/repos/alice/proj/contents/cite.txt",
            {"message": "cite", "content": base64.b64encode(b"c1\n").decode()},
            token=token,
        )
        assert response.status == 201
        journal.close()

        recovered, report = recover_working_copy(root)
        assert report.clean and report.records_replayed == 1
        assert recovered.read_file_at("main", "cite.txt") == b"c1\n"

    def test_double_restart_is_idempotent(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, journal = _hosted_platform(root)
        remote = HubRemote(api, "alice/proj", token=token)
        clone = remote.clone()
        clone.write_file("a.txt", "a\n")
        clone.commit("a")
        remote.push(clone)
        journal.close()

        # First recovery without checkpointing leaves the journal in place;
        # the second replays the same records onto the already-updated state.
        first, report_one = recover_working_copy(root, checkpoint=False)
        second, report_two = recover_working_copy(root, checkpoint=False)
        assert report_one.records_replayed == report_two.records_replayed == 1
        assert first.refs.branch_target("main") == second.refs.branch_target("main")
        assert second.read_file_at("main", "a.txt") == b"a\n"

    def test_unreplayable_record_degrades_and_keeps_the_journal(self, tmp_path):
        root = _build_served_root(tmp_path)
        with PushJournal(journal_path(root)) as journal:
            journal.append(b"this is not a bundle at all")
        recovered, report = recover_working_copy(root)
        assert report.degraded and report.failed_records == 1
        assert "failed to re-apply" in report.degraded_reason
        # The journal is evidence now — recovery must not truncate it.
        assert len(replay_journal(journal_path(root)).records) == 1
        # The intact checkpoint still loads and serves.
        assert recovered.read_file_at("main", "README.md") == b"served\n"

    def test_recover_failpoint_crash_then_restart_converges(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, journal = _hosted_platform(root)
        remote = HubRemote(api, "alice/proj", token=token)
        clone = remote.clone()
        clone.write_file("b.txt", "b\n")
        clone.commit("b")
        remote.push(clone)
        journal.close()

        with faults.armed("serve.recover", "crash"):
            with pytest.raises(SimulatedCrash):
                recover_working_copy(root)
        # The crash hit mid-recovery; a plain restart replays everything.
        recovered, report = recover_working_copy(root)
        assert report.clean and report.records_replayed == 1
        assert recovered.read_file_at("main", "b.txt") == b"b\n"
        assert fsck_working_copy(root, repair=False).ok

    def _edit_main_and_crash(self, root: Path) -> str:
        """Recover, commit a contents edit of the checked-out ``main``, and
        die without saving; returns the acknowledged commit."""
        repo, _ = recover_working_copy(root)
        platform = HostingPlatform()
        platform.host_repository(repo)
        token = platform.issue_token("alice").value
        journal = PushJournal(journal_path(root))
        platform.attach_journal("alice/proj", journal)
        oid = platform.put_file("alice/proj", "/README.md", b"hub edit\n", message="edit",
                                token=token)
        journal.close()
        return oid

    def test_double_crash_keeps_an_acknowledged_edit_of_the_head_branch(self, tmp_path):
        root = _build_served_root(tmp_path)
        oid = self._edit_main_and_crash(root)
        recovered, report = recover_working_copy(root)  # then crash again
        local = load_repository(root)
        assert local.head_oid() == oid
        assert (root / "README.md").read_bytes() == b"hub edit\n"
        assert local.status().is_clean
        with pytest.raises(VCSError, match="nothing to commit"):
            local.commit("would revert the acknowledged edit")
        assert report.records_replayed == 1 and report.kept_local == []
        assert recovered.worktree.sorted_paths() == []  # hosted bare

    @pytest.mark.parametrize("failpoint", ["state.save", "serve.recover"])
    def test_crash_inside_the_checkpoint_converges(self, tmp_path, failpoint):
        root = _build_served_root(tmp_path)
        oid = self._edit_main_and_crash(root)
        faults.reset()  # count this start's hits from one
        with faults.armed(failpoint, "crash"):
            with pytest.raises(SimulatedCrash):
                recover_working_copy(root)
        if failpoint == "state.save":  # files moved, state.json not yet
            assert (root / "README.md").read_bytes() == b"hub edit\n"
            assert load_repository(root).head_oid() != oid
        recovered, report = recover_working_copy(root)
        assert report.clean and report.records_replayed == 1 and report.kept_local == []
        local = load_repository(root)
        assert local.head_oid() == oid and local.status().is_clean
        assert replay_journal(journal_path(root)).records == []

    def test_checkpoint_keeps_and_reports_a_local_edit(self, tmp_path):
        root = _build_served_root(tmp_path)
        oid = self._edit_main_and_crash(root)
        (root / "README.md").write_text("local edit\n")
        _, report = recover_working_copy(root)
        assert report.kept_local == ["/README.md"]
        local = load_repository(root)
        assert local.head_oid() == oid and local.status().modified == ("/README.md",)
        assert (root / "README.md").read_text() == "local edit\n"

    def test_journal_append_oserror_becomes_retryable_503(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, journal = _hosted_platform(root)
        state = ServingState()
        platform.bind_lifecycle(state)
        remote = HubRemote(api, "alice/proj", token=token)
        clone = remote.clone()
        clone.write_file("c.txt", "c\n")
        clone.commit("c")
        with faults.armed(
            "journal.append", "error", error=lambda: OSError("disk gone")
        ):
            with pytest.raises(RemoteError, match="degraded"):
                remote.push(clone)
        # The failed append degraded the hub: writes shed until it heals.
        assert state.degraded is not None and "journal" in state.degraded
        # The disk healed: re-sending the identical receive-pack (what the
        # retrying transport does) is acknowledged AND journalled, even
        # though the refs already moved on the first, unacknowledged try.
        bundle = create_bundle(
            clone.store,
            [clone.refs.branch_target("main")],
            refs=advertise_refs(clone),
        )
        response = api.post(
            "/repos/alice/proj/git/receive-pack",
            {"bundle": base64.b64encode(bundle).decode()},
            token=token,
        )
        assert response.ok
        journal.close()
        assert len(replay_journal(journal_path(root)).records) == 1


# ---------------------------------------------------------------------------
# Lifecycle: drain, shed, degraded, health
# ---------------------------------------------------------------------------


class _StubApi:
    """A RestApi stand-in with scripted responses."""

    def __init__(self, response: ApiResponse | None = None):
        self.response = response if response is not None else ApiResponse(status=200, json={})
        self.calls = 0

    def request(self, method, url, token=None, payload=None):
        self.calls += 1
        return self.response


class TestLifecycle:
    def test_draining_sheds_everything_with_retryable_503(self):
        state = ServingState()
        guard = GuardedApi(_StubApi(), state)
        state.start_draining()
        response = guard.get("/repos/alice/proj/git/refs")
        assert response.status == 503
        assert response.json["retryable"] is True and "retry_after" in response.json
        assert guard.api.calls == 0
        assert state.snapshot()["shed"]["draining"] == 1

    def test_degraded_sheds_writes_but_serves_reads(self):
        state = ServingState()
        inner = _StubApi()
        guard = GuardedApi(inner, state)
        state.mark_degraded("disk failure")
        push = guard.post("/repos/alice/proj/git/receive-pack", {"bundle": "x"})
        assert push.status == 503 and push.json["retryable"] is True
        read = guard.get("/repos/alice/proj/git/refs")
        assert read.status == 200
        # upload-pack is a POST but only reads — it must pass through too.
        fetch = guard.post("/repos/alice/proj/git/upload-pack", {"wants": ["main"]})
        assert fetch.status == 200
        assert inner.calls == 2

    def test_overload_shed_with_retry_after(self):
        state = ServingState(max_in_flight=1)
        guard = GuardedApi(_StubApi(), state)
        assert state.try_enter()  # occupy the only slot
        response = guard.get("/user")
        assert response.status == 503 and response.json["retryable"] is True
        assert response.json["retry_after"] > 0
        state.leave()
        assert guard.get("/user").status == 200

    def test_healthz_reports_and_probes_recovery(self):
        state = ServingState()
        healed = {"value": False}
        guard = GuardedApi(_StubApi(), state, probe=lambda: healed["value"])
        assert guard.get("/healthz").status == 200
        state.mark_degraded("disk failure", recoverable=True)
        assert guard.get("/healthz").status == 503  # probe says still broken
        healed["value"] = True
        response = guard.get("/healthz")
        assert response.status == 200 and state.degraded is None

    def test_unrecoverable_degradation_ignores_the_probe(self):
        state = ServingState()
        guard = GuardedApi(_StubApi(), state, probe=lambda: True)
        state.mark_degraded("quarantined history", recoverable=False)
        assert guard.get("/healthz").status == 503
        assert state.degraded is not None

    def test_deadline_overrun_converts_late_failures_only(self):
        clock = {"now": 0.0}
        state = ServingState(request_deadline=1.0)

        class SlowApi(_StubApi):
            def request(self, method, url, token=None, payload=None):
                clock["now"] += 5.0  # every request blows the deadline
                return super().request(method, url, token=token, payload=payload)

        slow_failure = SlowApi(ApiResponse(status=404, json={"message": "gone"}))
        guard = GuardedApi(slow_failure, state, clock=lambda: clock["now"])
        assert guard.get("/user").status == 503  # late failure → retryable
        slow_success = SlowApi(ApiResponse(status=200, json={"ok": True}))
        guard = GuardedApi(slow_success, state, clock=lambda: clock["now"])
        assert guard.get("/user").status == 200  # late success is still the ack
        assert state.snapshot()["deadline_overruns"] == 2

    def test_drain_waits_for_in_flight_work(self):
        state = ServingState()
        inner = _StubApi()
        guard = GuardedApi(inner, state)
        release = threading.Event()

        class BlockingApi(_StubApi):
            def request(self, method, url, token=None, payload=None):
                release.wait(5.0)
                return super().request(method, url, token=token, payload=payload)

        guard = GuardedApi(BlockingApi(), state)
        worker = threading.Thread(target=lambda: guard.get("/user"), daemon=True)
        worker.start()
        deadline = time.monotonic() + 5.0
        while state.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not drain(state, timeout=0.1)  # still blocked inside
        release.set()
        worker.join(timeout=5.0)
        assert state.wait_idle(5.0)


# ---------------------------------------------------------------------------
# HTTP hardening: body caps, vanishing clients, transport limits
# ---------------------------------------------------------------------------


class TestHttpHardening:
    def test_oversized_body_is_rejected_as_non_retryable_422(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, _ = _hosted_platform(root, attach_journal=False)
        with HubHttpServer(api, max_body_bytes=1024) as server:
            wire = HttpTransport(server.url, timeout=10)
            response = wire.post(
                "/repos/alice/proj/git/receive-pack",
                {"bundle": "A" * 4096},
                token=token,
            )
            assert response.status == 422
            assert response.json["retryable"] is False
            assert "limit" in response.json["message"]

    def test_client_disconnect_mid_request_does_not_kill_the_server(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, _ = _hosted_platform(root, attach_journal=False)
        with HubHttpServer(api) as server:
            raw = socket.create_connection((server.host, server.port))
            raw.sendall(b"POST /repos/alice/proj/git/receive-pack HTTP/1.1\r\n"
                        b"Content-Length: 500000\r\n\r\npartial")
            raw.close()  # vanish mid-body
            wire = HttpTransport(server.url, timeout=10)
            assert wire.get("/repos/alice/proj/git/refs").status == 200

    def test_stalled_client_cannot_pin_a_handler_thread(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, _ = _hosted_platform(root, attach_journal=False)
        with HubHttpServer(api, request_timeout=0.3) as server:
            stalled = socket.create_connection((server.host, server.port))
            stalled.sendall(b"POST /repos/alice/proj/git/receive-pack HTTP/1.1\r\n"
                            b"Content-Length: 1000\r\n\r\n")  # …and never the body
            time.sleep(0.6)  # past the socket timeout: the handler gave up
            wire = HttpTransport(server.url, timeout=10)
            assert wire.get("/repos/alice/proj/git/refs").status == 200
            stalled.close()

    def test_transport_caps_hostile_response_bodies(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, _ = _hosted_platform(root, attach_journal=False)
        with HubHttpServer(api) as server:
            wire = HttpTransport(server.url, timeout=10, max_response_bytes=64)
            with pytest.raises(TransportError, match="client limit"):
                wire.get("/repos/alice/proj/git/refs")

    def test_connect_failure_is_labelled_as_connect(self):
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        port = sink.getsockname()[1]
        sink.close()  # nothing listens here any more
        wire = HttpTransport("127.0.0.1", port=port, timeout=5, connect_timeout=0.5)
        with pytest.raises(TransportError, match="connect"):
            wire.get("/anything")

    def test_read_timeout_is_labelled_as_after_connect(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            port = listener.getsockname()[1]
            # The backlog accepts the TCP handshake but nothing ever answers.
            wire = HttpTransport("127.0.0.1", port=port, timeout=0.3)
            with pytest.raises(TransportError, match="after connect"):
                wire.get("/anything")
        finally:
            listener.close()

    def test_degraded_hub_over_http_serves_reads_rejects_pushes(self, tmp_path):
        root = _build_served_root(tmp_path)
        platform, api, token, journal = _hosted_platform(root)
        state = ServingState()
        platform.bind_lifecycle(state)
        state.mark_degraded("quarantined history", recoverable=False)
        guard = GuardedApi(api, state, probe=journal.verify_writable)
        with HubHttpServer(guard) as server:
            wire = HttpTransport(server.url, timeout=10)
            assert wire.get("/repos/alice/proj/git/refs").status == 200
            remote = HubRemote(wire, "alice/proj", token=token)
            clone = remote.clone()  # reads (refs + upload-pack) still work
            assert clone.read_file_at("main", "README.md") == b"served\n"
            clone.write_file("nope.txt", "rejected\n")
            clone.commit("nope")
            bundle_response = wire.post(
                "/repos/alice/proj/git/receive-pack",
                {"bundle": base64.b64encode(b"ignored").decode()},
                token=token,
            )
            assert bundle_response.status == 503
            assert bundle_response.json["retryable"] is True
            health = wire.get("/healthz")
            assert health.status == 503 and health.json["status"] == "degraded"
        journal.close()
