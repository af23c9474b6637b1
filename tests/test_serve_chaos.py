"""Process-level chaos: ``gitcite serve`` vs kill -9, crash faults and drains.

The durability tests exercise the journal and recovery in-process; this
suite runs the real thing — a ``gitcite serve`` subprocess on a real TCP
socket — and kills it the way an operator's host would: ``SIGKILL`` at
schedule-dealt points, :class:`~repro.faults.SimulatedCrash` armed *inside*
the subprocess via ``GITCITE_SERVE_FAULTS`` (which ``serve`` turns into a
hard ``os._exit``), and SIGTERM for the graceful path.  After every death
the server restarts and the contract is asserted: **every acknowledged push
survives byte-for-byte; nothing acknowledged is ever lost.**
"""

from __future__ import annotations

import base64
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import RemoteError, TransportError
from repro.hub.durability import PushJournal, journal_path, replay_journal
from repro.hub.httpd import HttpTransport
from repro.hub.retry import RetryingApi, RetryPolicy
from repro.hub.sync import HubRemote
from repro.vcs.fsck import fsck_working_copy
from repro.vcs.merge import is_ancestor_commit
from repro.vcs.repository import Repository
from repro.vcs.workingcopy import load_repository, save_repository
from repro.workloads.generator import WorkloadConfig, generate_serve_chaos_schedule

SLUG = "alice/proj"


def _build_working_copy(tmp_path: Path) -> Path:
    root = tmp_path / "served"
    repo = Repository.init(name="proj", owner="alice")
    repo.write_file("README.md", "chaos target\n")
    repo.commit("init")
    save_repository(repo, root)
    return root


def _spawn(directory: Path, *extra: str, faults_env: str | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("GITCITE_SERVE_FAULTS", None)
    if faults_env:
        env["GITCITE_SERVE_FAULTS"] = faults_env
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", "serve",
         "-C", str(directory), "--port", "0", "--no-rate-limit", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _read_banner(process: subprocess.Popen):
    """(url, token) from the serve banner, or (None, None) if it died first."""
    banner = (process.stdout.readline() or "").strip()
    if not banner.startswith("serving"):
        return None, None
    url = banner.rsplit(" ", 1)[1]
    token_line = process.stdout.readline() or ""
    return url, token_line.rsplit(" ", 1)[1].strip()


def _remote(url: str, token: str, attempts: int = 3) -> HubRemote:
    wire = RetryingApi(
        HttpTransport(url, timeout=10),
        RetryPolicy(max_attempts=attempts, base_delay=0.05, max_delay=0.5),
        sleep=time.sleep,
    )
    return HubRemote(wire, SLUG, token=token)


def _kill_and_wait(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.communicate(timeout=30)


class TestServeChaos:
    def test_scheduled_kill_storm_loses_no_acknowledged_push(self, tmp_path):
        """The tentpole assertion: SIGKILL and in-process crash faults at
        deterministic schedule points, restart after restart, and every
        acknowledged push is present byte-for-byte at the end."""
        root = _build_working_copy(tmp_path)
        schedule = generate_serve_chaos_schedule(WorkloadConfig(seed=11), rounds=3)
        acked: list[tuple[str, str, bytes]] = []  # (tip, path, payload)
        clone = None
        counter = 0

        for event in schedule.rounds:
            process = _spawn(root, faults_env=event.env_entry())
            url, token = _read_banner(process)
            if url is None:
                # An armed serve.recover crash killed the startup replay;
                # a plain restart must converge (recovery is idempotent).
                process.communicate(timeout=30)
                process = _spawn(root)
                url, token = _read_banner(process)
                assert url is not None
            remote = _remote(url, token)
            if clone is None:
                clone = remote.clone()
            acks = 0
            while acks < event.after_acks:
                counter += 1
                path = f"chaos/file-{counter}.txt"
                payload = f"payload {counter}\n".encode()
                clone.write_file(path, payload)
                tip = clone.commit(f"chaos commit {counter}")
                try:
                    remote.push(clone)
                except (RemoteError, TransportError):
                    break  # the server died underneath us: unacknowledged
                acked.append((tip, path, payload))
                acks += 1
            _kill_and_wait(process)  # kill -9: no drain, no save

        assert acked, "the schedule produced no acknowledged pushes"

        # The survivor: everything acknowledged must have made it.
        process = _spawn(root)
        url, token = _read_banner(process)
        assert url is not None
        try:
            remote = _remote(url, token)
            survivor = remote.clone()
            last_tip = acked[-1][0]
            assert survivor.refs.branch_target("main") == last_tip
            for tip, path, payload in acked:
                assert survivor.read_file_at(tip, path) == payload
            # Zero duplicate objects: re-sending the acknowledged state is
            # a pure no-op on the server's store.
            report = remote.push(survivor)
            assert report["objects_added"] == 0 and report["updated"] == {}
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert f"stopped; {SLUG} saved" in out
        assert fsck_working_copy(root, repair=False).ok
        # The served directory's files followed the head branch.
        final = load_repository(root)
        assert final.status().is_clean
        assert dict(final.worktree) == final.snapshot("main")

    def test_sigterm_drains_saves_and_resets_the_journal(self, tmp_path):
        root = _build_working_copy(tmp_path)
        process = _spawn(root)
        url, token = _read_banner(process)
        assert url is not None
        remote = _remote(url, token)
        clone = remote.clone()
        clone.write_file("graceful.txt", "drained\n")
        tip = clone.commit("before SIGTERM")
        remote.push(clone)
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert f"stopped; {SLUG} saved" in out
        # The save checkpointed the push, so the journal was reset…
        assert replay_journal(journal_path(root)).records == []
        # …and the checkpoint itself holds the pushed bytes.
        saved = load_repository(root)
        assert saved.refs.branch_target("main") == tip
        assert saved.read_file_at("main", "graceful.txt") == b"drained\n"

    def test_clean_shutdown_moves_the_served_files_to_the_head_branch(self, tmp_path):
        """Contents commits move only the hosted refs; the shutdown
        checkpoint then writes and deletes exactly the files that changed,
        keeping (and naming) a local edit made to one of them while serving."""
        root = _build_working_copy(tmp_path)
        (root / "docs").mkdir()
        (root / "docs" / "old.md").write_text("old\n")
        repo = load_repository(root)
        repo.commit("add docs")
        save_repository(repo, root)
        process = _spawn(root)
        url, token = _read_banner(process)
        assert url is not None
        try:
            wire = HttpTransport(url, timeout=10)
            contents = f"/repos/{SLUG}/contents"
            assert wire.delete(f"{contents}/docs/old.md", {"message": "drop"}, token=token).ok
            for path in ("hub.txt", "README.md"):
                added = {"message": "put", "content": base64.b64encode(b"hub\n").decode()}
                assert wire.put(f"{contents}/{path}", added, token=token).ok
            (root / "README.md").write_text("edited while serving\n")
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert not (root / "docs").exists()
        assert (root / "hub.txt").read_bytes() == b"hub\n"
        assert "kept local changes: /README.md" in out
        saved = load_repository(root)
        assert saved.status().modified == ("/README.md",)
        assert (saved.status().deleted, saved.status().untracked) == ((), ())
        assert saved.snapshot("main") == {"/README.md": b"hub\n", "/hub.txt": b"hub\n"}

    def test_in_process_crash_fault_is_a_hard_exit(self, tmp_path):
        root = _build_working_copy(tmp_path)
        original_tip = load_repository(root).refs.branch_target("main")
        process = _spawn(root, faults_env="journal.append:crash:1")
        url, token = _read_banner(process)
        assert url is not None
        remote = _remote(url, token)
        clone = remote.clone()
        clone.write_file("lost.txt", "never acknowledged\n")
        clone.commit("dies in the journal append")
        with pytest.raises((RemoteError, TransportError)):
            remote.push(clone)
        process.communicate(timeout=30)
        assert process.returncode == 70  # the crash-exit code serve uses

        # The push crashed *before* its journal append: it was never
        # acknowledged, so losing it is the contract working, not breaking.
        process = _spawn(root)
        url, token = _read_banner(process)
        assert url is not None
        try:
            survivor = _remote(url, token).clone()
            assert survivor.refs.branch_target("main") == original_tip
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)

    def test_degraded_startup_serves_reads_rejects_writes(self, tmp_path):
        root = _build_working_copy(tmp_path)
        # A checksum-valid journal record whose payload is not a bundle:
        # recovery cannot re-apply it, so serve must come up read-only.
        with PushJournal(journal_path(root)) as journal:
            journal.append(b"valid frame, broken acknowledgement")
        process = _spawn(root)
        url, token = _read_banner(process)
        assert url is not None
        try:
            banner_tail = "".join(process.stdout.readline() for _ in range(4))
            assert "DEGRADED (read-only)" in banner_tail
            wire = HttpTransport(url, timeout=10)
            assert wire.get(f"/repos/{SLUG}/git/refs").status == 200
            clone = _remote(url, token, attempts=1).clone()  # reads still work
            assert clone.read_file_at("main", "README.md") == b"chaos target\n"
            rejected = wire.post(
                f"/repos/{SLUG}/git/receive-pack",
                {"bundle": base64.b64encode(b"whatever").decode()},
                token=token,
            )
            assert rejected.status == 503 and rejected.json["retryable"] is True
            health = wire.get("/healthz")
            assert health.status == 503 and health.json["status"] == "degraded"
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        # Degraded shutdown keeps the damaged journal — it is the evidence.
        assert len(replay_journal(journal_path(root)).records) == 1

    @pytest.mark.slow
    def test_concurrent_push_storm_survives_a_mid_storm_sigkill(self, tmp_path):
        """Eight clients hammer distinct branches; the server is SIGKILLed
        mid-storm; every acknowledgement any client ever saw must survive."""
        root = _build_working_copy(tmp_path)
        process = _spawn(root)
        url, token = _read_banner(process)
        assert url is not None
        clients = 8
        pushes_per_client = 6
        acked_lock = threading.Lock()
        acked: dict[str, list[str]] = {}  # branch -> acknowledged tips, in order

        def storm(index: int) -> None:
            branch = f"load-{index}"
            try:
                remote = _remote(url, token, attempts=2)
                clone = remote.clone()
                clone.checkout(branch, create_branch=True)
                for push in range(pushes_per_client):
                    clone.write_file(f"{branch}/f{push}.txt", f"{branch} {push}\n")
                    tip = clone.commit(f"{branch} commit {push}")
                    remote.push(clone, branch=branch)
                    with acked_lock:
                        acked.setdefault(branch, []).append(tip)
            except (RemoteError, TransportError):
                return  # the kill got us: everything after is unacknowledged

        threads = [threading.Thread(target=storm, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        time.sleep(1.0)  # let part of the storm land
        _kill_and_wait(process)  # SIGKILL mid-storm
        for thread in threads:
            thread.join(timeout=60)

        assert acked, "the storm produced no acknowledged pushes before the kill"
        process = _spawn(root)
        url, token = _read_banner(process)
        assert url is not None
        try:
            survivor = _remote(url, token).clone()
            for branch, tips in acked.items():
                last = tips[-1]
                # The branch may be *ahead* of the last ack the client saw (a
                # journalled push whose response the kill swallowed), never
                # behind it.
                target = survivor.refs.branch_target(branch)
                assert target is not None, f"acknowledged branch {branch} vanished"
                assert target == last or is_ancestor_commit(survivor.store, last, target)
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert fsck_working_copy(root, repair=False).ok
