"""Concurrency stress tests: the zero-lost-acknowledged-update guarantee.

The invariant under test everywhere in this file: once the hub acknowledges
a state change (a 2xx push, a ``True`` compare-and-swap, a counted quota
slot), no concurrent request may silently undo it.  Racing writers lose
*loudly* — a ``False`` CAS, a 422 non-fast-forward — and retry against the
new tips, exactly like sequential writers would.

These tests are deliberately thread-heavy but short; the CI workflow runs
them as their own step alongside the ``concurrent_push_pull`` benchmark.
"""

import threading

import pytest

from repro.errors import RemoteError, ValidationError
from repro.hub.api import RestApi
from repro.utils.hashing import object_id
from repro.hub.ratelimit import RateLimiter
from repro.hub.retry import RetryingApi, RetryPolicy
from repro.hub.server import HostingPlatform
from repro.hub.sync import HubRemote
from repro.vcs.merge import is_ancestor_commit
from repro.vcs.refs import RefStore
from repro.vcs.repository import Repository
from repro.vcs.storage.memory import MemoryBackend
from repro.vcs.storage.pack import PackBackend


def run_threads(workers) -> list:
    """Start every worker, join them all, and re-raise the first exception."""
    errors: list[BaseException] = []

    def guarded(worker):
        def run():
            try:
                worker()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guarded(worker)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return errors


class TestRefStoreCAS:
    def test_exactly_one_cas_winner(self):
        refs = RefStore()
        refs.set_branch("main", "a" * 40)
        outcomes = []
        lock = threading.Lock()

        def racer(index: int):
            won = refs.compare_and_swap_branch("main", "a" * 40, f"{index:040x}")
            with lock:
                outcomes.append(won)

        run_threads([lambda i=i: racer(i) for i in range(16)])
        assert outcomes.count(True) == 1
        assert refs.version == 2  # the seed set_branch + the single winner

    def test_cas_expected_none_means_must_not_exist(self):
        refs = RefStore()
        wins = []
        lock = threading.Lock()

        def creator(index: int):
            if refs.compare_and_swap_branch("feature", None, f"{index:040x}"):
                with lock:
                    wins.append(index)

        run_threads([lambda i=i: creator(i) for i in range(16)])
        assert len(wins) == 1
        assert refs.branch_target("feature") == f"{wins[0]:040x}"

    def test_version_counts_every_mutation(self):
        refs = RefStore()
        per_thread = 50

        def writer(index: int):
            for k in range(per_thread):
                refs.set_branch(f"branch-{index}", f"{index * per_thread + k:040x}")

        run_threads([lambda i=i: writer(i) for i in range(8)])
        assert refs.version == 8 * per_thread


class TestRateLimiterCounting:
    def test_no_double_spent_slots_under_contention(self):
        limiter = RateLimiter(authenticated_limit=10_000)
        per_thread = 200

        def consumer():
            for _ in range(per_thread):
                limiter.check("alice")

        run_threads([consumer] * 8)
        assert limiter.status("alice").used == 8 * per_thread

    def test_hard_limit_admits_exactly_limit_requests(self):
        limit = 64
        limiter = RateLimiter(authenticated_limit=limit)
        admitted = []
        lock = threading.Lock()

        def consumer():
            for _ in range(32):
                try:
                    limiter.check("alice")
                except Exception:
                    continue
                with lock:
                    admitted.append(1)

        run_threads([consumer] * 8)
        assert len(admitted) == limit


class TestBackendConcurrency:
    @pytest.mark.parametrize("make", [MemoryBackend, None], ids=["memory", "pack"])
    def test_parallel_writers_lose_nothing(self, make, tmp_path):
        backend = make() if make else PackBackend(tmp_path / "packs")
        per_thread = 100

        def writer(index: int):
            for k in range(per_thread):
                payload = f"payload {index}/{k}".encode()
                backend.write(object_id("blob", payload), "blob", payload)

        run_threads([lambda i=i: writer(i) for i in range(8)])
        backend.flush()
        assert len(backend) == 8 * per_thread
        probe = b"payload 3/7"
        assert backend.read(object_id("blob", probe)) == ("blob", probe)

    def test_readers_survive_concurrent_flush_and_repack(self, tmp_path):
        backend = PackBackend(tmp_path / "packs")
        seeded: dict[str, bytes] = {}
        for k in range(50):
            payload = f"seed {k}".encode()
            oid = object_id("blob", payload)
            backend.write(oid, "blob", payload)
            seeded[oid] = payload
        backend.flush()
        stop = threading.Event()

        def churn():
            batch = 0
            while not stop.is_set():
                for k in range(10):
                    filler = f"filler {batch}/{k}".encode() + b"x" * 64
                    backend.write(object_id("blob", filler), "blob", filler)
                backend.flush()
                backend.repack()
                batch += 1

        def reader():
            for _ in range(300):
                for oid, expected in seeded.items():
                    type_name, payload = backend.read(oid)
                    assert type_name == "blob"
                    assert payload == expected

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            run_threads([reader] * 4)
        finally:
            stop.set()
            churner.join()
        for oid in seeded:
            assert oid in backend

    def test_object_store_cache_is_safe_under_parallel_reads(self, simple_repo):
        store = simple_repo.store
        oids = list(store.iter_oids())

        def reader():
            for _ in range(50):
                for oid in oids:
                    assert store.get(oid) is not None

        run_threads([reader] * 8)

    def test_commit_parent_index_under_parallel_walks_and_gc(self):
        """Walkers read the parent index and generations while gc keeps clearing them."""
        import sys

        from repro.utils.timeutil import now_utc
        from repro.vcs.object_store import ObjectStore
        from repro.vcs.objects import Commit, Signature, Tree

        tree = Tree()
        signature = Signature(name="alice", email="alice@example.org", timestamp=now_utc())
        records = [(tree.oid, "tree", tree.serialize())]
        expected: dict[str, tuple[str, ...]] = {}
        parents: tuple[str, ...] = ()
        for number in range(200):
            commit = Commit(tree.oid, parents, signature, signature, f"c{number}")
            records.append((commit.oid, "commit", commit.serialize()))
            expected[commit.oid] = parents
            parents = (commit.oid,)
        tip = commit.oid
        store = ObjectStore(cache_size=16)  # walks miss the LRU and hit the index
        store.put_raw_many(records)
        keep = {oid for oid, _, _ in records}
        stop = threading.Event()
        errors: list[BaseException] = []

        def walker():
            try:
                for _ in range(20):
                    for oid, wanted in expected.items():
                        assert store.commit_parents(oid) == wanted
                        assert store.commit_tree(oid) == tree.oid
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def generation_walker(number: int):
            # Each round clears the memo, so the tip's generation walks the
            # whole chain while the other threads keep clearing it too.
            try:
                for round_number in range(100):
                    filler = f"walker {number} garbage {round_number}".encode()
                    store.backend.write(object_id("blob", filler), "blob", filler)
                    store.gc(keep)
                    assert store.commit_generation(tip) == len(expected)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def collector():
            round_number = 0
            while not stop.is_set():
                filler = f"garbage {round_number}".encode()
                store.backend.write(object_id("blob", filler), "blob", filler)
                store.gc(keep)  # drops the filler, so the index is cleared
                round_number += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            gc_thread = threading.Thread(target=collector)
            walkers = [threading.Thread(target=walker) for _ in range(6)]
            walkers += [threading.Thread(target=generation_walker, args=(number,))
                        for number in range(3)]
            gc_thread.start()
            for thread in walkers:
                thread.start()
            for thread in walkers:
                thread.join(timeout=120)
            stop.set()
            gc_thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [gc_thread, *walkers])
        if errors:
            raise errors[0]


class TestConcurrentPushes:
    """N writers race fast-forward pushes; no acknowledged update is lost."""

    @pytest.fixture
    def hub(self):
        repo = Repository.init("contended", "alice")
        repo.write_file("README.md", "contended repo\n")
        repo.commit("initial", author_name="alice")
        platform = HostingPlatform(rate_limiter=RateLimiter(enabled=False))
        platform.host_repository(repo)
        token = platform.issue_token("alice").value
        return platform, token

    def _remote(self, platform, token) -> HubRemote:
        api = RetryingApi(
            RestApi(platform),
            RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        )
        return HubRemote(api, "alice/contended", token=token)

    def test_no_acknowledged_update_is_lost(self, hub):
        platform, token = hub
        writers, rounds = 8, 3
        acknowledged: list[str] = []
        lock = threading.Lock()

        def pusher(index: int):
            remote = self._remote(platform, token)
            local = remote.clone()
            for round_number in range(rounds):
                for _attempt in range(64):
                    try:
                        # Re-sync onto the current remote tip, commit a
                        # writer-unique change, push.  A losing racer gets a
                        # 422 non-fast-forward (surfacing here as
                        # ValidationError/RemoteError) and goes around again.
                        tip = remote.fetch_branch(local, "main")
                        local.refs.set_branch("main", tip)
                        local.checkout("main")
                        local.write_file(
                            f"writer-{index}.txt", f"round {round_number}\n"
                        )
                        oid = local.commit(
                            f"writer {index} round {round_number}",
                            author_name=f"writer-{index}",
                        )
                        remote.push(local, "main")
                    except (ValidationError, RemoteError):
                        continue
                    with lock:
                        acknowledged.append(oid)
                    break
                else:
                    raise AssertionError(f"writer {index} starved")

        run_threads([lambda i=i: pusher(i) for i in range(writers)])

        assert len(acknowledged) == writers * rounds
        hosted = platform.repositories["alice/contended"].repo
        final_tip = hosted.refs.branch_target("main")
        # The invariant: every acknowledged commit is reachable from the
        # final tip — an acknowledged push was never silently overwritten.
        for oid in acknowledged:
            assert is_ancestor_commit(hosted.store, oid, final_tip), (
                f"acknowledged commit {oid} lost from history"
            )
        # And the worktree reflects the committed tips: every writer's file
        # exists at its last acknowledged content.
        for index in range(writers):
            content = hosted.read_file_at("main", f"writer-{index}.txt")
            assert content == f"round {rounds - 1}\n".encode()
