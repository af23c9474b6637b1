"""Deterministic hot-path regression checks (``perf_smoke`` marker).

These tests pin the *mechanisms* behind the performance work — subtree-oid
reuse in ``write_tree``, the bisect-backed object-id prefix index, the
citation parse cache, the range-scan citation index, the indexed worktree's
blob-fingerprint cache (``add`` puts exactly the dirty blobs) and path index
(single writes never iterate the worktree), and the pack backend's bounded
handle pool, and the object store's commit-parent index (history walks
longer than the parsed-object cache parse each commit once) — via call
counts and object identity, never wall-clock timing, so tier-1 fails
deterministically when a hot path regresses to its old complexity.

Run just these with ``pytest -m perf_smoke``.
"""

from __future__ import annotations

import pytest

from repro.citation.function import CitationFunction
from repro.citation.manager import CitationManager
from repro.citation.record import Citation
from repro.errors import ObjectNotFoundError
from repro.utils.timeutil import now_utc
from repro.vcs import object_store as object_store_module
from repro.vcs.merge import is_ancestor_commit
from repro.vcs.object_store import DEFAULT_CACHE_SIZE, ObjectStore
from repro.vcs.objects import MODE_FILE, Blob, Commit, Signature, Tree, TreeEntry
from repro.vcs.repository import Repository
from repro.vcs.storage.pack import PackBackend
from repro.vcs.transfer import negotiate
from repro.vcs.treeops import subtree_oid
from repro.vcs.worktree_state import WorktreeState

pytestmark = pytest.mark.perf_smoke


def _citation(tag: str) -> Citation:
    return Citation(
        repo_name="perf",
        owner="alice",
        committed_date=now_utc(),
        commit_id="0000000",
        url=f"https://example.org/alice/perf#{tag}",
        authors=("alice",),
    )


class TestWriteTreeReuse:
    def test_unchanged_subtrees_reuse_their_oids(self):
        repo = Repository.init("perf", "alice")
        for i in range(5):
            repo.write_file(f"/a/f{i}.txt", f"a{i}\n")
            repo.write_file(f"/b/f{i}.txt", f"b{i}\n")
        first = repo.commit("seed")
        stats = repo.index.last_write_tree_stats
        assert stats == {"built": 3, "reused": 0}  # '/', '/a', '/b'
        b_before = subtree_oid(repo.store, repo.store.get_commit(first).tree_oid, "/b")

        repo.write_file("/a/f0.txt", "changed\n")
        second = repo.commit("edit under /a")
        stats = repo.index.last_write_tree_stats
        assert stats["reused"] == 1  # '/b' emitted from the cache
        assert stats["built"] == 2  # only '/' and '/a' re-hashed
        b_after = subtree_oid(repo.store, repo.store.get_commit(second).tree_oid, "/b")
        assert b_after == b_before

    def test_tree_puts_are_bounded_by_the_dirty_path(self):
        repo = Repository.init("perf", "alice")
        for d in range(8):
            for i in range(4):
                repo.write_file(f"/dir{d}/f{i}.txt", f"{d}.{i}\n")
        repo.commit("seed")

        puts: list[str] = []
        original_put = repo.store.put

        def counting_put(obj):
            if isinstance(obj, Tree):
                puts.append(obj.oid)
            return original_put(obj)

        repo.store.put = counting_put
        try:
            repo.write_file("/dir3/f0.txt", "changed\n")
            repo.commit("edit one file")
        finally:
            repo.store.put = original_put
        # One put for '/dir3', one for '/' — the other 7 subtrees are reused.
        assert len(puts) == 2
        assert repo.index.last_write_tree_stats["reused"] == 7

    def test_checkout_primes_the_cache(self):
        repo = Repository.init("perf", "alice")
        repo.write_file("/a/one.txt", "1\n")
        repo.write_file("/b/two.txt", "2\n")
        first = repo.commit("seed")
        repo.write_file("/a/one.txt", "1b\n")
        repo.commit("edit")
        repo.checkout(first)
        repo.write_file("/b/two.txt", "2b\n")
        repo.commit("edit after checkout")
        # read_tree primed the cache, so '/a' was reused, not rebuilt.
        assert repo.index.last_write_tree_stats["reused"] >= 1


class TestResolvePrefixIndex:
    def test_resolution_probes_are_bounded(self):
        store = ObjectStore()
        oids = [store.put(Blob(f"payload {i}\n".encode())) for i in range(512)]
        target = oids[123]
        assert store.resolve_prefix(target[:10]) == target
        # A bisect probe touches the match plus its sorted neighbour — not
        # the whole store.
        assert store.last_resolve_scan_steps <= 2

        with pytest.raises(ObjectNotFoundError):
            store.resolve_prefix("f" * 12 if not target.startswith("f" * 12) else "0" * 12)
        assert store.last_resolve_scan_steps <= 2

    def test_index_tracks_later_writes(self):
        store = ObjectStore()
        store.put(Blob(b"first"))
        first = store.put(Blob(b"first"))
        assert store.resolve_prefix(first[:10]) == first
        second = store.put(Blob(b"second"))
        assert store.resolve_prefix(second[:10]) == second
        assert store.last_resolve_scan_steps <= 2


class TestCitationParseCache:
    def test_repeated_cite_at_ref_parses_once(self, monkeypatch):
        repo = Repository.init("perf", "alice")
        repo.write_file("/src/a.py", "pass\n")
        repo.commit("seed")
        manager = CitationManager(repo)
        manager.init_citations()
        ref = manager.commit("enable citations")

        calls = {"n": 0}
        import repro.citation.manager as manager_module

        original = manager_module.load_citation_bytes

        def counting_load(data):
            calls["n"] += 1
            return original(data)

        monkeypatch.setattr(manager_module, "load_citation_bytes", counting_load)
        for _ in range(25):
            manager.cite("/src/a.py", ref)
        assert calls["n"] == 1


class TestWorktreeFingerprintCache:
    """``add``/``status`` hash only dirty blobs — commits are O(changed)."""

    @staticmethod
    def _counting_put(repo, calls):
        original = repo.store.put

        def wrapper(obj):
            calls.append(obj)
            return original(obj)

        return wrapper

    def test_add_after_touching_one_file_puts_exactly_one_blob(self):
        repo = Repository.init("perf", "alice")
        for i in range(60):
            repo.write_file(f"/src/pkg{i % 6}/f{i}.txt", f"content {i}\n")
        repo.commit("seed")

        repo.write_file("/src/pkg3/f3.txt", "changed\n")
        calls: list = []
        repo.store.put = self._counting_put(repo, calls)
        try:
            staged = repo.add()
        finally:
            del repo.store.put
        assert len(staged) == 60  # the index still mirrors the whole tree
        assert len(calls) == 1  # ...but only the dirty blob was hashed+stored
        assert isinstance(calls[0], Blob)

    def test_add_on_clean_worktree_puts_nothing(self):
        repo = Repository.init("perf", "alice")
        for i in range(20):
            repo.write_file(f"/d{i % 4}/f{i}.txt", f"{i}\n")
        repo.commit("seed")
        calls: list = []
        repo.store.put = self._counting_put(repo, calls)
        try:
            repo.add()
        finally:
            del repo.store.put
        assert calls == []

    def test_status_on_clean_tree_hashes_nothing(self):
        repo = Repository.init("perf", "alice")
        for i in range(25):
            repo.write_file(f"/a/b{i % 5}/f{i}.txt", f"{i}\n")
        repo.commit("seed")
        before = repo.worktree.hash_count
        for _ in range(3):
            assert repo.status().is_clean
        assert repo.worktree.hash_count == before

        # A checkout primes every fingerprint from the tree itself.
        repo.write_file("/a/b0/f0.txt", "edited\n")
        second = repo.commit("edit")
        repo.checkout(second)
        assert repo.status().is_clean
        assert repo.worktree.hash_count == 0

    def test_touch_one_commit_stores_only_the_dirty_chain(self):
        repo = Repository.init("perf", "alice")
        for d in range(6):
            for i in range(4):
                repo.write_file(f"/dir{d}/f{i}.txt", f"{d}.{i}\n")
        repo.commit("seed")
        repo.write_file("/dir2/f1.txt", "changed\n")
        calls: list = []
        repo.store.put = self._counting_put(repo, calls)
        try:
            repo.commit("touch one")
        finally:
            del repo.store.put
        blobs = [obj for obj in calls if isinstance(obj, Blob)]
        trees = [obj for obj in calls if isinstance(obj, Tree)]
        assert len(blobs) == 1  # the edited file
        assert len(trees) == 2  # '/dir2' and '/'


class TestIndexedWorktreeWrites:
    """Single-file writes probe the sorted index, never the whole worktree."""

    def test_write_file_never_iterates_the_worktree(self, monkeypatch):
        repo = Repository.init("perf", "alice")
        for i in range(200):
            repo.write_file(f"/src/m{i % 10}/f{i}.txt", b"x")

        def exploding_iter(self):
            raise AssertionError("write_file iterated the whole worktree")

        monkeypatch.setattr(WorktreeState, "__iter__", exploding_iter)
        assert repo.write_file("/src/m3/brand_new.txt", b"y") == "/src/m3/brand_new.txt"

    def test_write_probes_are_bounded_by_depth_not_size(self):
        small = Repository.init("perf", "alice")
        for i in range(8):
            small.write_file(f"/src/m{i}/f{i}.txt", b"x")
        small.write_file("/src/m0/extra.txt", b"y")
        small_probes = small.worktree.last_check_probes

        large = Repository.init("perf", "alice")
        for i in range(400):
            large.write_file(f"/src/m{i % 10}/f{i}.txt", b"x")
        large.write_file("/src/m0/extra.txt", b"y")
        assert large.worktree.last_check_probes == small_probes  # depth-bound
        assert large.worktree.last_check_probes <= 4  # 2 ancestors + root + bisect

    def test_directory_queries_do_not_scan(self, monkeypatch):
        repo = Repository.init("perf", "alice")
        for i in range(100):
            repo.write_file(f"/lib/sub{i % 5}/f{i}.txt", b"x")

        def exploding_iter(self):
            raise AssertionError("directory query iterated the whole worktree")

        monkeypatch.setattr(WorktreeState, "__iter__", exploding_iter)
        assert repo.directory_exists("/lib/sub3")
        assert not repo.directory_exists("/lib/nope")
        assert repo.list_files("/lib/sub3") == sorted(
            f"/lib/sub3/f{i}.txt" for i in range(3, 100, 5)
        )


class TestLazyCheckout:
    """Checkout installs oid-backed entries: blobs are read on first access
    only, so clean checkout + status touch zero blobs no matter the tree size."""

    @staticmethod
    def _count_blob_reads(repo, counter):
        original_get_blob = repo.store.get_blob
        original_get_blobs = repo.store.get_blobs

        def counting_get_blob(oid):
            counter["n"] += 1
            return original_get_blob(oid)

        def counting_get_blobs(oids):
            blobs = original_get_blobs(oids)
            counter["n"] += len(blobs)
            return blobs

        repo.store.get_blob = counting_get_blob
        repo.store.get_blobs = counting_get_blobs

    def test_clean_checkout_and_status_of_5k_tree_read_zero_blobs(self):
        repo = Repository.init("lazy", "alice")
        repo.write_files(
            {f"/src/pkg{i % 40}/module_{i}.py": f"# module {i}\n" for i in range(5000)}
        )
        main = repo.commit("seed")
        repo.write_file("/src/pkg0/module_0.py", "# touched\n")
        feature = repo.commit("edit")

        from repro.vcs.remote import clone_repository

        cold = clone_repository(repo)  # fully lazy view, nothing materialised
        reads = {"n": 0}
        self._count_blob_reads(cold, reads)
        cold.checkout(main)
        cold.checkout(feature)
        for _ in range(3):
            assert cold.status().is_clean
        assert reads["n"] == 0
        assert cold.worktree.materialize_count == 0
        assert cold.worktree.lazy_count() == 5000

    def test_first_access_materializes_exactly_one_blob(self):
        repo = Repository.init("lazy", "alice")
        for i in range(40):
            repo.write_file(f"/d{i % 4}/f{i}.txt", f"{i}\n")
        tip = repo.commit("seed")
        from repro.vcs.remote import clone_repository

        cold = clone_repository(repo)
        reads = {"n": 0}
        self._count_blob_reads(cold, reads)
        assert cold.read_file("/d1/f1.txt") == b"1\n"
        assert reads["n"] == 1
        assert cold.worktree.materialize_count == 1
        # Commit after the lazy checkout reuses the primed fingerprints:
        # nothing to commit, nothing hashed, nothing read.
        from repro.errors import VCSError

        with pytest.raises(VCSError):
            cold.commit("noop")
        assert reads["n"] == 1
        assert cold.checkout(tip) == tip

    def test_full_materialisation_uses_one_batched_read(self, monkeypatch):
        import repro.vcs.storage.base as base_module

        repo = Repository.init("lazy", "alice")
        for i in range(30):
            repo.write_file(f"/src/f{i}.txt", f"payload {i}\n")
        repo.commit("seed")
        from repro.vcs.remote import clone_repository

        cold = clone_repository(repo)
        assert cold.worktree.lazy_count() == 30

        calls = {"read_many": 0}
        original_read_many = base_module.ObjectBackend.read_many

        def counting_read_many(self, oids):
            calls["read_many"] += 1
            return original_read_many(self, oids)

        monkeypatch.setattr(base_module.ObjectBackend, "read_many", counting_read_many)
        materialized = cold.worktree.materialize_all()
        assert materialized == 30
        assert calls["read_many"] == 1  # one batch, not 30 single faults
        assert dict(cold.worktree) == repo.snapshot()

    def test_adopted_worktree_staging_batches_its_faults(self, monkeypatch):
        """After cross-repo adoption every blob must be read to re-store;
        those reads go through one batched read_many, not per-path faults."""
        import repro.vcs.storage.base as base_module
        from repro.vcs.remote import clone_repository

        donor = Repository.init("donor", "alice")
        for i in range(40):
            donor.write_file(f"/src/f{i}.txt", f"payload {i}\n")
        donor.commit("seed")
        cold = clone_repository(donor)  # fully lazy view
        adopter = Repository.init("adopter", "bob")
        adopter.worktree = cold.worktree

        calls = {"read_many": 0}
        original_read_many = base_module.ObjectBackend.read_many

        def counting_read_many(self, oids):
            calls["read_many"] += 1
            return original_read_many(self, oids)

        monkeypatch.setattr(base_module.ObjectBackend, "read_many", counting_read_many)
        singles = {"n": 0}
        original_get_blob = cold.store.get_blob

        def counting_get_blob(oid):
            singles["n"] += 1
            return original_get_blob(oid)

        cold.store.get_blob = counting_get_blob
        adopter.add()
        assert calls["read_many"] == 1  # one batch served all 40 faults
        assert singles["n"] == 0  # no per-path get_blob fallbacks
        assert adopter.commit("adopted")

    def test_lazy_entries_survive_pack_backend_and_export(self, tmp_path):
        from repro.cli.storage import load_repository, save_repository
        from repro.vcs.remote import clone_repository

        repo = Repository.init("lazy", "alice")
        for i in range(25):
            repo.write_file(f"/lib/f{i}.txt", f"content {i}\n")
        repo.commit("seed")
        save_repository(clone_repository(repo), tmp_path / "wc", storage="pack")
        reopened = load_repository(tmp_path / "wc")
        assert dict(reopened.worktree) == repo.snapshot()


class TestPackHandlePoolAndMidx:
    def test_open_handles_stay_bounded(self, tmp_path):
        backend = PackBackend(tmp_path / "packs", handle_limit=3)
        oids = []
        for batch in range(6):  # 6 packs
            for i in range(5):
                payload = f"pack {batch} object {i}\n".encode()
                from repro.utils.hashing import object_id

                oid = object_id("blob", payload)
                backend.write(oid, "blob", payload)
                oids.append(oid)
            backend.flush()
        assert backend.stats()["packs"] == 6
        for oid in oids:  # touch every pack
            backend.read(oid)
        assert backend.open_file_handles() <= 3
        backend.close()
        assert backend.open_file_handles() == 0

    def test_cold_open_with_midx_reads_no_per_pack_index(self, tmp_path, monkeypatch):
        from repro.utils.hashing import object_id
        from repro.vcs.storage import pack as pack_module

        backend = PackBackend(tmp_path / "packs")
        oids = []
        for batch in range(4):
            for i in range(4):
                payload = f"batch {batch} object {i} {'p' * 64}\n".encode()
                oid = object_id("blob", payload)
                backend.write(oid, "blob", payload)
                oids.append(oid)
            backend.flush()
        backend.close()

        loads = {"n": 0}
        original = pack_module._PackFile._load_index

        def counting_load(self):
            loads["n"] += 1
            return original(self)

        monkeypatch.setattr(pack_module._PackFile, "_load_index", counting_load)
        reopened = PackBackend(tmp_path / "packs")
        assert reopened.stats()["packs"] == 4
        for oid in oids:
            assert reopened.read(oid)[1]
        assert loads["n"] == 0  # the midx answered everything
        reopened.close()


class TestCitationFunctionRangeIndex:
    def test_entries_under_uses_string_safe_ranges(self):
        function = CitationFunction.with_root(_citation("root"))
        function.put("/a", _citation("a"), is_directory=True)
        function.put("/ab", _citation("ab"), is_directory=False)  # sorts next to '/a'
        function.put("/a/x.txt", _citation("ax"), is_directory=False)
        function.put("/a/y/z.txt", _citation("ayz"), is_directory=False)
        under = [entry.path for entry in function.entries_under("/a")]
        assert under == ["/a", "/a/x.txt", "/a/y/z.txt"]
        under_root = [entry.path for entry in function.entries_under("/", include_prefix=False)]
        assert under_root == ["/a", "/a/x.txt", "/a/y/z.txt", "/ab"]

    def test_rename_prefix_moves_exactly_the_subtree(self):
        function = CitationFunction.with_root(_citation("root"))
        function.put("/a", _citation("a"), is_directory=True)
        function.put("/ab", _citation("ab"), is_directory=False)
        function.put("/a/x.txt", _citation("ax"), is_directory=False)
        moves = function.rename_prefix("/a", "/z")
        assert moves == {"/a": "/z", "/a/x.txt": "/z/x.txt"}
        assert function.active_domain() == ["/", "/ab", "/z", "/z/x.txt"]


class TestCommitParentIndex:
    """Ancestry walks longer than the LRU parse each commit once per store."""

    @staticmethod
    def _deep_history(length: int) -> tuple[ObjectStore, list[str]]:
        """A linear history of ``length`` commits, stored raw (nothing parsed yet)."""
        blob = Blob(b"payload\n")
        tree = Tree(entries=(TreeEntry(name="file.txt", mode=MODE_FILE, oid=blob.oid),))
        signature = Signature(name="alice", email="alice@example.org", timestamp=now_utc())
        records = [(blob.oid, "blob", blob.serialize()), (tree.oid, "tree", tree.serialize())]
        chain: list[str] = []
        for number in range(length):
            commit = Commit(
                tree_oid=tree.oid,
                parent_oids=tuple(chain[-1:]),
                author=signature,
                committer=signature,
                message=f"commit {number}",
            )
            records.append((commit.oid, "commit", commit.serialize()))
            chain.append(commit.oid)
        store = ObjectStore()
        store.put_raw_many(records)
        return store, chain

    @staticmethod
    def _count_commit_parses(monkeypatch) -> dict[bytes, int]:
        parses: dict[bytes, int] = {}
        original = object_store_module.deserialize_object

        def counting(object_type, payload):
            if object_type == "commit":
                parses[payload] = parses.get(payload, 0) + 1
            return original(object_type, payload)

        monkeypatch.setattr(object_store_module, "deserialize_object", counting)
        return parses

    def test_walks_past_the_cache_parse_each_commit_once(self, monkeypatch):
        length = DEFAULT_CACHE_SIZE + 200
        store, chain = self._deep_history(length)
        parses = self._count_commit_parses(monkeypatch)
        unrelated = "0" * 40
        for _ in range(2):
            plan = negotiate(store, [chain[-1]], haves=[chain[length // 2]])
            assert len(plan.new_commits) == length - length // 2 - 1
            assert plan.boundary == (chain[length // 2],)
            # Not an ancestor: the check has to walk the whole history.
            assert not is_ancestor_commit(store, unrelated, chain[-1])
            assert is_ancestor_commit(store, chain[0], chain[-1])
        assert len(parses) == length
        assert max(parses.values()) == 1
