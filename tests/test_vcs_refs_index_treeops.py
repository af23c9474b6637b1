"""Unit tests for references, the staging index and tree operations."""

import pytest

from repro.errors import IndexError_, RefError, VCSError
from repro.vcs.index import StagingIndex
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import Blob, MODE_DIRECTORY
from repro.vcs.refs import RefStore
from repro.vcs.treeops import (
    build_tree,
    flatten_files,
    flatten_tree,
    list_directories,
    lookup_path,
    subtree_oid,
    tree_contains,
)


class TestRefStore:
    def test_initial_state(self):
        refs = RefStore()
        assert refs.head_branch == "main"
        assert refs.head_commit() is None
        assert not refs.is_detached

    def test_set_and_resolve_branch(self):
        refs = RefStore()
        refs.set_branch("main", "a" * 40)
        assert refs.resolve("main") == "a" * 40
        assert refs.resolve("HEAD") == "a" * 40

    def test_illegal_names_rejected(self):
        refs = RefStore()
        for bad in ("", "-x", "a..b", "has space", "trailing/"):
            with pytest.raises(RefError):
                refs.set_branch(bad, "a" * 40)

    def test_delete_checked_out_branch_rejected(self):
        refs = RefStore()
        refs.set_branch("main", "a" * 40)
        with pytest.raises(RefError):
            refs.delete_branch("main")

    def test_delete_and_rename(self):
        refs = RefStore()
        refs.set_branch("main", "a" * 40)
        refs.set_branch("feature", "b" * 40)
        refs.delete_branch("feature")
        assert not refs.has_branch("feature")
        refs.rename_branch("main", "trunk")
        assert refs.head_branch == "trunk"
        assert refs.default_branch == "trunk"

    def test_tags(self):
        refs = RefStore()
        refs.set_tag("v1", "c" * 40)
        assert refs.tag_target("v1") == "c" * 40
        assert refs.resolve("v1") == "c" * 40
        with pytest.raises(RefError):
            refs.set_tag("v1", "d" * 40)
        refs.delete_tag("v1")
        with pytest.raises(RefError):
            refs.tag_target("v1")

    def test_detach_and_advance(self):
        refs = RefStore()
        refs.set_branch("main", "a" * 40)
        refs.detach_head("b" * 40)
        assert refs.is_detached
        assert refs.head_commit() == "b" * 40
        refs.advance_head("c" * 40)
        assert refs.head_commit() == "c" * 40
        assert refs.branch_target("main") == "a" * 40  # detached HEAD does not move branches

    def test_unknown_reference(self):
        with pytest.raises(RefError):
            RefStore().resolve("nope")

    def test_clone_is_independent(self):
        refs = RefStore()
        refs.set_branch("main", "a" * 40)
        duplicate = refs.clone()
        duplicate.set_branch("main", "b" * 40)
        assert refs.branch_target("main") == "a" * 40


class TestStagingIndex:
    def test_stage_and_write_tree(self):
        store = ObjectStore()
        index = StagingIndex()
        blob = store.put(Blob(b"content"))
        index.stage("/src/a.py", blob)
        tree_oid = index.write_tree(store)
        assert lookup_path(store, tree_oid, "/src/a.py") == (blob, "100644")

    def test_cannot_stage_root(self):
        with pytest.raises(IndexError_):
            StagingIndex().stage("/", "0" * 40)

    def test_cannot_stage_directory_mode(self):
        with pytest.raises(IndexError_):
            StagingIndex().stage("/d", "0" * 40, mode=MODE_DIRECTORY)

    def test_file_directory_conflict_detected(self):
        index = StagingIndex()
        index.stage("/a", "0" * 40)
        with pytest.raises(IndexError_):
            index.stage("/a/b", "1" * 40)

    def test_unstage_and_discard(self):
        index = StagingIndex()
        index.stage("/a.py", "0" * 40)
        index.unstage("/a.py")
        assert index.is_empty
        with pytest.raises(IndexError_):
            index.unstage("/a.py")
        index.discard("/a.py")  # no error

    def test_read_tree_round_trip(self):
        store = ObjectStore()
        index = StagingIndex()
        index.stage("/x/y.txt", store.put(Blob(b"y")))
        index.stage("/z.txt", store.put(Blob(b"z")))
        tree_oid = index.write_tree(store)
        fresh = StagingIndex()
        fresh.read_tree(store, tree_oid)
        assert fresh.entries() == index.entries()

    @pytest.mark.parametrize(
        "entries",
        [
            {"/a": ("0" * 40, "100644"), "/a/b": ("1" * 40, "100644")},
            {"/a/b": ("1" * 40, "100644"), "/a": ("0" * 40, "100644")},
        ],
        ids=["ancestor-first", "descendant-first"],
    )
    def test_write_tree_rejects_conflicts_smuggled_via_replace(self, entries):
        # replace() skips stage()'s conflict checks; the tree builder must
        # still refuse to materialise a path that is both file and directory.
        store = ObjectStore()
        index = StagingIndex()
        index.replace(entries)
        with pytest.raises(VCSError):
            index.write_tree(store)

    def test_write_tree_rejects_conflict_against_warm_clean_subtree(self):
        # Warm-cache variant: '/a' is a clean cached directory from the
        # previous sync; a new file '/a' smuggled in via replace() must not
        # let the subtree prune silently drop either entry.
        store = ObjectStore()
        index = StagingIndex()
        blob = store.put(Blob(b"content"))
        index.stage("/a/b", blob)
        index.stage("/other/c", blob)
        index.write_tree(store)
        index.replace({"/a": (blob, "100644"), "/a/b": (blob, "100644")})
        with pytest.raises(VCSError):
            index.write_tree(store)

    def test_write_tree_cache_is_per_store(self):
        index = StagingIndex()
        store_a = ObjectStore()
        index.stage("/a.txt", store_a.put(Blob(b"a")))
        tree = index.write_tree(store_a)
        store_b = ObjectStore()
        store_b.put(Blob(b"a"))
        # Same logical content, different store: the rebuilt tree must
        # actually exist in store_b rather than being served from the cache.
        assert index.write_tree(store_b) == tree
        assert tree in store_b


class TestTreeOps:
    @pytest.fixture
    def populated(self):
        store = ObjectStore()
        files = {
            "/a.txt": (store.put(Blob(b"a")), "100644"),
            "/src/b.py": (store.put(Blob(b"b")), "100644"),
            "/src/pkg/c.py": (store.put(Blob(b"c")), "100644"),
        }
        return store, build_tree(store, files)

    def test_flatten_round_trip(self, populated):
        store, tree_oid = populated
        files = flatten_files(store, tree_oid)
        assert set(files) == {"/a.txt", "/src/b.py", "/src/pkg/c.py"}
        rebuilt = build_tree(store, files)
        assert rebuilt == tree_oid
        # Loose path forms ("a/b") build the same tree as canonical ones.
        assert build_tree(store, {path.lstrip("/"): value for path, value in files.items()}) == tree_oid

    def test_flatten_tree_includes_directories(self, populated):
        store, tree_oid = populated
        everything = flatten_tree(store, tree_oid)
        assert everything["/src"][1] == MODE_DIRECTORY
        assert "/src/pkg" in everything
        assert "/" in everything

    def test_list_directories(self, populated):
        store, tree_oid = populated
        assert list_directories(store, tree_oid) == ["/", "/src", "/src/pkg"]

    def test_lookup_path(self, populated):
        store, tree_oid = populated
        assert lookup_path(store, tree_oid, "/src/pkg/c.py") is not None
        assert lookup_path(store, tree_oid, "/src")[1] == MODE_DIRECTORY
        assert lookup_path(store, tree_oid, "/missing") is None
        assert lookup_path(store, tree_oid, "/a.txt/below") is None

    def test_tree_contains_and_subtree(self, populated):
        store, tree_oid = populated
        assert tree_contains(store, tree_oid, "/src/pkg")
        sub = subtree_oid(store, tree_oid, "/src")
        assert set(flatten_files(store, sub, base="/src")) == {"/src/b.py", "/src/pkg/c.py"}
        with pytest.raises(VCSError):
            subtree_oid(store, tree_oid, "/a.txt")
        with pytest.raises(VCSError):
            subtree_oid(store, tree_oid, "/nope")

    def test_build_tree_rejects_root_file_and_conflicts(self):
        store = ObjectStore()
        with pytest.raises(VCSError):
            build_tree(store, {"/": (store.put(Blob(b"x")), "100644")})
        oid = store.put(Blob(b"x"))
        conflicts = [
            ["/a", "/a/b"],
            ["/a/b", "/a"],
            # Not adjacent once sorted ("." < "/"), so an adjacent-pair check misses it.
            ["/a", "/a.txt", "/a/b"],
        ]
        for paths in conflicts:
            with pytest.raises(VCSError):
                build_tree(store, {path: (oid, "100644") for path in paths})
        with pytest.raises(VCSError):
            build_tree(store, {"/a": (build_tree(store, {}), MODE_DIRECTORY)})

    def test_empty_tree(self):
        store = ObjectStore()
        tree_oid = build_tree(store, {})
        assert flatten_files(store, tree_oid) == {}
