"""Unit tests for clone/fork/push/pull, ignore rules and on-disk worktrees."""

import pytest

from repro.errors import RemoteError, ValidationError, VCSError
from repro.vcs.ignore import IgnoreRules
from repro.vcs.remote import clone_repository, fork_repository, reachable_objects
from repro.vcs.repository import Repository
from repro.vcs.workingcopy import load_repository, save_repository
from repro.vcs.worktree import checkout_files, import_worktree


@pytest.fixture
def origin() -> Repository:
    repo = Repository.init("upstream", "alice", description="origin project")
    repo.write_file("src/lib.py", "lib = 1\n")
    repo.write_file("README.md", "# upstream\n")
    repo.commit("initial")
    return repo


class TestCloneAndFork:
    def test_clone_preserves_history_and_content(self, origin):
        clone = clone_repository(origin)
        assert clone.head_oid() == origin.head_oid()
        assert clone.snapshot() == origin.snapshot()
        assert clone.full_name == origin.full_name

    def test_clone_is_independent(self, origin):
        clone = clone_repository(origin)
        clone.write_file("new.txt", "n")
        clone.commit("clone-only work")
        assert origin.head_oid() != clone.head_oid()
        assert not origin.file_exists("new.txt")

    def test_fork_changes_owner_keeps_history(self, origin):
        fork = fork_repository(origin, new_owner="bob", new_name="downstream")
        assert fork.owner == "bob" and fork.name == "downstream"
        assert fork.head_oid() == origin.head_oid()
        assert fork.snapshot() == origin.snapshot()

    def test_fork_requires_owner(self, origin):
        with pytest.raises(RemoteError):
            fork_repository(origin, new_owner="")

    def test_reachable_objects_cover_commit_trees_blobs(self, origin):
        objects = reachable_objects(origin.store, origin.head_oid())
        assert origin.head_oid() in objects
        assert len(objects) >= 4  # commit + root tree + subtree + 2 blobs


class TestPushPull:
    """The push/pull contract in process; ``TestPushPullOverRest`` reruns it over REST."""

    #: What a rejected non-fast-forward push raises on this transport.
    rejected = RemoteError

    def test_push_fast_forward(self, origin, remote_for):
        remote = remote_for(origin)
        local = remote.clone()
        local.write_file("feature.py", "x = 1\n")
        tip = local.commit("feature")
        assert remote.push(local)["updated"] == {"main": tip}
        assert origin.head_oid() == tip
        assert origin.read_file_at("main", "feature.py") == b"x = 1\n"
        assert not origin.file_exists("feature.py")  # a push moves refs only

    def test_push_rejects_non_fast_forward(self, origin, remote_for):
        remote = remote_for(origin)
        local = remote.clone()
        local.write_file("a.txt", "a")
        local.commit("local work")
        origin.write_file("b.txt", "b")
        remote_tip = origin.commit("remote work")
        with pytest.raises(self.rejected):
            remote.push(local)
        assert origin.head_oid() == remote_tip
        remote.push(local, force=True)
        assert origin.head_oid() == local.head_oid()

    def test_push_unknown_branch(self, origin, remote_for):
        remote = remote_for(origin)
        local = remote.clone()
        with pytest.raises(RemoteError):
            remote.push(local, branch="does-not-exist")

    def test_pull_fast_forwards_local(self, origin, remote_for):
        remote = remote_for(origin)
        local = remote.clone()
        origin.write_file("upstream.txt", "u")
        tip = origin.commit("upstream change")
        assert remote.pull(local) == tip
        assert local.head_oid() == tip and local.file_exists("upstream.txt")

    def test_pull_diverged_refuses(self, origin, remote_for):
        remote = remote_for(origin)
        local = remote.clone()
        local.write_file("l.txt", "l")
        local.commit("local")
        origin.write_file("r.txt", "r")
        origin.commit("remote")
        with pytest.raises(RemoteError):
            remote.pull(local)

    def test_fetch_branch_copies_objects_only(self, origin, remote_for):
        remote = remote_for(origin)
        other = Repository.init("scratch", "carol")
        tip = remote.fetch_branch(other, "main")
        assert tip in other.store
        assert not other.refs.has_branch("main")
        with pytest.raises(RemoteError):
            remote.fetch_branch(other, "missing")


class TestPushPullOverRest(TestPushPull):
    """The same contract against a hosted repository over the REST wire."""

    #: The hub maps a non-fast-forward rejection to HTTP 422.
    rejected = ValidationError

    @pytest.fixture
    def remote_for(self, rest_remote_for):
        return rest_remote_for


class TestIgnoreRules:
    def test_defaults_ignore_state_dirs_and_pyc(self):
        rules = IgnoreRules()
        assert rules.matches("/.gitcite/state.json")
        assert rules.matches("/pkg/__pycache__/mod.cpython-311.pyc")
        assert rules.matches("/mod.pyc")
        assert not rules.matches("/src/main.py")

    def test_directory_pattern_only_matches_directories(self):
        rules = IgnoreRules(["build/"])
        assert rules.matches("/build", is_directory=True)
        assert rules.matches("/build/out.bin")
        assert not rules.matches("/build")  # a *file* named build is kept

    def test_from_text_and_comments(self):
        rules = IgnoreRules.from_text("# comment\n*.log\n\ntmp/\n")
        assert rules.matches("/server.log")
        assert rules.matches("/tmp/scratch.txt")
        assert not rules.matches("/keep.txt")

    def test_full_path_patterns(self):
        rules = IgnoreRules(["docs/*.md"])
        assert rules.matches("/docs/guide.md")
        assert not rules.matches("/guide.md")

    def test_filter_paths(self):
        rules = IgnoreRules(["*.tmp"])
        assert rules.filter_paths(["/a.tmp", "/b.txt"]) == ["/b.txt"]


class TestDiskWorktree:
    def test_export_and_import_round_trip(self, origin, tmp_path):
        target = tmp_path / "checkout"
        assert save_repository(origin, target) == []
        assert (target / "src" / "lib.py").read_text() == "lib = 1\n"

        fresh = load_repository(target)
        assert sorted(fresh.worktree) == sorted(origin.worktree)
        assert fresh.worktree == origin.worktree
        assert fresh.status().is_clean

    def test_import_honours_ignore_rules(self, origin, tmp_path):
        target = tmp_path / "checkout"
        save_repository(origin, target)
        (target / "junk.pyc").write_bytes(b"\x00")
        (target / "__pycache__").mkdir()
        (target / "__pycache__" / "lib.cpython.pyc").write_bytes(b"\x00")
        imported = sorted(load_repository(target).worktree)
        assert imported == ["/README.md", "/src/lib.py"]

    def test_checkout_files_writes_a_whole_version(self, origin, tmp_path):
        first = origin.tree_oid_of("HEAD")
        origin.write_file("src/lib.py", "lib = 2\n")
        origin.commit("bump")
        assert checkout_files(origin.store, tmp_path / "old", None, first) == []
        assert (tmp_path / "old" / "src" / "lib.py").read_text() == "lib = 1\n"
        assert (tmp_path / "old" / "README.md").read_text() == "# upstream\n"

    def test_checkout_files_moves_only_the_diff_and_keeps_local_edits(self, origin, tmp_path):
        target = tmp_path / "copy"
        old = origin.tree_oid_of("HEAD")
        checkout_files(origin.store, target, None, old)
        origin.write_file("src/lib.py", "lib = 2\n")
        origin.write_file("docs/new.md", "new\n")
        origin.write_file("README.md", "# changed upstream\n")
        origin.remove_file("src/lib.py")
        origin.write_file("src", "src is a file now\n")
        new = origin.commit("reshape")
        (target / "README.md").write_text("local edit\n")
        (target / "untracked.txt").write_text("mine\n")
        kept = checkout_files(origin.store, target, old, origin.tree_oid_of(new))
        assert kept == ["/README.md"]
        assert (target / "README.md").read_text() == "local edit\n"
        assert (target / "src").read_text() == "src is a file now\n"  # directory emptied, replaced
        assert (target / "docs" / "new.md").read_text() == "new\n"
        assert (target / "untracked.txt").read_text() == "mine\n"
        # Repeating an interrupted move is a no-op; moving back removes the
        # version's own files and the directories they leave empty.
        assert checkout_files(origin.store, target, old, origin.tree_oid_of(new)) == ["/README.md"]
        assert checkout_files(origin.store, target, origin.tree_oid_of(new), old) == ["/README.md"]
        assert (target / "src" / "lib.py").read_text() == "lib = 1\n"
        assert not (target / "docs").exists()

    def test_import_requires_directory(self, origin, tmp_path):
        with pytest.raises(VCSError):
            import_worktree(origin, tmp_path / "missing")
