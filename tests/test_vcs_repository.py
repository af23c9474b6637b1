"""Unit tests for the Repository facade: worktree, commits, branches, merges."""

import pytest

from repro.errors import CheckoutError, MergeConflictError, MergeError, RefError, VCSError
from repro.vcs.repository import Repository


@pytest.fixture
def repo() -> Repository:
    repo = Repository.init("demo", "alice")
    repo.write_file("README.md", "# demo\n")
    repo.write_file("src/app.py", "app = True\n")
    repo.commit("initial")
    return repo


class TestWorktree:
    def test_write_read_remove(self, repo):
        repo.write_file("notes.txt", "hello")
        assert repo.read_file("/notes.txt") == b"hello"
        assert repo.file_exists("notes.txt")
        repo.remove_file("notes.txt")
        assert not repo.file_exists("notes.txt")
        with pytest.raises(VCSError):
            repo.read_file("/notes.txt")

    def test_cannot_write_root_or_conflict_with_directory(self, repo):
        with pytest.raises(VCSError):
            repo.write_file("/", b"x")
        with pytest.raises(VCSError):
            repo.write_file("/src", b"x")  # /src is a directory
        with pytest.raises(VCSError):
            repo.write_file("/README.md/sub.txt", b"x")  # README.md is a file

    def test_move_file_and_directory(self, repo):
        repo.move_file("/src/app.py", "/src/application.py")
        assert repo.file_exists("/src/application.py")
        repo.write_file("/src/pkg/mod.py", "m")
        moves = repo.move_directory("/src", "/lib")
        assert moves["/src/application.py"] == "/lib/application.py"
        assert repo.file_exists("/lib/pkg/mod.py")
        assert not repo.directory_exists("/src")

    def test_remove_directory(self, repo):
        repo.write_file("/src/extra.py", "x")
        removed = repo.remove_directory("/src")
        assert "/src/app.py" in removed and "/src/extra.py" in removed
        with pytest.raises(VCSError):
            repo.remove_directory("/src")

    def test_list_files_and_directories(self, repo):
        repo.write_file("/docs/a/deep.md", "d")
        assert "/docs/a/deep.md" in repo.list_files()
        assert repo.list_files("/docs") == ["/docs/a/deep.md"]
        assert "/docs/a" in repo.list_directories()
        assert repo.directory_exists("/docs/a")

    def test_write_files_bulk_matches_write_file(self, repo):
        written = repo.write_files({"a/x.txt": "x", "/a/y.txt": b"y", "b.txt": "b"})
        assert written == ["/a/x.txt", "/a/y.txt", "/b.txt"]
        assert repo.read_file("/a/x.txt") == b"x"
        assert repo.read_file("/a/y.txt") == b"y"
        # Overwriting an existing file in a batch is legal, like write_file.
        repo.write_files({"/b.txt": "b2"})
        assert repo.read_file("/b.txt") == b"b2"

    def test_write_files_rejects_conflicts_like_write_file(self, repo):
        with pytest.raises(VCSError):
            repo.write_files({"/": b"x"})
        with pytest.raises(VCSError):
            repo.write_files({"/src": b"x"})  # /src is a directory
        with pytest.raises(VCSError):
            repo.write_files({"/README.md/sub.txt": b"x"})  # README.md is a file
        with pytest.raises(VCSError):
            # Conflict *within* the batch itself.
            repo.write_files({"/new/leaf.txt": b"a", "/new/leaf.txt/below.txt": b"b"})
        # Sibling with a lexicographically tricky name is NOT a conflict.
        repo.write_files({"/src/app.py!": b"bang", "/src/app.py2": b"two"})
        assert repo.read_file("/src/app.py!") == b"bang"


class TestCommits:
    def test_commit_advances_head(self, repo):
        first = repo.head_oid()
        repo.write_file("new.txt", "n")
        second = repo.commit("add new")
        assert repo.head_oid() == second
        assert repo.store.get_commit(second).parent_oids == (first,)

    def test_empty_commit_rejected_unless_allowed(self, repo):
        with pytest.raises(VCSError):
            repo.commit("nothing changed")
        oid = repo.commit("forced", allow_empty=True)
        assert repo.head_oid() == oid

    def test_commit_records_author_and_timestamp(self, repo):
        repo.write_file("x.txt", "x")
        oid = repo.commit("by bob", author_name="Bob")
        commit = repo.store.get_commit(oid)
        assert commit.author.name == "Bob"
        assert commit.committer.timestamp.year == 2018  # fixed clock fixture

    def test_snapshot_and_read_file_at(self, repo):
        first = repo.head_oid()
        repo.write_file("src/app.py", "app = False\n")
        repo.commit("flip flag")
        assert repo.read_file_at(first, "/src/app.py") == b"app = True\n"
        assert repo.read_file_at("HEAD", "/src/app.py") == b"app = False\n"
        snap = repo.snapshot(first)
        assert set(snap) == {"/README.md", "/src/app.py"}
        with pytest.raises(VCSError):
            repo.read_file_at(first, "/missing.txt")
        with pytest.raises(VCSError):
            repo.read_file_at(first, "/src")

    def test_status_reports_changes(self, repo):
        status = repo.status()
        assert status.is_clean
        repo.write_file("README.md", "changed\n")
        repo.write_file("untracked.txt", "new\n")
        repo.remove_file("/src/app.py")
        status = repo.status()
        assert "/README.md" in status.modified
        assert "/untracked.txt" in status.untracked
        assert "/src/app.py" in status.deleted

    def test_commit_edit_moves_only_the_branch(self, repo):
        tip = repo.head_oid()
        repo.write_file("README.md", "local edit\n")
        repo.write_file("docs/draft.md", "draft\n")
        repo.add(["docs/draft.md"])
        before = (dict(repo.worktree), repo.index.entries(), repo.worktree_generation)
        oid = repo.commit_edit("main", "src/app.py", "app = 2\n", "edit app")
        assert repo.head_oid() == oid
        assert repo.store.get_commit(oid).parent_oids == (tip,)
        assert repo.snapshot(oid) == {"/README.md": b"# demo\n", "/src/app.py": b"app = 2\n"}
        assert (dict(repo.worktree), repo.index.entries(), repo.worktree_generation) == before
        repo.commit_edit("main", "src/app.py", None, "drop app")
        assert repo.snapshot("main") == {"/README.md": b"# demo\n"}
        with pytest.raises(VCSError):
            repo.commit_edit("main", "README.md", "# demo\n", "unchanged")


class TestBranchesAndCheckout:
    def test_create_checkout_and_log(self, repo):
        repo.create_branch("feature")
        repo.checkout("feature")
        repo.write_file("feature.txt", "f")
        repo.commit("feature work")
        assert repo.current_branch == "feature"
        repo.checkout("main")
        assert not repo.file_exists("feature.txt")
        assert [info.summary for info in repo.log()] == ["initial"]
        repo.checkout("feature")
        assert [info.summary for info in repo.log()] == ["feature work", "initial"]

    def test_checkout_detached(self, repo):
        first = repo.head_oid()
        repo.write_file("x.txt", "x")
        repo.commit("second")
        repo.checkout(first)
        assert repo.refs.is_detached
        assert not repo.file_exists("x.txt")

    def test_checkout_unknown_ref(self, repo):
        with pytest.raises(CheckoutError):
            repo.checkout("no-such-branch")

    def test_create_branch_requires_commit(self):
        empty = Repository.init("empty", "alice")
        with pytest.raises(RefError):
            empty.create_branch("x")

    def test_duplicate_branch_rejected(self, repo):
        repo.create_branch("dev")
        with pytest.raises(RefError):
            repo.create_branch("dev")

    def test_resolve_prefix_and_tag(self, repo):
        head = repo.head_oid()
        assert repo.resolve(head[:8]) == head
        repo.tag("v1.0", message="first release")
        assert repo.resolve("v1.0") == head
        with pytest.raises(RefError):
            repo.resolve("definitely-missing")

    def test_log_limit_and_order(self, repo):
        for index in range(3):
            repo.write_file(f"f{index}.txt", str(index))
            repo.commit(f"commit {index}")
        log = repo.log(limit=2)
        assert len(log) == 2
        assert log[0].summary == "commit 2"


class TestMerge:
    def _diverge(self, repo: Repository) -> None:
        repo.create_branch("side")
        repo.checkout("side")
        repo.write_file("side.txt", "side\n")
        repo.commit("side work")
        repo.checkout("main")
        repo.write_file("main.txt", "main\n")
        repo.commit("main work")

    def test_true_merge_has_two_parents(self, repo):
        self._diverge(repo)
        outcome = repo.merge("side")
        assert not outcome.fast_forward
        commit = repo.store.get_commit(outcome.commit_oid)
        assert len(commit.parent_oids) == 2
        assert repo.file_exists("side.txt") and repo.file_exists("main.txt")

    def test_fast_forward_merge(self, repo):
        repo.create_branch("ahead")
        repo.checkout("ahead")
        repo.write_file("ahead.txt", "a\n")
        tip = repo.commit("ahead work")
        repo.checkout("main")
        outcome = repo.merge("ahead")
        assert outcome.fast_forward and outcome.commit_oid == tip
        assert repo.file_exists("ahead.txt")

    def test_already_merged_branch_is_noop(self, repo):
        self._diverge(repo)
        repo.merge("side")
        outcome = repo.merge("side")
        assert outcome.fast_forward

    def test_conflict_requires_resolution(self, repo):
        repo.create_branch("b")
        repo.checkout("b")
        repo.write_file("README.md", "# b version\n")
        repo.commit("b edit")
        repo.checkout("main")
        repo.write_file("README.md", "# main version\n")
        repo.commit("main edit")
        with pytest.raises(MergeConflictError) as excinfo:
            repo.merge("b")
        assert excinfo.value.conflicts == ["/README.md"]
        outcome = repo.merge("b", resolutions={"/README.md": b"# resolved\n"})
        assert repo.read_file("/README.md") == b"# resolved\n"
        assert outcome.conflicts_resolved == ("/README.md",)

    def test_extra_files_are_injected_into_merge_commit(self, repo):
        self._diverge(repo)
        repo.merge("side", extra_files={"/merged-note.txt": b"injected\n"})
        assert repo.read_file("/merged-note.txt") == b"injected\n"

    def test_unrelated_histories_rejected(self, repo):
        stranger = Repository.init("other", "bob")
        stranger.write_file("s.txt", "s")
        tip = stranger.commit("stranger")
        stranger.store.copy_objects_to(repo.store)
        repo.refs.set_branch("stranger", tip)
        with pytest.raises(MergeError):
            repo.merge("stranger")
        outcome = repo.merge("stranger", allow_unrelated=True)
        assert repo.file_exists("/s.txt")
        assert len(repo.store.get_commit(outcome.commit_oid).parent_oids) == 2

    def test_prepare_merge_reports_base(self, repo):
        self._diverge(repo)
        prepared = repo.prepare_merge("side")
        assert prepared.base_oid is not None
        assert not prepared.fast_forward
        assert "/side.txt" in prepared.result.files
