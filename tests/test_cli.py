"""End-to-end tests for the ``gitcite`` command-line tool (the local executable)."""

import json
from pathlib import Path

import pytest

from repro.cli import commands
from repro.cli.main import main
from repro.utils import atomicio
from repro.vcs.workingcopy import is_working_copy, load_repository


@pytest.fixture
def project(tmp_path):
    """A directory of source files turned into a citation-enabled working copy."""
    directory = tmp_path / "proj"
    directory.mkdir()
    (directory / "src").mkdir()
    (directory / "src" / "engine.py").write_text("engine = True\n")
    (directory / "README.md").write_text("# proj\n")
    assert main(["init", "-C", str(directory), "--owner", "alice", "--name", "proj"]) == 0
    assert main(["enable", "-C", str(directory), "--author", "Alice Smith"]) == 0
    return directory


def run(*argv: str) -> int:
    return main(list(argv))


def run_json(capsys, *argv: str) -> dict:
    """Run a command and parse its (fresh) stdout as JSON."""
    capsys.readouterr()  # discard output of earlier commands
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


class TestInitAndStatus:
    def test_init_creates_state_and_initial_commit(self, project):
        assert is_working_copy(project)
        repo = load_repository(project)
        assert repo.full_name == "alice/proj"
        assert repo.file_exists("/src/engine.py")

    def test_init_twice_fails(self, project, capsys):
        assert run("init", "-C", str(project), "--owner", "alice") == 1
        assert "already a gitcite working copy" in capsys.readouterr().err

    def test_status_and_log(self, project, capsys):
        assert run("status", "-C", str(project)) == 0
        out = capsys.readouterr().out
        assert "alice/proj" in out and "Citations  : enabled" in out
        assert run("log", "-C", str(project)) == 0
        assert "Enable citations" in capsys.readouterr().out

    def test_commands_on_non_working_copy_fail_cleanly(self, tmp_path, capsys):
        assert run("status", "-C", str(tmp_path)) == 1
        assert "not a gitcite working copy" in capsys.readouterr().err


class TestCitationCommands:
    def test_add_gen_modify_del_cycle(self, project, capsys):
        assert run("add-cite", "-C", str(project), "/src/engine.py",
                   "--author", "Bob Jones", "--title", "The engine", "--commit") == 0
        payload = run_json(capsys, "gen-cite", "-C", str(project), "/src/engine.py", "--format", "json")
        assert payload["authorList"] == ["Bob Jones"]

        assert run("modify-cite", "-C", str(project), "/src/engine.py",
                   "--author", "Carol", "--commit") == 0
        payload = run_json(capsys, "gen-cite", "-C", str(project), "/src/engine.py", "--format", "json")
        assert payload["authorList"] == ["Carol"]

        assert run("del-cite", "-C", str(project), "/src/engine.py", "--commit") == 0
        capsys.readouterr()
        assert run("gen-cite", "-C", str(project), "/src/engine.py", "--format", "json",
                   "--show-source") == 0
        out = capsys.readouterr().out
        assert "inherited from /" in out

    def test_gen_cite_inherits_from_root(self, project, capsys):
        assert run("gen-cite", "-C", str(project), "/README.md") == 0
        assert "Alice Smith" in capsys.readouterr().out

    def test_export_bibtex_to_file(self, project, tmp_path):
        target = tmp_path / "cite.bib"
        assert run("export", "-C", str(project), "/", "--format", "bibtex", "-o", str(target)) == 0
        assert target.read_text().startswith("@software{")

    def test_citations_listing(self, project, capsys):
        run("add-cite", "-C", str(project), "/README.md", "--author", "Doc Writer", "--commit")
        assert run("citations", "-C", str(project)) == 0
        out = capsys.readouterr().out
        assert "/README.md" in out and "Doc Writer" in out

    def test_add_cite_twice_fails(self, project, capsys):
        run("add-cite", "-C", str(project), "/README.md", "--commit")
        assert run("add-cite", "-C", str(project), "/README.md") == 1
        assert "already has an explicit citation" in capsys.readouterr().err

    def test_validate(self, project, capsys):
        assert run("validate", "-C", str(project)) == 0
        assert "consistent" in capsys.readouterr().out


class TestGitLevelCommands:
    def test_branch_checkout_merge_cite(self, project, capsys):
        # Create a branch, add a cited file there, merge it back with MergeCite.
        assert run("branch", "-C", str(project), "gui") == 0
        assert run("checkout", "-C", str(project), "gui") == 0
        (project / "gui_app.py").write_text("window = 1\n")
        assert run("commit", "-C", str(project), "-m", "gui work", "--author", "Yanssie") == 0
        assert run("add-cite", "-C", str(project), "/gui_app.py", "--author", "Yanssie", "--commit") == 0
        assert run("checkout", "-C", str(project), "main") == 0
        (project / "core_change.py").write_text("core = 2\n")
        assert run("commit", "-C", str(project), "-m", "core work") == 0
        assert run("merge-cite", "-C", str(project), "gui", "--strategy", "theirs") == 0
        assert "Merged gui into main" in capsys.readouterr().out
        payload = run_json(capsys, "gen-cite", "-C", str(project), "/gui_app.py", "--format", "json")
        assert payload["authorList"] == ["Yanssie"]
        assert (project / "gui_app.py").exists() and (project / "core_change.py").exists()

    def test_merge_cite_keeps_untracked_files(self, project):
        assert run("checkout", "-C", str(project), "side", "--create") == 0
        (project / "side.py").write_text("side = 1\n")
        assert run("commit", "-C", str(project), "-m", "side work") == 0
        assert run("checkout", "-C", str(project), "main") == 0
        (project / "core.py").write_text("core = 1\n")
        assert run("commit", "-C", str(project), "-m", "core work") == 0
        (project / "notes.txt").write_bytes(b"never committed\n")
        assert run("merge-cite", "-C", str(project), "side") == 0
        assert (project / "notes.txt").read_bytes() == b"never committed\n"
        assert (project / "side.py").read_text() == "side = 1\n"
        assert load_repository(project).status().untracked == ("/notes.txt",)

    def test_checkout_moves_only_the_files_that_differ(self, project, capsys):
        assert run("checkout", "-C", str(project), "keep", "--create") == 0
        (project / "extra.txt").write_text("only on keep\n")
        (project / "README.md").write_text("# proj on keep\n")
        assert run("commit", "-C", str(project), "-m", "keep work") == 0
        assert run("checkout", "-C", str(project), "main") == 0
        assert not (project / "extra.txt").exists()
        assert (project / "README.md").read_text() == "# proj\n"
        assert load_repository(project).status().is_clean
        # A local edit of a file the checkout changes is kept and named.
        (project / "README.md").write_text("local edit\n")
        capsys.readouterr()
        assert run("checkout", "-C", str(project), "keep") == 0
        assert "kept local changes: /README.md" in capsys.readouterr().out
        assert (project / "README.md").read_text() == "local edit\n"
        assert (project / "extra.txt").read_text() == "only on keep\n"
        assert load_repository(project).status().modified == ("/README.md",)

    def test_copy_cite_between_working_copies(self, project, tmp_path, capsys):
        upstream = tmp_path / "upstream"
        upstream.mkdir()
        (upstream / "CoreCover").mkdir()
        (upstream / "CoreCover" / "algo.py").write_text("algo\n")
        run("init", "-C", str(upstream), "--owner", "chenli", "--name", "alu01-corecover")
        run("enable", "-C", str(upstream), "--author", "Chen Li")
        assert run("copy-cite", "-C", str(project), str(upstream), "/CoreCover", "/CoreCover",
                   "--commit") == 0
        assert (project / "CoreCover" / "algo.py").exists()
        payload = run_json(capsys, "gen-cite", "-C", str(project), "/CoreCover/algo.py", "--format", "json")
        assert payload["owner"] == "chenli"

    def test_fork_cite_to_new_directory(self, project, tmp_path, capsys):
        destination = tmp_path / "fork"
        assert run("fork-cite", "-C", str(project), str(destination), "--owner", "carol") == 0
        assert is_working_copy(destination)
        payload = run_json(capsys, "gen-cite", "-C", str(destination), "/", "--format", "json")
        assert payload["owner"] == "carol"
        assert payload["forkedFrom"].startswith("alice/proj@")

    def test_mv_carries_citation(self, project, capsys):
        run("add-cite", "-C", str(project), "/src/engine.py", "--author", "Bob", "--commit")
        assert run("mv", "-C", str(project), "/src/engine.py", "/src/core_engine.py") == 0
        assert run("commit", "-C", str(project), "-m", "rename engine") == 0
        assert run("gen-cite", "-C", str(project), "/src/core_engine.py", "--format", "json",
                   "--show-source") == 0
        out = capsys.readouterr().out
        assert "explicitly attached" in out

    def test_mv_directory_leaves_no_old_tree(self, project):
        pkg = project / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "a.py").write_text("a = 1\n")
        (pkg / "sub" / "b.py").write_text("b = 2\n")
        assert run("commit", "-C", str(project), "-m", "add pkg") == 0
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "a.pyc").write_bytes(b"untracked")
        assert run("mv", "-C", str(project), "pkg", "lib") == 0
        assert run("commit", "-C", str(project), "-m", "move pkg") == 0
        repo = load_repository(project)
        assert repo.status().is_clean
        assert repo.file_exists("/lib/a.py") and repo.file_exists("/lib/sub/b.py")
        assert not repo.directory_exists("/pkg")
        assert (project / "lib" / "sub" / "b.py").read_text() == "b = 2\n"
        # Only the untracked file survives under the old directory.
        assert sorted(p.relative_to(pkg).as_posix() for p in pkg.rglob("*")) == [
            "__pycache__", "__pycache__/a.pyc",
        ]

    def test_from_json_too_deep_is_a_cli_error(self, project, capsys):
        for name, text in (("deep.json", "[" * 200_000), ("broken.json", "{")):
            payload = project.parent / name
            payload.write_text(text)
            assert run("add-cite", "-C", str(project), "/README.md",
                       "--from-json", str(payload)) == 1
            assert "is not valid JSON" in capsys.readouterr().err

    def test_retro_cite_on_plain_history(self, tmp_path, capsys):
        directory = tmp_path / "legacy"
        directory.mkdir()
        (directory / "a.py").write_text("a\n")
        run("init", "-C", str(directory), "--owner", "dana", "--name", "legacy")
        (directory / "b.py").write_text("b\n")
        run("commit", "-C", str(directory), "-m", "more code", "--author", "Evan")
        assert run("retro-cite", "-C", str(directory), "--granularity", "file") == 0
        out = capsys.readouterr().out
        assert "Retroactively cited dana/legacy" in out
        assert run("gen-cite", "-C", str(directory), "/a.py") == 0

    def test_unknown_branch_merge_fails_cleanly(self, project, capsys):
        assert run("merge-cite", "-C", str(project), "no-such-branch") == 1
        assert "error" in capsys.readouterr().err


def _files(root) -> dict[str, int]:
    """``{repository path: st_mtime_ns}`` of the working copy's files."""
    return {
        "/" + path.relative_to(root).as_posix(): path.stat().st_mtime_ns
        for path in root.rglob("*")
        if path.is_file() and ".gitcite" not in path.relative_to(root).parts
    }


class TestSavesMoveOnlyWhatChanged:
    """Each command writes and unlinks only the files whose bytes it changed."""

    SIZE = 300

    @pytest.fixture
    def moves(self, monkeypatch):
        """Record every working-copy file written or unlinked, by repository path."""
        log = {"written": [], "unlinked": []}
        real_write, real_unlink = atomicio.atomic_write_bytes, Path.unlink

        def note(kind, target):
            target = Path(target)
            if ".gitcite" not in target.parts and not target.name.startswith(atomicio.TMP_PREFIX):
                log[kind].append(target)

        def write(target, data, *args, **kwargs):
            note("written", target)
            return real_write(target, data, *args, **kwargs)

        def unlink(self, *args, **kwargs):
            note("unlinked", self)
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(atomicio, "atomic_write_bytes", write)
        monkeypatch.setattr(Path, "unlink", unlink)
        return log

    @pytest.fixture
    def copy(self, tmp_path):
        directory = tmp_path / "big"
        for number in range(self.SIZE):
            target = directory / ("pkg" if number < 30 else f"mod{number % 9}") / f"f{number}.py"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(f"value = {number}\n")
        return directory

    @staticmethod
    def _run(log, root, *argv):
        """Run a command; the repository paths it wrote and unlinked, sorted."""
        log["written"].clear()
        log["unlinked"].clear()
        assert run(*argv, "-C", str(root)) == 0
        return tuple(
            sorted("/" + Path(target).relative_to(root).as_posix() for target in log[kind])
            for kind in ("written", "unlinked")
        )

    def test_each_command_writes_only_its_changes(self, copy, moves, tmp_path):
        before = _files(copy)
        assert self._run(moves, copy, "init", "--owner", "alice") == ([], [])
        assert self._run(moves, copy, "enable", "--author", "Ada") == (["/citation.cite"], [])
        assert self._run(moves, copy, "branch", "x") == ([], [])
        assert self._run(moves, copy, "storage", "gc") == ([], [])
        assert {path: mtime for path, mtime in _files(copy).items()
                if path != "/citation.cite"} == before
        (copy / "mod1" / "f37.py").write_text("value = 'edited'\n")
        before = _files(copy)
        assert self._run(moves, copy, "commit", "-m", "edit") == ([], [])
        assert _files(copy) == before
        assert self._run(moves, copy, "add-cite", "/mod1", "--author", "Bob") == (
            ["/citation.cite"], [])
        moved = [f"/pkg/f{number}.py" for number in range(30)]
        written, unlinked = self._run(moves, copy, "mv", "pkg", "lib")
        assert unlinked == sorted(moved)
        assert written == sorted(path.replace("/pkg/", "/lib/") for path in moved)
        assert not (copy / "pkg").exists()
        assert (copy / "lib" / "f7.py").read_text() == "value = 7\n"
        # A fork goes to a fresh directory, which holds nothing yet.
        fork = tmp_path / "fork"
        moves["written"].clear()
        moves["unlinked"].clear()
        assert run("fork-cite", str(fork), "--owner", "bob", "-C", str(copy)) == 0
        assert sorted(moves["written"]) == sorted(fork / path[1:] for path in _files(fork))
        assert len(moves["written"]) == self.SIZE + 1 and moves["unlinked"] == []
        assert load_repository(fork).status().is_clean

    def test_a_file_edited_during_a_command_is_kept_and_named(
        self, project, monkeypatch, capsys
    ):
        def load_then_edit(directory):
            repo = load_repository(directory)
            (project / "citation.cite").write_text("edited meanwhile\n")
            return repo

        monkeypatch.setattr(commands, "load_repository", load_then_edit)
        capsys.readouterr()
        assert run("add-cite", "-C", str(project), "/README.md", "--author", "Ada") == 0
        assert "kept local changes: /citation.cite" in capsys.readouterr().out
        assert (project / "citation.cite").read_text() == "edited meanwhile\n"


class TestBundleCommands:
    def _other_copy(self, tmp_path):
        directory = tmp_path / "other"
        directory.mkdir()
        (directory / "seed.txt").write_text("other seed\n")
        assert run("init", "-C", str(directory), "--owner", "alice", "--name", "proj") == 0
        return directory

    def test_create_verify_unbundle_round_trip(self, project, tmp_path, capsys):
        bundle_file = tmp_path / "proj.bundle"
        assert run("bundle", "create", "-C", str(project), str(bundle_file)) == 0
        assert "object(s)" in capsys.readouterr().out
        assert bundle_file.is_file()

        assert run("bundle", "verify", "-C", str(project), str(bundle_file)) == 0
        assert "is valid" in capsys.readouterr().out
        # Standalone verification (no working copy around the file) also works.
        assert run("bundle", "verify", "-C", str(tmp_path), str(bundle_file)) == 0
        assert "standalone" in capsys.readouterr().out

        target = tmp_path / "restored"
        target.mkdir()
        assert run("init", "-C", str(target), "--owner", "alice", "--name", "proj",
                   "--allow-empty") == 0
        assert run("bundle", "unbundle", "-C", str(target), str(bundle_file),
                   "--force") == 0
        out = capsys.readouterr().out
        assert "refs updated" in out
        source = load_repository(project)
        restored = load_repository(target)
        assert restored.head_oid() == source.head_oid()
        assert restored.read_file("/src/engine.py") == source.read_file("/src/engine.py")

    def test_unbundle_moves_the_checked_out_files(self, project, tmp_path):
        import shutil

        target = tmp_path / "behind"
        shutil.copytree(project, target)
        (project / "README.md").unlink()
        (project / "new.txt").write_text("from the bundle\n")
        assert run("commit", "-C", str(project), "-m", "drop readme, add new") == 0
        bundle_file = tmp_path / "ahead.bundle"
        assert run("bundle", "create", "-C", str(project), str(bundle_file)) == 0
        assert run("bundle", "unbundle", "-C", str(target), str(bundle_file)) == 0
        assert not (target / "README.md").exists()
        assert (target / "new.txt").read_text() == "from the bundle\n"
        restored = load_repository(target)
        assert restored.head_oid() == load_repository(project).head_oid()
        assert restored.status().is_clean

    def test_thin_bundle_with_basis(self, project, tmp_path, capsys):
        base = load_repository(project).head_oid()
        (project / "new.txt").write_text("incremental\n")
        assert run("commit", "-C", str(project), "-m", "add new.txt") == 0
        bundle_file = tmp_path / "thin.bundle"
        assert run("bundle", "create", "-C", str(project), str(bundle_file),
                   "--basis", base) == 0
        assert "thin against 1 prerequisite(s)" in capsys.readouterr().out

    def test_corrupt_bundle_fails_verify_and_unbundle(self, project, tmp_path, capsys):
        bundle_file = tmp_path / "proj.bundle"
        assert run("bundle", "create", "-C", str(project), str(bundle_file)) == 0
        raw = bundle_file.read_bytes()
        bundle_file.write_bytes(raw[: len(raw) - 40])  # truncate
        capsys.readouterr()
        assert run("bundle", "verify", "-C", str(project), str(bundle_file)) == 1
        assert "verification failed" in capsys.readouterr().err
        target = self._other_copy(tmp_path)
        before = load_repository(target).head_oid()
        assert run("bundle", "unbundle", "-C", str(target), str(bundle_file)) == 1
        assert "rejected" in capsys.readouterr().err
        assert load_repository(target).head_oid() == before

    def test_create_on_empty_repository_fails_cleanly(self, tmp_path, capsys):
        directory = tmp_path / "empty"
        directory.mkdir()
        assert run("init", "-C", str(directory), "--owner", "alice",
                   "--allow-empty") == 0
        # --allow-empty makes one commit; bundling a ref that exists is fine,
        # but an unknown --ref must fail with a one-line error.
        assert run("bundle", "create", "-C", str(directory),
                   str(tmp_path / "x.bundle"), "--ref", "no-such-ref") == 1
        assert "error" in capsys.readouterr().err

    def test_unbundle_non_fast_forward_is_rejected_cleanly(self, project, tmp_path, capsys):
        # Diverge: the target copy commits its own work, then tries to apply
        # a bundle whose 'main' is not a descendant.
        target = tmp_path / "diverged"
        import shutil

        shutil.copytree(project, target)
        (target / "local.txt").write_text("local divergence\n")
        assert run("commit", "-C", str(target), "-m", "local work") == 0
        (project / "remote.txt").write_text("remote divergence\n")
        assert run("commit", "-C", str(project), "-m", "remote work") == 0
        bundle_file = tmp_path / "diverged.bundle"
        assert run("bundle", "create", "-C", str(project), str(bundle_file)) == 0
        before = load_repository(target).head_oid()
        capsys.readouterr()
        assert run("bundle", "unbundle", "-C", str(target), str(bundle_file)) == 1
        assert "rejected" in capsys.readouterr().err
        assert load_repository(target).head_oid() == before
        # --force applies it.
        assert run("bundle", "unbundle", "-C", str(target), str(bundle_file),
                   "--force") == 0
        assert load_repository(target).head_oid() == load_repository(project).head_oid()
