"""Unit tests for the on-disk working-copy persistence layer (repro.vcs.workingcopy)."""

import json

import pytest

from legacy_copies import LEGACY_KINDS, build_reference, copy_legacy
from repro.errors import CLIError
from repro.citation.manager import CitationManager
from repro.hub.durability import recover_working_copy
from repro.vcs.fsck import fsck_working_copy
from repro.vcs.workingcopy import STATE_DIR, STATE_FILE, is_working_copy, load_repository, save_repository


@pytest.fixture
def saved(enabled_manager, tmp_path):
    """The enabled demo repository saved to disk as a working copy."""
    directory = tmp_path / "copy"
    save_repository(enabled_manager.repo, directory)
    return enabled_manager.repo, directory


class TestSaveAndLoad:
    def test_save_creates_state_and_exports_files(self, saved):
        repo, directory = saved
        assert is_working_copy(directory)
        assert (directory / "src" / "main.py").read_text() == "print('hello')\n"
        assert (directory / "citation.cite").exists()
        state = json.loads((directory / STATE_DIR / STATE_FILE).read_text())
        assert state["name"] == "demo" and state["owner"] == "alice"
        assert state["branches"]["main"] == repo.head_oid()

    def test_load_round_trips_history_refs_and_worktree(self, saved):
        repo, directory = saved
        loaded = load_repository(directory)
        assert loaded.full_name == repo.full_name
        assert loaded.head_oid() == repo.head_oid()
        assert loaded.branches() == repo.branches()
        assert loaded.worktree == repo.worktree
        assert [c.summary for c in loaded.log()] == [c.summary for c in repo.log()]

    def test_loaded_repository_reflects_on_disk_edits(self, saved):
        _, directory = saved
        (directory / "src" / "main.py").write_text("print('edited on disk')\n")
        (directory / "new_module.py").write_text("x = 1\n")
        loaded = load_repository(directory)
        status = loaded.status()
        assert "/src/main.py" in status.modified
        assert "/new_module.py" in status.untracked
        oid = loaded.commit("pick up disk edits")
        assert loaded.read_file_at(oid, "/new_module.py") == b"x = 1\n"

    def test_citation_manager_works_over_a_loaded_copy(self, saved):
        _, directory = saved
        loaded = load_repository(directory)
        manager = CitationManager(loaded)
        resolved = manager.cite("/docs/guide.md")
        assert resolved.citation.owner == "alice"
        assert manager.validate().is_consistent

    def test_save_load_save_is_stable(self, saved, tmp_path):
        _, directory = saved
        first = load_repository(directory)
        second_dir = tmp_path / "again"
        save_repository(first, second_dir)
        second = load_repository(second_dir)
        assert second.head_oid() == first.head_oid()
        assert second.worktree == first.worktree

    def test_detached_head_round_trip(self, simple_repo, tmp_path):
        first = simple_repo.head_oid()
        simple_repo.write_file("x.txt", "x")
        simple_repo.commit("second")
        simple_repo.checkout(first)
        directory = tmp_path / "detached"
        save_repository(simple_repo, directory)
        loaded = load_repository(directory)
        assert loaded.refs.is_detached
        assert loaded.head_oid() == first

    def test_tags_round_trip(self, simple_repo, tmp_path):
        simple_repo.tag("v1.0")
        directory = tmp_path / "tagged"
        save_repository(simple_repo, directory)
        assert load_repository(directory).refs.tags == {"v1.0": simple_repo.head_oid()}


class TestErrorPaths:
    def test_load_from_plain_directory_fails(self, tmp_path):
        with pytest.raises(CLIError):
            load_repository(tmp_path)

    def test_corrupt_state_file_reported(self, saved):
        _, directory = saved
        (directory / STATE_DIR / STATE_FILE).write_text("{not json")
        with pytest.raises(CLIError):
            load_repository(directory)

    def test_tampered_object_fails_integrity_check(self, tmp_path):
        directory = copy_legacy("memory", tmp_path / "copy")
        state_path = directory / STATE_DIR / STATE_FILE
        state = json.loads(state_path.read_text())
        first_oid = next(iter(state["objects"]))
        # Re-key an object under a wrong id: loading must detect the mismatch.
        state["objects"]["0" * 40] = state["objects"].pop(first_oid)
        state_path.write_text(json.dumps(state))
        with pytest.raises(CLIError):
            load_repository(directory)

    def test_state_dir_is_never_imported_into_the_worktree(self, saved):
        _, directory = saved
        loaded = load_repository(directory)
        assert not any(path.startswith("/" + STATE_DIR) for path in loaded.worktree)


def _first_record(state):
    return state["objects"][min(state["objects"])]


#: One way each to bend the committed memory fixture's state.json.
_MALFORMED_STATES = {
    "record-without-type": lambda state: _first_record(state).pop("type"),
    "record-is-a-string": lambda state: state["objects"].update({min(state["objects"]): "blob"}),
    "payload-not-base64": lambda state: _first_record(state).update(payload="%%%"),
    "unknown-object-type": lambda state: _first_record(state).update(type="widget"),
    "objects-is-a-list": lambda state: state.update(objects=[]),
    "name-missing": lambda state: state.pop("name"),
    "branches-is-a-list": lambda state: state.update(branches=["main"]),
    "head-on-unknown-branch": lambda state: state.update(head_branch="nowhere"),
    "branch-names-no-object": lambda state: state["branches"].update(main="0" * 40),
    "branch-target-not-an-oid": lambda state: state["branches"].update(feature=["x"]),
    "tag-target-null": lambda state: state.setdefault("tags", {}).update(v1=None),
    "tag-target-short-hex": lambda state: state.setdefault("tags", {}).update(v1="abc123"),
    "head-oid-not-an-oid": lambda state: state.update(head_branch=None, head_oid=7),
    "unknown-layout": lambda state: state.update(storage="granite"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_STATES))
def test_malformed_state_file_raises_cli_error(tmp_path, case):
    directory = copy_legacy("memory", tmp_path / "copy")
    state_path = directory / STATE_DIR / STATE_FILE
    state = json.loads(state_path.read_text())
    _MALFORMED_STATES[case](state)
    state_path.write_text(json.dumps(state))
    with pytest.raises(CLIError):
        load_repository(directory)


def test_state_file_that_is_not_an_object_raises_cli_error(tmp_path):
    directory = copy_legacy("memory", tmp_path / "copy")
    (directory / STATE_DIR / STATE_FILE).write_text("[]")
    with pytest.raises(CLIError):
        load_repository(directory)


class TestLegacyWorkingCopies:
    """Copies written by older releases: embedded ``memory`` and ``loose``."""

    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    def test_loads_to_the_reference_history(self, tmp_path, kind):
        reference = build_reference()
        loaded = load_repository(copy_legacy(kind, tmp_path / "copy"))
        assert loaded.refs.branches == reference.refs.branches
        assert loaded.refs.tags == reference.refs.tags
        assert loaded.refs.head_branch == "main"
        assert loaded.store.object_ids() == reference.store.object_ids()
        for branch in ("main", "feature"):
            assert loaded.snapshot(branch) == reference.snapshot(branch)
        assert loaded.status().is_clean

    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    def test_save_converts_to_pack(self, tmp_path, kind):
        directory = copy_legacy(kind, tmp_path / "copy")
        assert fsck_working_copy(directory).ok  # verified before conversion
        repo = load_repository(directory)
        oids = repo.store.object_ids()
        save_repository(repo, directory)
        state = json.loads((directory / STATE_DIR / STATE_FILE).read_text())
        assert state["storage"] == "pack" and "objects" not in state
        assert not (directory / STATE_DIR / "objects").exists()
        reloaded = load_repository(directory)
        assert reloaded.store.backend.kind == "pack"
        assert reloaded.store.object_ids() == oids
        assert reloaded.refs.branches == build_reference().refs.branches
        assert fsck_working_copy(directory).ok

    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    def test_serve_recovery_converts(self, tmp_path, kind):
        directory = copy_legacy(kind, tmp_path / "copy")
        repo, report = recover_working_copy(directory)
        assert report.clean
        assert repo.store.backend.kind == "pack"
        state = json.loads((directory / STATE_DIR / STATE_FILE).read_text())
        assert state["storage"] == "pack" and "objects" not in state
        assert not (directory / STATE_DIR / "objects").exists()
        assert load_repository(directory).refs.branches == build_reference().refs.branches
