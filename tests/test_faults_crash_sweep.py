"""Exhaustive crash-point sweep: no committed history survives-then-vanishes.

The durability contract of PR 6: a process death at *any* instrumented
failpoint, at *any* hit of that failpoint, during a realistic operation
sequence (init, a legacy copy's conversion to packs, commits, repack, gc,
bundle receive) must
leave the on-disk working copy in a state from which reopening — plus
``fsck --repair`` when needed — recovers every previously durable commit,
branch tip and file byte-for-byte.  The working copy's own files are held
to the same rule: after a crash every file holds its whole bytes from
before or after the dying step, and the next load + commit + save brings
the directory to exactly HEAD's files.

The sweep is deterministic, not sampled: a fault-free dry run of the
scenario counts how many times each failpoint fires and records the durable
checkpoint after every step; then the scenario is re-run once per
``(failpoint, hit index)`` pair with a crash armed there.  After each
simulated death the harness reopens the store and asserts the recovered
state equals one of the checkpoints the run had durably reached — the one
before the dying step, or (when the crash hit after the step's durable
point) the one after it.  Anything else is lost or fabricated history.

A hypothesis-driven variant (marked ``slow``) additionally randomises which
subset of steps runs and where the crash lands, to catch orderings the
fixed scenario does not produce.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from legacy_copies import copy_legacy
from repro import faults
from repro.faults import SimulatedCrash
from repro.utils.timeutil import FixedClock, set_clock
from repro.vcs.fsck import fsck_working_copy
from repro.vcs.remote import clone_repository
from repro.vcs.repository import Repository
from repro.vcs.transfer import (
    advertise_refs,
    apply_bundle,
    common_tips,
    create_bundle,
    update_refs_from_bundle,
)
from repro.vcs.treeops import flatten_tree
from repro.vcs.workingcopy import load_repository, reachable_from_refs, save_repository

#: Where each scenario starts: a fresh pack copy, or a committed legacy copy
#: whose first save converts it to packs.
START_KINDS = ["pack", "loose", "memory"]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def _rewind_clock() -> None:
    """Restart the deterministic clock so every rep produces identical oids."""
    set_clock(FixedClock(datetime(2021, 3, 1, 9, 0, 0, tzinfo=timezone.utc), step_seconds=60))


# ---------------------------------------------------------------------------
# The operation sequence under test
# ---------------------------------------------------------------------------


def _steps(kind: str):
    """The scenario: each step loads the working copy, mutates it durably."""

    def init(root: Path) -> None:
        if kind != "pack":
            copy_legacy(kind, root)
            return
        repo = Repository.init("crashdemo", "alice")
        repo.write_file("/a.txt", "alpha\n")
        repo.write_file("/docs/b.txt", "beta\n")
        repo.commit("c0", author_name="alice")
        save_repository(repo, root)

    def convert(root: Path) -> None:
        # A legacy copy's first save moves every object into a pack; on a
        # pack copy this only rewrites state.json.
        save_repository(load_repository(root), root)

    def commit_more(root: Path) -> None:
        repo = load_repository(root)
        repo.write_file("/a.txt", "alpha two\n")
        repo.write_file("/src/new.py", "x = 1\n")
        repo.commit("c1", author_name="alice")
        save_repository(repo, root)

    def repack(root: Path) -> None:
        load_repository(root).store.backend.repack()

    def commit_and_gc(root: Path) -> None:
        repo = load_repository(root)
        repo.write_file("/a.txt", "alpha three\n")
        repo.commit("c2", author_name="alice")
        repo.store.gc(reachable_from_refs(repo))
        save_repository(repo, root)

    def receive_bundle(root: Path) -> None:
        # An ahead clone pushes one commit back: the bundle path end to end
        # (read → verify → apply → ref update → state save).
        repo = load_repository(root)
        side = clone_repository(repo)
        side.write_file("/remote.txt", "from the side\n")
        tip = side.commit("c3", author_name="bob")
        data = create_bundle(
            side.store, [tip], haves=common_tips(side.store, repo), refs=advertise_refs(side)
        )
        result = apply_bundle(repo.store, data)
        update_refs_from_bundle(repo, result.bundle)
        save_repository(repo, root)

    return [init, convert, commit_more, repack, commit_and_gc, receive_bundle]


def _snapshot(root: Path) -> dict:
    """The durable truth: branch tips plus every file byte at HEAD."""
    repo = load_repository(root)
    state = {"branches": dict(repo.refs.branches), "files": {}}
    head = repo.head_oid()
    if head is not None:
        tree = repo.store.get_commit(head).tree_oid
        for path, (oid, mode) in flatten_tree(repo.store, tree).items():
            if mode != "040000":
                state["files"][path] = repo.store.get_blob(oid).data
    return state


def _disk(root: Path) -> dict:
    """The working copy's files as they sit on disk (``.gitcite`` excluded)."""
    return {
        "/" + path.relative_to(root).as_posix(): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file() and ".gitcite" not in path.relative_to(root).parts
    }


def _run(root: Path, steps) -> tuple[list[dict], list[dict]]:
    """Run the scenario, snapshotting the state and the disk after each step."""
    _rewind_clock()
    root.mkdir(parents=True, exist_ok=True)
    checkpoints: list[dict] = []
    disks: list[dict] = []
    for step in steps:
        step(root)
        checkpoints.append(_snapshot(root))
        disks.append(_disk(root))
    return checkpoints, disks


def _assert_whole_files(root: Path, completed: int, disks: list[dict]) -> None:
    """Every file holds its whole bytes from before or after the dying step."""
    before = disks[completed - 1] if completed else {}
    after = disks[completed] if completed < len(disks) else before
    now = _disk(root)
    for path in before.keys() | after.keys() | now.keys():
        assert now.get(path) in (before.get(path), after.get(path)), (
            f"{path} holds neither its old nor its new bytes (completed={completed})"
        )


def _recover(root: Path):
    """Reopen after a simulated death, repairing if the first audit objects."""
    if not (root / ".gitcite" / "state.json").is_file():
        return None  # died before the first durable state ever landed
    report = fsck_working_copy(root)
    if not report.ok:
        report = fsck_working_copy(root, repair=True)
        assert report.ok, [str(f) for f in report.errors()]
        assert not report.unrecoverable, report.unrecoverable
    return _snapshot(root)


def _assert_recovered(recovered, completed: int, checkpoints: list[dict]) -> None:
    if recovered is None:
        assert completed == 0, "state.json vanished after a completed durable step"
        return
    # Durable state must be a checkpoint this run legitimately reached: the
    # last completed one, or the dying step's own (crash after its durable
    # point), or any earlier one only if nothing later was durable — i.e.
    # exactly the prefix up to and including the in-flight step.
    allowed = checkpoints[: completed + 1]
    assert any(recovered == candidate for candidate in allowed), (
        f"recovered state matches no reached checkpoint (completed={completed}): "
        f"branches={recovered['branches']}"
    )


@pytest.mark.parametrize("kind", START_KINDS)
def test_crash_sweep_every_failpoint_every_hit(tmp_path, kind):
    steps = _steps(kind)
    expected, disks = _run(tmp_path / "dry", steps)
    assert len(expected) == len(steps)
    profile = {name: count for name, count in faults.all_hits().items() if count}
    assert profile, "scenario fired no failpoints — instrumentation is gone"

    rep = 0
    for failpoint, count in sorted(profile.items()):
        for hit in range(1, count + 1):
            rep += 1
            root = tmp_path / f"rep{rep}"
            faults.reset()
            faults.arm(failpoint, action="crash", at=hit)
            completed = 0
            crashed = False
            try:
                _rewind_clock()
                root.mkdir(parents=True)
                for step in steps:
                    step(root)
                    completed += 1
                    _snapshot(root)
            except SimulatedCrash:
                crashed = True
            finally:
                faults.reset()
            assert crashed, f"{failpoint} hit {hit} armed but never fired"
            _assert_whole_files(root, completed, disks)
            recovered = _recover(root)
            _assert_recovered(recovered, completed, expected)
            # After recovery the working copy is fully operational again.
            if recovered is not None:
                repo = load_repository(root)
                repo.write_file("/after.txt", "life goes on\n")
                repo.commit("post-crash", author_name="alice")
                assert save_repository(repo, root) == []
                assert _disk(root) == _snapshot(root)["files"]
                assert fsck_working_copy(root).ok
                state = json.loads((root / ".gitcite" / "state.json").read_text())
                assert state["storage"] == "pack" and "objects" not in state
                assert not (root / ".gitcite" / "objects").exists()


def test_torn_state_write_keeps_previous_state(tmp_path):
    """A truncate (torn temp file) at state.save leaves the old state intact."""
    steps = _steps("pack")
    root = tmp_path / "wc"
    _rewind_clock()
    root.mkdir()
    steps[0](root)
    before = _snapshot(root)
    faults.reset()  # zero the hit counters step 0 advanced
    faults.arm("state.save", action="truncate", keep=7)
    with pytest.raises(SimulatedCrash):
        steps[1](root)
    faults.reset()
    recovered = _recover(root)
    assert recovered == before
    # The torn temp file was swept on reopen, not promoted to state.json.
    leftovers = [p for p in (root / ".gitcite").iterdir() if p.name.startswith(".tmp-")]
    assert not leftovers


def test_torn_file_write_is_not_imported(tmp_path):
    """A truncate at worktree.write leaves a temp file no later load imports."""
    root = tmp_path / "wc"
    _rewind_clock()
    root.mkdir()
    _steps("pack")[0](root)
    repo = load_repository(root)
    repo.write_file("/a.txt", "alpha torn\n")
    faults.reset()  # zero the hit counters step 0 advanced
    faults.arm("worktree.write", action="truncate", keep=3)
    with pytest.raises(SimulatedCrash):
        save_repository(repo, root)
    faults.reset()
    assert [path.name for path in root.iterdir() if path.name.startswith(".tmp-a.txt.")]
    repo = load_repository(root)
    assert repo.status().is_clean
    repo.write_file("/c.txt", "gamma\n")
    tree = flatten_tree(repo.store, repo.store.commit_tree(repo.commit("c1", author_name="alice")))
    assert not [path for path in tree if ".tmp-" in path]


@pytest.mark.slow
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_crash_sweep_randomised(tmp_path_factory, data):
    """Hypothesis variant: random storage kind, crash site and hit index."""
    kind = data.draw(st.sampled_from(START_KINDS), label="kind")
    steps = _steps(kind)
    base = tmp_path_factory.mktemp("sweep")
    faults.reset()
    expected, disks = _run(base / "dry", steps)
    profile = {name: count for name, count in faults.all_hits().items() if count}
    failpoint = data.draw(st.sampled_from(sorted(profile)), label="failpoint")
    hit = data.draw(st.integers(1, profile[failpoint]), label="hit")

    root = base / "armed"
    faults.reset()
    faults.arm(failpoint, action="crash", at=hit)
    completed = 0
    try:
        _rewind_clock()
        root.mkdir()
        for step in steps:
            step(root)
            completed += 1
            _snapshot(root)
    except SimulatedCrash:
        pass
    finally:
        faults.reset()
    _assert_whole_files(root, completed, disks)
    _assert_recovered(_recover(root), completed, expected)
