"""On-disk persistence of a working copy (``.gitcite/`` and the files).

A working copy managed by ``gitcite`` is an ordinary directory of files
plus a ``.gitcite/`` metadata directory holding the serialised repository
state:

* ``state.json`` — repository identity, the reference store (branches,
  tags, HEAD) and the storage layout in use;
* the object store, whose location depends on the layout:

  - ``memory`` — objects embedded in ``state.json`` (type + base64
    payload per object; the seed's original format, still read and
    written);
  - ``loose`` — one compressed file per object under ``.gitcite/objects/``;
  - ``pack``  — delta-compressed pack files under ``.gitcite/pack/``;

* the working tree is the directory itself (``.gitcite/`` excluded),
  imported on load and exported on checkout, so users see and edit normal
  files while the citation machinery keeps its history next to them.

This is not CLI logic: the hub's durability recovery replays journals
through it and ``Repository.load`` bootstraps from it, and neither may
import *upward* into the entry-point layer (the ``layering`` analysis rule
pins that).  The ``gitcite storage`` subcommands live in
:mod:`repro.cli.storage`.

Errors surface as :class:`~repro.errors.CLIError` — the operator-facing
"the working copy on disk is unusable" error — which lives in the
foundation error tree, not the CLI package.
"""

from __future__ import annotations

import base64
import os
import shutil
from pathlib import Path

from repro.errors import CLIError, StorageError
from repro.utils import atomicio
from repro.utils.jsonutil import pretty_dumps, stable_loads
from repro.vcs.ignore import IgnoreRules
from repro.vcs.repository import Repository
from repro.vcs.storage import MemoryBackend, backend_kinds, make_backend
from repro.vcs.worktree import export_worktree, import_worktree

__all__ = [
    "STATE_DIR",
    "STATE_FILE",
    "backend_root",
    "is_working_copy",
    "save_repository",
    "load_repository",
    "switch_storage",
    "reachable_from_refs",
]

STATE_DIR = ".gitcite"
STATE_FILE = "state.json"

#: Subdirectory of ``STATE_DIR`` holding each persistent layout's objects.
_BACKEND_SUBDIRS = {"loose": "objects", "pack": "pack"}


def _state_path(directory: str | os.PathLike[str]) -> Path:
    return Path(directory) / STATE_DIR / STATE_FILE


def backend_root(directory: str | os.PathLike[str], kind: str) -> Path:
    """Where a working copy keeps its objects for a persistent layout."""
    return Path(directory) / STATE_DIR / _BACKEND_SUBDIRS[kind]


def is_working_copy(directory: str | os.PathLike[str]) -> bool:
    """Whether ``directory`` contains a gitcite working copy."""
    return _state_path(directory).is_file()


def _checked_kind(kind: str) -> str:
    if kind not in backend_kinds():
        raise CLIError(f"unknown storage layout {kind!r}; expected one of {backend_kinds()}")
    return kind


def _migrate_layout(
    repo: Repository, directory: str | os.PathLike[str], kind: str
) -> tuple[int, Path | None]:
    """Copy the object store into layout ``kind`` under the working copy.

    Returns ``(objects moved, stale directory or None)``.  The old layout's
    directory is *not* removed here: the caller must delete it only after the
    state file records the new layout, so a crash mid-switch never leaves
    ``state.json`` pointing at a layout whose objects are already gone.
    """
    kind = _checked_kind(kind)
    backend = repo.store.backend
    target_root = None if kind == "memory" else backend_root(directory, kind).resolve()
    if backend.kind == kind:
        # Resolve both sides: the same physical directory may be reached via
        # different path spellings (relative vs absolute, symlinks), and a
        # false mismatch here would "migrate" the store onto itself and then
        # delete it as the old layout.
        if kind == "memory" or Path(backend.root).resolve() == target_root:
            return 0, None
    old_backend = backend
    if kind == "memory":
        new_backend = MemoryBackend()
    else:
        new_backend = make_backend(kind, backend_root(directory, kind))
    try:
        moved = repo.store.migrate_backend(new_backend)
    except StorageError as exc:
        raise CLIError(str(exc)) from exc
    # The previous layout's files are stale if they lived inside this working
    # copy — but never when old and new layouts share the physical directory.
    old_root = getattr(old_backend, "root", None)
    if old_root is not None:
        old_root = Path(old_root).resolve()
        metadata_dir = Path(directory) / STATE_DIR
        if metadata_dir.resolve() in old_root.parents and old_root != target_root:
            old_backend.close()
            return moved, old_root
    return moved, None


def _write_state(repo: Repository, root: Path, kind: str) -> Path:
    """Write ``state.json`` recording layout ``kind`` (objects embedded for memory)."""
    state_path = _state_path(root)
    state_path.parent.mkdir(parents=True, exist_ok=True)
    state = {
        "version": 2,
        "storage": kind,
        "name": repo.name,
        "owner": repo.owner,
        "description": repo.description,
        "default_branch": repo.refs.default_branch,
        "head_branch": repo.refs.head_branch,
        "head_oid": repo.refs.head_commit() if repo.refs.is_detached else None,
        "branches": repo.refs.branches,
        "tags": repo.refs.tags,
    }
    if kind == "memory":
        state["objects"] = {
            oid: {
                "type": repo.store.get_type(oid),
                "payload": base64.b64encode(repo.store.backend.read(oid)[1]).decode("ascii"),
            }
            for oid in repo.store.object_ids()
        }
    # state.json is the working copy's source of truth (for the memory
    # layout it *is* the object store) — the write must be crash-atomic and
    # durable: temp + rename so no reader ever sees a torn file, fsync so a
    # power cut after "saved" cannot roll the refs (or the objects) back.
    atomicio.atomic_write_text(
        state_path, pretty_dumps(state) + "\n",
        durable=True, failpoint="state.save",
    )
    return state_path


def switch_storage(repo: Repository, directory: str | os.PathLike[str], kind: str) -> int:
    """Migrate ``repo``'s object store to ``kind`` and persist the switch.

    Objects are copied into the new layout, the store keeps its identity
    (live caches and references stay valid), the state file is rewritten to
    record the new layout, and only then is the previous layout's directory
    under ``.gitcite/`` removed.  Returns the number of objects actually
    copied (0 when already on the target layout — or when a crash-interrupted
    earlier switch already moved them and only the state record was missing).
    """
    moved, stale_root = _migrate_layout(repo, directory, kind)
    repo.store.flush()
    _write_state(repo, Path(directory), _checked_kind(kind))
    if stale_root is not None:
        shutil.rmtree(stale_root, ignore_errors=True)
    return moved


def save_repository(repo: Repository, directory: str | os.PathLike[str],
                    export_files: bool = True, storage: str | None = None) -> Path:
    """Serialise repository state under ``directory``/.gitcite and export the worktree.

    ``storage`` selects the on-disk layout (default: whatever the repository's
    store already uses); a differing layout triggers an in-place migration.
    """
    root = Path(directory)
    kind = _checked_kind(storage or repo.store.backend.kind)
    _, stale_root = _migrate_layout(repo, root, kind)
    repo.store.flush()
    state_path = _write_state(repo, root, kind)
    # Only now — with the state file recording the new layout (and, for
    # memory, embedding the objects) — is the old layout safe to delete.
    if stale_root is not None:
        shutil.rmtree(stale_root, ignore_errors=True)
    if export_files:
        export_worktree(repo, root)
    return state_path


def load_repository(directory: str | os.PathLike[str],
                    storage: str | None = None) -> Repository:
    """Reconstruct a repository from ``directory``/.gitcite plus the on-disk files.

    ``storage`` optionally overrides the layout recorded in the state file;
    the object store is migrated immediately and the state file updated, so
    the working copy on disk never straddles two layouts.
    """
    root = Path(directory)
    state_path = _state_path(root)
    if not state_path.is_file():
        raise CLIError(
            f"{root} is not a gitcite working copy (no {STATE_DIR}/{STATE_FILE}); run 'gitcite init'"
        )
    # A crashed earlier save can leave a torn ``.tmp-*`` next to state.json;
    # the rename never happened, so the file is garbage by construction.
    atomicio.sweep_orphan_tmp(state_path.parent)
    try:
        state = stable_loads(state_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CLIError(f"corrupt gitcite state file: {exc}") from exc

    stored_kind = _checked_kind(state.get("storage", "memory"))
    if stored_kind == "memory":
        backend_spec = None
    else:
        try:
            backend_spec = make_backend(stored_kind, backend_root(root, stored_kind))
        except StorageError as exc:
            raise CLIError(str(exc)) from exc

    repo = Repository.init(
        name=state["name"],
        owner=state["owner"],
        default_branch=state.get("default_branch", "main"),
        description=state.get("description", ""),
        storage=backend_spec,
    )
    if stored_kind == "memory":
        from repro.vcs.objects import deserialize_object

        for oid, record in state.get("objects", {}).items():
            obj = deserialize_object(record["type"], base64.b64decode(record["payload"]))
            stored = repo.store.put(obj)
            if stored != oid:
                raise CLIError(f"object {oid} failed its integrity check on load")
    for name, oid in state.get("branches", {}).items():
        repo.refs.set_branch(name, oid)
    for name, oid in state.get("tags", {}).items():
        repo.refs.set_tag(name, oid)
    if state.get("head_branch"):
        repo.refs.attach_head(state["head_branch"])
    elif state.get("head_oid"):
        repo.refs.detach_head(state["head_oid"])

    # The index mirrors HEAD; the working tree is whatever is on disk now.
    head = repo.head_oid()
    if head is not None:
        repo.index.read_tree(repo.store, repo.store.get_commit(head).tree_oid)
    import_worktree(repo, root, ignore=IgnoreRules(), replace=True)
    if storage is not None and _checked_kind(storage) != stored_kind:
        save_repository(repo, root, export_files=False, storage=storage)
    return repo


# ---------------------------------------------------------------------------
# Reachability (shared by gc)
# ---------------------------------------------------------------------------


def reachable_from_refs(repo: Repository) -> set[str]:
    """Every object id reachable from any branch, tag or a detached HEAD.

    One shared walk over all tips: commits, trees and blobs already visited
    for one branch are never re-walked for another, so gc over B branches of
    a mostly shared history costs one traversal, not B.
    """
    keep: set[str] = set()

    def add_tree(tree_oid: str) -> None:
        if tree_oid in keep:
            return
        keep.add(tree_oid)
        for entry in repo.store.get_tree(tree_oid).entries:
            if entry.is_directory:
                add_tree(entry.oid)
            else:
                keep.add(entry.oid)

    tips = set(repo.refs.branches.values()) | set(repo.refs.tags.values())
    head = repo.head_oid()
    if head:
        tips.add(head)
    frontier = [tip for tip in tips if tip in repo.store]
    while frontier:
        oid = frontier.pop()
        if oid in keep:
            continue
        keep.add(oid)
        commit = repo.store.get_commit(oid)
        add_tree(commit.tree_oid)
        frontier.extend(parent for parent in commit.parent_oids if parent not in keep)
    # Annotated tag objects stay alive as long as their target does.
    for oid in repo.store.iter_oids():
        if repo.store.get_type(oid) == "tag" and repo.store.get_tag(oid).object_oid in keep:
            keep.add(oid)
    return keep
