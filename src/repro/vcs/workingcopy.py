"""On-disk persistence of a working copy (``.gitcite/`` and the files).

A working copy managed by ``gitcite`` is an ordinary directory of files
plus a ``.gitcite/`` metadata directory holding the serialised repository
state:

* ``state.json`` — repository identity and the reference store (branches,
  tags, HEAD), recording ``"storage": "pack"``;
* ``pack/`` — the object store as delta-compressed pack files, the one
  layout every save writes;
* the working tree is the directory itself (``.gitcite/`` excluded), so
  users see and edit normal files while the citation machinery keeps its
  history next to them.  :func:`load_repository` imports every file and
  remembers its blob oid as the directory's *manifest*; a save writes only
  the files whose oid changed since then, removes the ones deleted, and
  leaves alone (and reports as ``kept local changes``) a file edited on
  disk in the meantime.

Copies written by older releases may use one of two legacy layouts, which
:func:`load_repository` still reads into an in-memory store:

* ``memory`` — every object embedded in ``state.json`` (type + base64
  payload);
* ``loose`` — one compressed file per object under ``.gitcite/objects/``.

The next :func:`save_repository` converts such a copy to packs, deleting
``objects/`` only once the new ``state.json`` is durable.

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
import weakref
from pathlib import Path

from repro.errors import CLIError, VCSError
from repro.utils import atomicio
from repro.utils.jsonutil import pretty_dumps, stable_loads
from repro.vcs.objects import deserialize_object
from repro.vcs.repository import Repository
from repro.vcs.storage import PackBackend
from repro.vcs.storage.loose import decode_loose_object, loose_object_files
from repro.vcs.worktree import checkout_files, import_worktree, move_files

__all__ = [
    "STATE_DIR",
    "STATE_FILE",
    "is_working_copy",
    "save_repository",
    "save_checkout",
    "load_bare",
    "load_repository",
    "reachable_from_refs",
]

STATE_DIR = ".gitcite"
STATE_FILE = "state.json"
#: Subdirectories of ``STATE_DIR``: the pack store and the legacy loose one.
_PACK_DIR = "pack"
_LOOSE_DIR = "objects"

#: ``{repository: {resolved directory: {path: blob oid}}}``: what each
#: directory's files held when this process last read or wrote them.  Kept
#: here rather than on the worktree, which a checkout replaces wholesale.
_manifests: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _record_manifest(repo: Repository, directory: Path, manifest: dict[str, str]) -> None:
    _manifests.setdefault(repo, {})[directory.resolve()] = manifest


def _worktree_oids(repo: Repository) -> dict[str, str]:
    worktree = repo.worktree
    return {path: worktree.fingerprint(path) for path in worktree}


def _state_path(directory: str | os.PathLike[str]) -> Path:
    return Path(directory) / STATE_DIR / STATE_FILE


def is_working_copy(directory: str | os.PathLike[str]) -> bool:
    """Whether ``directory`` contains a gitcite working copy."""
    return _state_path(directory).is_file()


def _write_state(repo: Repository, root: Path) -> None:
    """Write ``state.json``: identity, refs and the pack layout record."""
    state_path = _state_path(root)
    state_path.parent.mkdir(parents=True, exist_ok=True)
    state = {
        "version": 2,
        "storage": "pack",
        "name": repo.name,
        "owner": repo.owner,
        "description": repo.description,
        "default_branch": repo.refs.default_branch,
        "head_branch": repo.refs.head_branch,
        "head_oid": repo.refs.head_commit() if repo.refs.is_detached else None,
        "branches": repo.refs.branches,
        "tags": repo.refs.tags,
    }
    # state.json is the working copy's source of truth for the refs — the
    # write must be crash-atomic and durable: temp + rename so no reader ever
    # sees a torn file, fsync so a power cut after "saved" cannot roll the
    # refs back.
    atomicio.atomic_write_text(
        state_path, pretty_dumps(state) + "\n",
        durable=True, failpoint="state.save",
    )


def _save_state(repo: Repository, root: Path, manifest: dict[str, str]) -> None:
    """The state half of a save, run once the files are in place.

    A store that is not yet this working copy's pack store (in memory,
    loaded from a legacy copy, or packed elsewhere) is migrated into
    ``.gitcite/pack/`` first; then ``state.json`` is written, and
    ``manifest`` becomes what this process knows ``root``'s files hold.
    """
    pack_root = root / STATE_DIR / _PACK_DIR
    backend = repo.store.backend
    # Resolve both sides: the same directory may be reached via different
    # path spellings (relative vs absolute, symlinks), and a false mismatch
    # would "migrate" the store onto itself.
    if backend.kind != "pack" or Path(backend.root).resolve() != pack_root.resolve():
        try:
            repo.store.migrate_backend(PackBackend(pack_root))
        except VCSError as exc:
            raise CLIError(str(exc)) from exc
    repo.store.flush()
    _write_state(repo, root)
    # Only now — with state.json recording the pack layout — is a legacy
    # loose directory safe to delete.
    legacy_root = root / STATE_DIR / _LOOSE_DIR
    if legacy_root.is_dir():
        shutil.rmtree(legacy_root, ignore_errors=True)
    _record_manifest(repo, root, manifest)


def save_repository(repo: Repository, directory: str | os.PathLike[str]) -> list[str]:
    """Save ``repo``'s worktree as ``directory``'s files, then its state.

    Only the files whose blob oid differs from the directory's manifest
    move, through :func:`~repro.vcs.worktree.move_files`; a directory this
    process holds no manifest for counts as empty, so only its files not
    already at their new bytes are written.  Files go first and
    ``state.json`` next; each file write is atomic, so after a crash every
    file holds its whole old or whole new bytes.  Returns the paths kept
    for local changes: files edited on disk since the manifest was taken.
    """
    root = Path(directory)
    worktree = repo.worktree
    before = _manifests.get(repo, {}).get(root.resolve(), {})
    after = _worktree_oids(repo)
    changes = sorted(
        (path, before.get(path), after.get(path))
        for path in before.keys() | after.keys()
        if before.get(path) != after.get(path)
    )
    kept = move_files(root, changes, lambda path, oid: worktree[path])
    _save_state(repo, root, after)
    return kept


def save_checkout(repo: Repository, directory: str | os.PathLike[str],
                  files_head: str | None) -> list[str]:
    """Move ``directory``'s files from ``files_head``'s tree to HEAD's, then save.

    Only the files that differ move (:func:`~repro.vcs.worktree.checkout_files`);
    the "before" side is the tree, not a manifest, so a local edit of a file
    the move changes is kept.  Files go first and ``state.json`` next: after
    a crash between the two the old refs sit over files the next move counts
    as done.  Returns the paths kept for local changes.
    """
    store = repo.store
    head = repo.head_oid()
    kept = checkout_files(store, directory, store.commit_tree(files_head) if files_head else None,
                          store.commit_tree(head) if head else None)
    _save_state(repo, Path(directory), _worktree_oids(repo))
    return kept


def _legacy_objects(root: Path, state: dict, kind: str):
    """``(oid, type, payload)`` for every object a legacy ``kind`` copy holds."""
    if kind == "memory":
        for oid, record in state.get("objects", {}).items():
            yield oid, record["type"], base64.b64decode(record["payload"], validate=True)
    else:
        for oid, path in loose_object_files(root / STATE_DIR / _LOOSE_DIR):
            yield (oid, *decode_loose_object(path.read_bytes()))


def _oid(value, what: str) -> str:
    if not (isinstance(value, str) and len(value) == 40 and set(value) <= set("0123456789abcdef")):
        raise ValueError(f"{what} is not an object id: {value!r}")
    return value


def _repository_from_state(root: Path, state: dict) -> Repository:
    kind = state.get("storage", "memory")
    if kind not in ("memory", "loose", "pack"):
        raise CLIError(f"unknown storage layout {kind!r} in {STATE_DIR}/{STATE_FILE}")
    repo = Repository.init(
        name=state["name"],
        owner=state["owner"],
        default_branch=state.get("default_branch", "main"),
        description=state.get("description", ""),
        storage=PackBackend(root / STATE_DIR / _PACK_DIR) if kind == "pack" else None,
    )
    if kind != "pack":
        for oid, type_name, payload in _legacy_objects(root, state, kind):
            if repo.store.put(deserialize_object(type_name, payload)) != oid:
                raise CLIError(f"object {oid} failed its integrity check on load")
    for name, oid in state.get("branches", {}).items():
        repo.refs.set_branch(name, _oid(oid, f"branch {name!r}"))
    for name, oid in state.get("tags", {}).items():
        repo.refs.set_tag(name, _oid(oid, f"tag {name!r}"))
    if state.get("head_branch"):
        repo.refs.attach_head(state["head_branch"])
    elif state.get("head_oid") is not None:
        repo.refs.detach_head(_oid(state["head_oid"], "head_oid"))
    if repo.head_oid() is not None:
        repo.store.commit_tree(repo.head_oid())  # the head must name a stored commit
    return repo


def load_bare(directory: str | os.PathLike[str]) -> Repository:
    """Reconstruct a repository's refs and objects from ``directory``/.gitcite.

    The directory's files are not read: the worktree and index stay empty,
    as in a bare repository.  A pack copy opens its pack store; a legacy
    ``memory`` or ``loose`` copy is read, every object re-hashed, into an
    in-memory store that the next save converts.  A malformed ``state.json``
    or legacy object raises :class:`~repro.errors.CLIError`.
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
        if not isinstance(state, dict):
            raise ValueError("not a JSON object")
        return _repository_from_state(root, state)
    except (KeyError, TypeError, ValueError, AttributeError, OSError, VCSError) as exc:
        raise CLIError(f"cannot load the working copy from {state_path}: {exc!r}") from exc


def load_repository(directory: str | os.PathLike[str]) -> Repository:
    """:func:`load_bare` plus the working tree, which is whatever is on disk now.

    Each file's blob oid is recorded as the directory's manifest: the
    "before" side of the next :func:`save_repository`.
    """
    repo = load_bare(directory)
    import_worktree(repo, directory)
    _record_manifest(repo, Path(directory), _worktree_oids(repo))
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
