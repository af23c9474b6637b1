"""Materialising repositories on disk and reading them back.

The local executable tool of the paper operates on a checked-out copy of the
project on the user's machine.  These helpers bridge the in-memory
:class:`~repro.vcs.repository.Repository` working tree and a real directory:

* :func:`export_worktree` writes the current working tree to a directory;
* :func:`import_worktree` replaces the working tree with a directory's
  content (honouring ignore rules);
* :func:`checkout_files` moves a directory's files from one committed tree
  to another (checkout, unbundle and a served hub's checkpoints);
* :func:`remove_files` deletes given files and the directories they empty
  (the old side of ``gitcite mv``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import VCSError
from repro.utils import atomicio
from repro.utils.paths import normalize_path
from repro.vcs.diff import diff_trees
from repro.vcs.ignore import IgnoreRules
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import Blob
from repro.vcs.repository import Repository

__all__ = ["export_worktree", "import_worktree", "checkout_files", "remove_files"]


def _target_path(root: Path, repo_path: str) -> Path:
    relative = normalize_path(repo_path)[1:]
    return root / Path(relative)


def _unlink_and_prune(root: Path, target: Path) -> Path:
    """Unlink ``target`` and the directories that leaves empty below ``root``.

    Returns the first directory kept: the one whose entry list changed.
    """
    target.unlink()
    parent = target.parent
    while parent != root and not any(parent.iterdir()):
        parent.rmdir()
        parent = parent.parent
    return parent


def remove_files(destination: str | os.PathLike[str], paths) -> None:
    """Delete the files at repository ``paths`` and the directories they empty.

    A path already gone is skipped; any other file (an untracked one
    included) keeps itself and its directories.
    """
    root = Path(destination)
    unlinked: set[Path] = set()
    for path in paths:
        try:
            unlinked.add(_unlink_and_prune(root, _target_path(root, path)))
        except FileNotFoundError:
            continue
    for directory in unlinked:
        atomicio.fsync_directory(directory)


def export_worktree(repo: Repository, destination: str | os.PathLike[str]) -> list[str]:
    """Write the repository's working tree under ``destination``.

    Returns the list of repository paths written.  Existing files are
    overwritten; files present on disk but absent from the working tree are
    left alone (use a fresh directory for a clean export).
    """
    root = Path(destination)
    root.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    # The indexed worktree iterates in sorted path order already.
    for repo_path, data in repo.worktree.items():
        target = _target_path(root, repo_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
        written.append(repo_path)
    return written


def checkout_files(
    store: ObjectStore,
    destination: str | os.PathLike[str],
    old_tree: str | None,
    new_tree: str | None,
) -> list[str]:
    """Move the files under ``destination`` from tree ``old_tree`` to ``new_tree``.

    Only paths :func:`~repro.vcs.diff.diff_trees` reports are touched: files
    are written crash-atomically and durably, and deletions also remove the
    directories they empty.  A path already at ``new_tree``'s bytes is done,
    so a repeated move converges.  One whose disk state is neither tree's (a
    local edit, or an untracked file in the way) is left alone and returned,
    sorted.  ``None`` is the empty tree.
    """
    root = Path(destination)
    kept: list[str] = []
    if old_tree == new_tree:
        return kept
    unlinked: set[Path] = set()
    entries = diff_trees(store, old_tree, new_tree, detect_renames=False).entries
    # Deletions first: a file may replace a directory they leave empty.
    for entry in sorted(entries, key=lambda entry: entry.new_oid is not None):
        target = _target_path(root, entry.path)
        try:
            on_disk = Blob(target.read_bytes()).oid
        except (FileNotFoundError, NotADirectoryError):
            on_disk = None
        except IsADirectoryError:
            on_disk = "directory"  # equals no blob oid
        if on_disk == entry.new_oid:
            continue
        if on_disk != entry.old_oid:
            kept.append(entry.path)
        elif entry.new_oid is None:
            unlinked.add(_unlink_and_prune(root, target))
        else:
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):
                kept.append(entry.path)  # a local file sits where a directory must go
                continue
            atomicio.atomic_write_bytes(target, store.get_blob(entry.new_oid).data, durable=True)
    for directory in unlinked:
        atomicio.fsync_directory(directory)
    return sorted(kept)


def import_worktree(repo: Repository, source: str | os.PathLike[str]) -> list[str]:
    """Replace the repository's working tree with a directory's files.

    The working tree and the index are cleared first, so files deleted on
    disk disappear from the next commit; the default ignore rules apply.
    Returns the sorted repository paths imported.
    """
    root = Path(source)
    if not root.is_dir():
        raise VCSError(f"not a directory: {root}")
    rules = IgnoreRules()
    repo.worktree.clear()
    repo.index.clear()
    # A wholesale replacement, exactly like a checkout: holders of
    # deferred worktree-derived state must discard it, not flush it.
    repo._notify_worktree_reload()
    collected: dict[str, bytes] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        prefix = Path(dirpath).relative_to(root).as_posix()
        prefix = "" if prefix == "." else "/" + prefix
        # Prune ignored directories in place so os.walk skips them.
        dirnames[:] = [name for name in dirnames
                       if not rules.matches(f"{prefix}/{name}", is_directory=True)]
        for name in filenames:
            if not rules.matches(f"{prefix}/{name}"):
                collected[f"{prefix}/{name}"] = (Path(dirpath) / name).read_bytes()
    # One batched write: the filesystem already keeps the imported set free
    # of file/directory clashes.
    return repo.write_files(collected)
