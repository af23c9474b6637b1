"""Moving a working copy's files on disk and reading them back.

The local executable tool of the paper operates on a checked-out copy of the
project on the user's machine.  Every write and every removal of such a file
goes through one mover:

* :func:`move_files` moves a directory's files from one ``{path: blob oid}``
  side to another, touching only the paths that differ (each save of a
  working copy, :func:`repro.vcs.workingcopy.save_repository`);
* :func:`checkout_files` moves them from one committed tree to another
  (checkout, unbundle and a served hub's checkpoints).

Reading a directory back is :func:`import_worktree`, which replaces a
repository's working tree with the files on disk (honouring ignore rules).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import VCSError
from repro.utils import atomicio
from repro.utils.paths import normalize_path
from repro.vcs.diff import diff_trees
from repro.vcs.ignore import IgnoreRules
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import Blob
from repro.vcs.repository import Repository

__all__ = ["move_files", "checkout_files", "import_worktree"]


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


def move_files(
    destination: str | os.PathLike[str],
    changes: Iterable[tuple[str, str | None, str | None]],
    read: Callable[[str, str], bytes],
) -> list[str]:
    """Move the files under ``destination`` by ``(path, old oid, new oid)`` changes.

    ``None`` is an absent file; ``read(path, new_oid)`` gives the new bytes.
    Files are written crash-atomically and durably, and deletions also
    remove the directories they empty.  A path already at its new oid is
    done, so a repeated move converges.  One whose disk state is neither
    side's (a local edit, or an untracked file in the way) is left alone and
    returned, sorted.
    """
    root = Path(destination)
    kept: list[str] = []
    unlinked: set[Path] = set()
    # Deletions first: a file may replace a directory they leave empty.
    for path, old_oid, new_oid in sorted(changes, key=lambda change: change[2] is not None):
        target = _target_path(root, path)
        try:
            on_disk = Blob(target.read_bytes()).oid
        except (FileNotFoundError, NotADirectoryError):
            on_disk = None
        except IsADirectoryError:
            on_disk = "directory"  # equals no blob oid
        if on_disk == new_oid:
            continue
        if on_disk != old_oid:
            kept.append(path)
        elif new_oid is None:
            unlinked.add(_unlink_and_prune(root, target))
        else:
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):
                kept.append(path)  # a local file sits where a directory must go
                continue
            atomicio.atomic_write_bytes(
                target, read(path, new_oid), durable=True, failpoint="worktree.write"
            )
    for directory in unlinked:
        atomicio.fsync_directory(directory)
    return sorted(kept)


def checkout_files(
    store: ObjectStore,
    destination: str | os.PathLike[str],
    old_tree: str | None,
    new_tree: str | None,
) -> list[str]:
    """Move the files under ``destination`` from tree ``old_tree`` to ``new_tree``.

    Only the paths :func:`~repro.vcs.diff.diff_trees` reports go through
    :func:`move_files`; equal trees return at once.  ``None`` is the empty
    tree.  Returns the paths kept for local changes.
    """
    if old_tree == new_tree:
        return []
    entries = diff_trees(store, old_tree, new_tree, detect_renames=False).entries
    return move_files(
        destination,
        [(entry.path, entry.old_oid, entry.new_oid) for entry in entries],
        lambda path, oid: store.get_blob(oid).data,
    )


def import_worktree(repo: Repository, source: str | os.PathLike[str]) -> list[str]:
    """Replace the repository's working tree with a directory's files.

    The working tree and the index are cleared first, so files deleted on
    disk disappear from the next commit; the default ignore rules apply, and
    a write that died before its rename left only a temp file, which is
    skipped.  Returns the sorted repository paths imported.
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
            if not rules.matches(f"{prefix}/{name}") and not atomicio.is_tmp_name(name):
                collected[f"{prefix}/{name}"] = (Path(dirpath) / name).read_bytes()
    # One batched write: the filesystem already keeps the imported set free
    # of file/directory clashes.
    return repo.write_files(collected)
