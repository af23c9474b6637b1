"""Propagating file and directory renames into the citation function.

Section 2 of the paper: *"if a file or directory in the active domain of the
citation function is moved or renamed then the citation function must be
modified to reflect the file or directory's path in the new version."*

Renames arrive from two sources:

* explicit move operations performed through the manager or the CLI, which
  know the old and new paths directly; and
* a :class:`~repro.vcs.diff.TreeDiff` between two versions, whose rename
  detection pairs deleted paths with added paths.

Both reduce to :func:`propagate_renames`, which also infers *directory*
renames from the file renames it is given (moving ``/old/a.py → /new/a.py``
and ``/old/b.py → /new/b.py`` should carry a citation attached to ``/old``
over to ``/new``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.citation.function import CitationFunction
from repro.errors import InvalidPathError
from repro.utils.paths import ROOT, path_parent, relative_to
from repro.vcs.diff import TreeDiff

__all__ = ["RenamePropagation", "propagate_renames", "propagate_diff"]


@dataclass
class RenamePropagation:
    """Which citation entries moved as a result of rename propagation."""

    moved: dict[str, str] = field(default_factory=dict)
    directory_moves: dict[str, str] = field(default_factory=dict)


def _infer_directory_moves(renames: Mapping[str, str]) -> dict[str, str]:
    """Infer directory-level moves implied by a set of file renames.

    A directory ``D`` is considered moved to ``D'`` when every renamed file
    under ``D`` kept its relative path under ``D'``.  Only the deepest common
    pattern is needed: citations attached to any ancestor directory whose
    entire renamed content moved consistently should follow.
    """
    candidates: dict[str, set[str]] = {}
    for old_path, new_path in renames.items():
        old_parent = path_parent(old_path)
        while old_parent != ROOT:
            try:
                suffix = relative_to(old_path, old_parent)
            except InvalidPathError:  # pragma: no cover - defensive, old_parent is an ancestor by construction
                break
            if new_path.endswith("/" + suffix):
                new_parent = new_path[: -(len(suffix) + 1)] or ROOT
                candidates.setdefault(old_parent, set()).add(new_parent)
            else:
                candidates.setdefault(old_parent, set()).add("")  # inconsistent
            old_parent = path_parent(old_parent)
    moves: dict[str, str] = {}
    for old_dir, targets in candidates.items():
        targets.discard("")
        if len(targets) == 1:
            target = next(iter(targets))
            if target != old_dir and target != ROOT:
                moves[old_dir] = target
    return moves


def propagate_renames(
    function: CitationFunction,
    renames: Mapping[str, str],
    infer_directories: bool = True,
) -> RenamePropagation:
    """Apply ``{old path: new path}`` renames to the citation function in place."""
    result = RenamePropagation()
    for old_path, new_path in sorted(renames.items()):
        if function.rename(old_path, new_path):
            result.moved[old_path] = new_path
    if infer_directories:
        directory_moves = _infer_directory_moves(renames)
        for old_dir, new_dir in sorted(directory_moves.items()):
            entry = function.entry(old_dir)
            if entry is None:
                continue
            # Only move the directory entry itself; entries below it that were
            # explicitly renamed have been handled above, and entries that were
            # not renamed still refer to files at their old location.
            if function.rename(old_dir, new_dir):
                result.moved[old_dir] = new_dir
                result.directory_moves[old_dir] = new_dir
    return result


def propagate_diff(function: CitationFunction, diff: TreeDiff) -> RenamePropagation:
    """Propagate the renames detected by a tree diff into the citation function."""
    return propagate_renames(function, diff.renames())
