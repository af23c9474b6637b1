"""Merge-base computation and three-way merges.

Branch merges are the operation the paper's MergeCite extends: Git's regular
conflict-resolution rules are applied to ordinary files, while the citation
file is handled separately by the citation layer.  This module provides the
"ordinary files" half:

* :func:`find_merge_base` — the lowest common ancestor of two commits in the
  commit DAG (the *base* of a three-way merge);
* :func:`merge_blobs` — a line-oriented three-way content merge (classic
  diff3) that inserts conflict markers when both sides touched the same
  region;
* :func:`merge_trees` — a path-by-path three-way merge of two trees against a
  base tree, producing a merged file map plus the list of conflicted paths.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Optional

from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import Blob
from repro.vcs.treeops import flatten_files

__all__ = [
    "MergeResult",
    "BlobMergeResult",
    "find_merge_base",
    "commit_ancestors",
    "is_ancestor_commit",
    "merge_blobs",
    "merge_trees",
]

CONFLICT_MARKER_OURS = "<<<<<<< ours"
CONFLICT_MARKER_BASE = "||||||| base"
CONFLICT_MARKER_SEP = "======="
CONFLICT_MARKER_THEIRS = ">>>>>>> theirs"


# ---------------------------------------------------------------------------
# Commit-graph queries
# ---------------------------------------------------------------------------


def commit_ancestors(store: ObjectStore, commit_oid: str, include_self: bool = True) -> dict[str, int]:
    """Return every ancestor of ``commit_oid`` mapped to its minimum DAG depth."""
    depths: dict[str, int] = {}
    frontier: list[tuple[str, int]] = [(commit_oid, 0)]
    while frontier:
        oid, depth = frontier.pop()
        known = depths.get(oid)
        if known is not None and known <= depth:
            continue
        depths[oid] = depth
        for parent in store.commit_parents(oid):
            frontier.append((parent, depth + 1))
    if not include_self:
        depths.pop(commit_oid, None)
    return depths


def is_ancestor_commit(store: ObjectStore, ancestor_oid: str, descendant_oid: str) -> bool:
    """Return whether ``ancestor_oid`` is reachable from ``descendant_oid``.

    The walk stops as soon as it reaches ``ancestor_oid``, so the
    fast-forward check behind every ref CAS costs the distance between the
    two tips rather than the whole history.
    """
    seen: set[str] = set()
    frontier = [descendant_oid]
    while frontier:
        oid = frontier.pop()
        if oid in seen:
            continue
        seen.add(oid)
        parents = store.commit_parents(oid)  # raises for a missing commit
        if oid == ancestor_oid:
            return True
        frontier.extend(parents)
    return False


def find_merge_base(store: ObjectStore, oid_a: str, oid_b: str) -> Optional[str]:
    """Return the best common ancestor of two commits (``None`` if unrelated).

    Among all common ancestors the one with the smallest combined distance to
    the two tips is selected, which matches the intuitive "most recent common
    ancestor" for the branch shapes exercised by the citation workloads.
    """
    ancestors_a = commit_ancestors(store, oid_a)
    ancestors_b = commit_ancestors(store, oid_b)
    common = set(ancestors_a) & set(ancestors_b)
    if not common:
        return None
    return min(common, key=lambda oid: (ancestors_a[oid] + ancestors_b[oid], ancestors_a[oid], oid))


# ---------------------------------------------------------------------------
# Blob-level three-way merge (classic diff3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlobMergeResult:
    """Outcome of merging one file's content."""

    data: bytes
    has_conflict: bool


def _match_map(base: list[str], side: list[str]) -> dict[int, int]:
    """Map base line indices to matching side line indices (LCS alignment)."""
    matcher = difflib.SequenceMatcher(a=base, b=side, autojunk=False)
    mapping: dict[int, int] = {}
    for block in matcher.get_matching_blocks():
        for offset in range(block.size):
            mapping[block.a + offset] = block.b + offset
    return mapping


def _merge_lines(
    base: list[str], ours: list[str], theirs: list[str]
) -> tuple[list[str], bool]:
    """Classic diff3 over line lists.

    The three sequences are walked in parallel.  Runs where both sides agree
    with the base are copied through; between such runs the three chunks are
    compared — if only one side changed, its chunk wins; if both changed
    identically, the change is taken once; otherwise a conflict block with
    Git-style markers is emitted.
    """
    match_ours = _match_map(base, ours)
    match_theirs = _match_map(base, theirs)

    merged: list[str] = []
    conflict = False
    lb = lo = lt = 0
    len_b, len_o, len_t = len(base), len(ours), len(theirs)

    while lb < len_b or lo < len_o or lt < len_t:
        # 1. Copy the maximal stable run (base, ours and theirs all aligned).
        run = 0
        while (
            lb + run < len_b
            and match_ours.get(lb + run) == lo + run
            and match_theirs.get(lb + run) == lt + run
        ):
            run += 1
        if run:
            merged.extend(base[lb : lb + run])
            lb += run
            lo += run
            lt += run
            continue

        # 2. Find the next base line that is matched in both sides at or after
        #    the current side cursors; everything before it is one unstable chunk.
        j = lb
        while j < len_b and not (
            j in match_ours
            and j in match_theirs
            and match_ours[j] >= lo
            and match_theirs[j] >= lt
        ):
            j += 1
        if j < len_b:
            ours_end, theirs_end = match_ours[j], match_theirs[j]
        else:
            ours_end, theirs_end = len_o, len_t

        base_chunk = base[lb:j]
        ours_chunk = ours[lo:ours_end]
        theirs_chunk = theirs[lt:theirs_end]

        if ours_chunk == theirs_chunk:
            merged.extend(ours_chunk)
        elif ours_chunk == base_chunk:
            merged.extend(theirs_chunk)
        elif theirs_chunk == base_chunk:
            merged.extend(ours_chunk)
        else:
            conflict = True
            merged.append(CONFLICT_MARKER_OURS)
            merged.extend(ours_chunk)
            merged.append(CONFLICT_MARKER_BASE)
            merged.extend(base_chunk)
            merged.append(CONFLICT_MARKER_SEP)
            merged.extend(theirs_chunk)
            merged.append(CONFLICT_MARKER_THEIRS)

        lb, lo, lt = j, ours_end, theirs_end

    return merged, conflict


def merge_blobs(
    store: ObjectStore,
    base_oid: Optional[str],
    ours_oid: Optional[str],
    theirs_oid: Optional[str],
) -> BlobMergeResult:
    """Three-way merge of one file's content.

    Trivial cases (one side unchanged, both sides identical) are resolved
    without touching content; otherwise a line-based diff3 merge runs and may
    produce conflict markers.
    """
    if ours_oid == theirs_oid:
        oid = ours_oid if ours_oid is not None else base_oid
        data = store.get_blob(oid).data if oid else b""
        return BlobMergeResult(data=data, has_conflict=False)
    if base_oid == ours_oid and theirs_oid is not None:
        return BlobMergeResult(data=store.get_blob(theirs_oid).data, has_conflict=False)
    if base_oid == theirs_oid and ours_oid is not None:
        return BlobMergeResult(data=store.get_blob(ours_oid).data, has_conflict=False)

    base_blob = store.get_blob(base_oid) if base_oid else Blob(b"")
    ours_blob = store.get_blob(ours_oid) if ours_oid else Blob(b"")
    theirs_blob = store.get_blob(theirs_oid) if theirs_oid else Blob(b"")

    if base_blob.is_binary or ours_blob.is_binary or theirs_blob.is_binary:
        # Binary content cannot be merged line-by-line; keep ours and flag it.
        return BlobMergeResult(data=ours_blob.data, has_conflict=True)

    merged_lines, conflict = _merge_lines(
        base_blob.text().splitlines(),
        ours_blob.text().splitlines(),
        theirs_blob.text().splitlines(),
    )
    text = "\n".join(merged_lines)
    if merged_lines:
        text += "\n"
    return BlobMergeResult(data=text.encode("utf-8"), has_conflict=conflict)


# ---------------------------------------------------------------------------
# Tree-level three-way merge
# ---------------------------------------------------------------------------


@dataclass
class MergeResult:
    """Outcome of a tree-level three-way merge."""

    files: dict[str, bytes] = field(default_factory=dict)
    conflicts: list[str] = field(default_factory=list)
    deleted_paths: list[str] = field(default_factory=list)
    #: Paths whose merged bytes were taken verbatim from an existing blob,
    #: mapped to that blob's oid.  Lets callers prime worktree fingerprints
    #: (no re-hash/re-store of unchanged content) after installing the merge.
    taken_oids: dict[str, str] = field(default_factory=dict)

    @property
    def has_conflicts(self) -> bool:
        return bool(self.conflicts)


def merge_trees(
    store: ObjectStore,
    base_tree_oid: Optional[str],
    ours_tree_oid: str,
    theirs_tree_oid: str,
) -> MergeResult:
    """Merge two trees against their common base.

    The result maps every path present in the merged version to its merged
    content; paths that existed in the base but are absent from the merge are
    reported in ``deleted_paths``.  Same-path edits that cannot be reconciled
    appear in ``conflicts`` (content conflicts carry conflict markers,
    delete/modify conflicts keep the surviving side's content).
    """
    base_files = flatten_files(store, base_tree_oid) if base_tree_oid else {}
    ours_files = flatten_files(store, ours_tree_oid)
    theirs_files = flatten_files(store, theirs_tree_oid)

    result = MergeResult()
    all_paths = sorted(set(base_files) | set(ours_files) | set(theirs_files))
    #: Paths resolved verbatim to an existing blob; their bytes are fetched
    #: in one batched read at the end instead of one ``get_blob`` per path.
    taken: dict[str, str] = {}

    for path in all_paths:
        base_oid = base_files.get(path, (None, None))[0]
        ours_oid = ours_files.get(path, (None, None))[0]
        theirs_oid = theirs_files.get(path, (None, None))[0]

        in_base = path in base_files
        in_ours = path in ours_files
        in_theirs = path in theirs_files

        if not in_ours and not in_theirs:
            if in_base:
                result.deleted_paths.append(path)
            continue

        if in_ours and not in_theirs:
            if not in_base:
                taken[path] = ours_oid
            elif base_oid == ours_oid:
                result.deleted_paths.append(path)  # theirs deleted, ours untouched
            else:
                taken[path] = ours_oid  # modify/delete conflict
                result.conflicts.append(path)
            continue

        if in_theirs and not in_ours:
            if not in_base:
                taken[path] = theirs_oid
            elif base_oid == theirs_oid:
                result.deleted_paths.append(path)  # ours deleted, theirs untouched
            else:
                taken[path] = theirs_oid  # delete/modify conflict
                result.conflicts.append(path)
            continue

        # Present on both sides: the trivial resolutions pick a whole blob.
        if ours_oid == theirs_oid:
            taken[path] = ours_oid
            continue
        if in_base and base_oid == ours_oid:
            taken[path] = theirs_oid  # only theirs changed
            continue
        if in_base and base_oid == theirs_oid:
            taken[path] = ours_oid  # only ours changed
            continue
        if not in_base:
            blob_result = merge_blobs(store, None, ours_oid, theirs_oid)
            result.files[path] = blob_result.data
            result.conflicts.append(path)
            continue

        blob_result = merge_blobs(store, base_oid, ours_oid, theirs_oid)
        result.files[path] = blob_result.data
        if blob_result.has_conflict:
            result.conflicts.append(path)

    if taken:
        blobs = store.get_blobs(taken.values())
        for path, oid in taken.items():
            result.files[path] = blobs[oid].data
    result.taken_oids = taken
    result.conflicts.sort()
    result.deleted_paths.sort()
    return result
