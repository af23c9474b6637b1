"""A pure-Python version-control substrate with Git semantics.

The paper builds GitCite on top of Git and GitHub.  Neither a ``git`` binary
nor GitPython is available in this offline environment, so this package
implements the subset of Git semantics that the citation model depends on,
from scratch:

* a content-addressable object store of blobs, trees, commits and tags
  (``objects``, ``object_store``);
* branches, tags and ``HEAD`` (``refs``);
* a staging index and an in-memory working tree (``index``,
  ``repository``), with helpers to materialise snapshots on disk
  (``worktree``);
* tree diffs with rename detection (``diff``);
* merge-base computation and three-way merges with conflict detection
  (``merge``);
* clone / fork / push / pull between repositories (``remote``).

Everything is deterministic: object ids depend only on content and the
timestamps/authors supplied by the caller, never on wall-clock time, which is
what makes the paper's Listing 1 reproducible byte-for-byte.
"""

from repro.vcs.objects import Blob, Commit, Signature, Tag, Tree, TreeEntry
from repro.vcs.object_store import ObjectStore
from repro.vcs.storage import (
    MemoryBackend,
    ObjectBackend,
    PackBackend,
    make_backend,
)
from repro.vcs.refs import RefStore
from repro.vcs.index import StagingIndex
from repro.vcs.diff import DiffEntry, TreeDiff, diff_trees
from repro.vcs.merge import MergeResult, find_merge_base, merge_blobs, merge_trees
from repro.vcs.repository import Repository
from repro.vcs.remote import clone_repository, fork_repository, pull, push

__all__ = [
    "Blob",
    "Commit",
    "Signature",
    "Tag",
    "Tree",
    "TreeEntry",
    "ObjectStore",
    "ObjectBackend",
    "MemoryBackend",
    "PackBackend",
    "make_backend",
    "RefStore",
    "StagingIndex",
    "DiffEntry",
    "TreeDiff",
    "diff_trees",
    "MergeResult",
    "find_merge_base",
    "merge_blobs",
    "merge_trees",
    "Repository",
    "clone_repository",
    "fork_repository",
    "pull",
    "push",
]
