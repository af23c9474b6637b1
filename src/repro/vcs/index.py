"""The staging index.

The index is the flat set of ``path → (blob id, mode)`` entries that the next
commit will snapshot.  ``Repository.add`` copies working-tree content into
blobs and records them here; ``Repository.commit`` turns the index into nested
tree objects via :func:`repro.vcs.treeops.build_tree_from_sorted_index`.

Two structures make the hot paths cheap:

* a sorted list of staged paths, so the file/directory conflict check in
  :meth:`StagingIndex.stage` is an O(depth + log n) probe instead of a scan
  over every staged entry (staging a whole worktree used to be quadratic);
* a subtree-oid cache from the last materialised tree, so
  :meth:`StagingIndex.write_tree` only re-serialises and re-hashes the
  directories whose entries actually changed since the previous
  ``write_tree``/``read_tree`` — unchanged subtrees reuse their oids.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import IndexError_
from repro.utils.paths import ROOT, ancestors, normalize_path
from repro.utils.sortedkeys import descendant_slice, sorted_insert, sorted_remove
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import MODE_DIRECTORY, MODE_FILE
from repro.vcs.treeops import build_tree_from_sorted_index, flatten_tree

__all__ = ["StagingIndex"]


class StagingIndex:
    """A flat map of staged file entries."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, str]] = {}
        self._sorted_paths: list[str] = []
        # State of the last write_tree/read_tree sync: the flat entries it
        # covered, the directory → tree-oid map it produced, and the store
        # those oids live in.  write_tree diffs against this to find dirty
        # directories; everything else is reused by oid.
        self._synced_entries: dict[str, tuple[str, str]] = {}
        self._tree_cache: dict[str, str] = {}
        # Strong reference, compared with `is`: an id() key could be reused
        # by a different store after garbage collection.
        self._tree_cache_store: ObjectStore | None = None
        #: ``{"built": n, "reused": m}`` for the last :meth:`write_tree` call
        #: (deterministic instrumentation for the perf smoke tests).
        self.last_write_tree_stats: dict[str, int] = {"built": 0, "reused": 0}

    # -- sorted-path bookkeeping -------------------------------------------

    def _paths_add(self, path: str) -> None:
        sorted_insert(self._sorted_paths, path)

    def _paths_remove(self, path: str) -> None:
        sorted_remove(self._sorted_paths, path)

    def _first_descendant(self, path: str) -> str | None:
        """A staged path strictly beneath ``path``, or ``None``."""
        lower, upper = descendant_slice(self._sorted_paths, path)
        return self._sorted_paths[lower] if lower < upper else None

    # -- mutation ----------------------------------------------------------

    def stage(self, path: str, blob_oid: str, mode: str = MODE_FILE) -> None:
        """Stage a file at ``path`` pointing at ``blob_oid``."""
        canonical = normalize_path(path)
        if canonical == "/":
            raise IndexError_("cannot stage the repository root as a file")
        if mode == MODE_DIRECTORY:
            raise IndexError_("directories are created implicitly; stage files only")
        if canonical not in self._entries:
            descendant = self._first_descendant(canonical)
            if descendant is not None:
                raise IndexError_(
                    f"staging {canonical!r} conflicts with already-staged path {descendant!r}"
                )
            for ancestor in ancestors(canonical):
                if ancestor in self._entries:
                    raise IndexError_(
                        f"staging {canonical!r} conflicts with already-staged path {ancestor!r}"
                    )
            self._paths_add(canonical)
        self._entries[canonical] = (blob_oid, mode)

    def unstage(self, path: str) -> None:
        """Remove a staged entry (missing paths are an error)."""
        canonical = normalize_path(path)
        if canonical not in self._entries:
            raise IndexError_(f"path is not staged: {canonical!r}")
        del self._entries[canonical]
        self._paths_remove(canonical)

    def discard(self, path: str) -> None:
        """Remove a staged entry if present (no error when absent)."""
        canonical = normalize_path(path)
        if self._entries.pop(canonical, None) is not None:
            self._paths_remove(canonical)

    def clear(self) -> None:
        self._entries.clear()
        self._sorted_paths.clear()

    def replace(
        self, entries: Mapping[str, tuple[str, str]], assume_canonical: bool = False
    ) -> None:
        """Replace the whole index content (used when reading a commit's tree).

        ``assume_canonical`` skips per-path normalisation for callers that
        guarantee canonical keys (the worktree and tree flattening do) — on
        the commit hot path that is O(n) string processing saved.
        """
        if assume_canonical:
            self._entries = dict(entries)
        else:
            self._entries = {normalize_path(path): value for path, value in entries.items()}
        self._sorted_paths = sorted(self._entries)

    # -- queries -----------------------------------------------------------

    def __contains__(self, path: str) -> bool:
        return normalize_path(path) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._sorted_paths))

    def get(self, path: str) -> tuple[str, str] | None:
        return self._entries.get(normalize_path(path))

    def entries(self) -> dict[str, tuple[str, str]]:
        """A copy of the staged ``path → (blob id, mode)`` map."""
        return dict(self._entries)

    def paths(self) -> list[str]:
        return list(self._sorted_paths)

    def paths_under(self, base: str) -> list[str]:
        """The staged paths at or beneath canonical ``base`` (range probe).

        Lets ``Repository.add(["dir"])`` find tracked entries whose files
        vanished from the working tree without scanning the whole index.
        """
        canonical = normalize_path(base)
        if canonical == ROOT:
            return list(self._sorted_paths)
        lower, upper = descendant_slice(self._sorted_paths, canonical)
        selected = self._sorted_paths[lower:upper]
        if canonical in self._entries:
            selected.insert(0, canonical)
        return selected

    @property
    def is_empty(self) -> bool:
        return not self._entries

    # -- conversion --------------------------------------------------------

    def _dirty_directories(self) -> set[str] | None:
        """Directories whose subtree changed since the last sync.

        ``None`` means nothing changed at all (the cached root oid is still
        valid).  An empty sync state marks everything dirty implicitly —
        directories absent from the cache are always rebuilt.
        """
        changed: set[str] = set()
        for path, value in self._entries.items():
            if self._synced_entries.get(path) != value:
                changed.add(path)
        for path in self._synced_entries:
            if path not in self._entries:
                changed.add(path)
        if not changed:
            return None
        dirty: set[str] = set()
        for path in changed:
            # The changed path itself is marked too: if it shadows a clean
            # cached *directory* of the same name (file/dir conflict), the
            # prune must not fire for that directory.
            dirty.add(path)
            for ancestor in ancestors(path):
                if ancestor in dirty:
                    break
                dirty.add(ancestor)
        return dirty

    def write_tree(self, store: ObjectStore) -> str:
        """Materialise the staged entries as nested tree objects.

        Returns the root tree id (an empty index yields the empty tree).
        Unchanged subtrees since the previous ``write_tree``/``read_tree``
        are emitted by their cached oids without being rebuilt.
        """
        if self._tree_cache_store is not store:
            # Cached oids belong to a different store; start from scratch.
            self._tree_cache = {}
            self._synced_entries = {}
        dirty = self._dirty_directories()
        if dirty is None and ROOT in self._tree_cache:
            self.last_write_tree_stats = {"built": 0, "reused": 1}
            return self._tree_cache[ROOT]
        root_oid, new_cache, stats = build_tree_from_sorted_index(
            store,
            self._sorted_paths,
            self._entries,
            self._tree_cache,
            dirty if dirty is not None else {ROOT},
        )
        self._tree_cache = new_cache
        self._tree_cache_store = store
        self._synced_entries = dict(self._entries)
        self.last_write_tree_stats = stats
        return root_oid

    def read_tree(self, store: ObjectStore, tree_oid: str) -> None:
        """Reset the index to the file entries of an existing tree.

        The tree's own subtree oids prime the write cache, so the first
        commit after a checkout only rebuilds what actually changed.
        """
        self.read_flat(store, flatten_tree(store, tree_oid))

    def read_flat(self, store: ObjectStore, flat: Mapping[str, tuple[str, str]]) -> None:
        """:meth:`read_tree` from an already-flattened tree map.

        Callers that flatten the tree for their own purposes (the lazy
        checkout primes the worktree from the same walk) share it instead of
        walking the tree twice.  ``flat`` must be a full
        :func:`~repro.vcs.treeops.flatten_tree` result for a tree stored in
        ``store`` — directory entries prime the write cache.
        """
        self.replace(
            {path: value for path, value in flat.items() if value[1] != MODE_DIRECTORY},
            assume_canonical=True,
        )
        self._tree_cache = {
            path: oid for path, (oid, mode) in flat.items() if mode == MODE_DIRECTORY
        }
        self._tree_cache_store = store
        self._synced_entries = dict(self._entries)
