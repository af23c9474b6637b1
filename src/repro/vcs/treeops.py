"""Operations on stored trees: flattening, building, lookup and extraction.

Trees are stored as nested objects (a directory's entry points at the subtree
object).  The citation model, the diff machinery and the staging index all
prefer a *flat* view — a mapping from canonical repository path (``"/a/b"``)
to ``(object id, mode)`` — because the citation function itself is keyed by
path.  This module converts between the two representations.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Mapping

from repro.errors import VCSError
from repro.utils.paths import ROOT, join_path, normalize_path, split_path
from repro.utils.sortedkeys import descendant_slice
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import MODE_DIRECTORY, MODE_FILE, Tree, TreeEntry

__all__ = [
    "flatten_tree",
    "flatten_files",
    "build_tree",
    "build_tree_from_sorted_index",
    "tree_closure",
    "lookup_path",
    "list_directories",
    "subtree_oid",
    "tree_contains",
    "iter_file_paths",
]


def flatten_tree(store: ObjectStore, tree_oid: str, base: str = ROOT) -> dict[str, tuple[str, str]]:
    """Flatten the tree at ``tree_oid`` into ``{path: (oid, mode)}``.

    Both files and directories appear in the result; the base directory itself
    is included under its own path with mode :data:`MODE_DIRECTORY`.
    """
    base = normalize_path(base)
    result: dict[str, tuple[str, str]] = {base: (tree_oid, MODE_DIRECTORY)}
    tree = store.get_tree(tree_oid)
    for entry in tree.entries:
        path = join_path(base, entry.name)
        if entry.is_directory:
            result.update(flatten_tree(store, entry.oid, base=path))
        else:
            result[path] = (entry.oid, entry.mode)
    return result


def flatten_files(store: ObjectStore, tree_oid: str, base: str = ROOT) -> dict[str, tuple[str, str]]:
    """Like :func:`flatten_tree` but restricted to file (blob) entries."""
    return {
        path: (oid, mode)
        for path, (oid, mode) in flatten_tree(store, tree_oid, base=base).items()
        if mode != MODE_DIRECTORY
    }


def iter_file_paths(store: ObjectStore, tree_oid: str) -> Iterator[str]:
    """Yield the canonical paths of every file reachable from ``tree_oid``."""
    yield from sorted(flatten_files(store, tree_oid))


def list_directories(store: ObjectStore, tree_oid: str) -> list[str]:
    """Return the canonical paths of every directory reachable from ``tree_oid``."""
    return sorted(
        path
        for path, (_, mode) in flatten_tree(store, tree_oid).items()
        if mode == MODE_DIRECTORY
    )


def build_tree(store: ObjectStore, files: Mapping[str, tuple[str, str]]) -> str:
    """Build nested tree objects from a flat ``{path: (blob oid, mode)}`` map.

    Only file entries may be supplied; directories are created implicitly.
    Returns the id of the root tree (an empty map produces an empty tree).
    Paths may be in any of the accepted loose forms; file/directory
    conflicts raise :class:`VCSError`.  This nest-then-hash build stays
    independent of :func:`build_tree_from_sorted_index` (the commit path)
    because tests and benchmark identity checks use it as that builder's
    reference.
    """
    canonical = {normalize_path(path): value for path, value in files.items()}
    nested: dict = {}
    for path, value in canonical.items():
        if value[1] == MODE_DIRECTORY:
            raise VCSError(f"build_tree expects file entries only, got directory {path!r}")
        if path == ROOT:
            raise VCSError("cannot store a file at the repository root path '/'")
        parts = path[1:].split("/")
        cursor = nested
        for component in parts[:-1]:
            existing = cursor.setdefault(component, {})
            if not isinstance(existing, dict):
                raise VCSError(
                    f"path conflict: {component!r} is both a file and a directory under {path!r}"
                )
            cursor = existing
        if parts[-1] in cursor:
            raise VCSError(f"path conflict: {path!r} is both a file and a directory")
        cursor[parts[-1]] = value

    def _build(node: dict) -> str:
        entries: list[TreeEntry] = []
        for name, value in node.items():
            if isinstance(value, dict):
                entries.append(TreeEntry(name=name, oid=_build(value), mode=MODE_DIRECTORY))
            else:
                blob_oid, mode = value
                entries.append(TreeEntry(name=name, oid=blob_oid, mode=mode))
        return store.put(Tree(entries=tuple(entries)))

    return _build(nested)


def build_tree_from_sorted_index(
    store: ObjectStore,
    sorted_paths: list[str],
    entries: Mapping[str, tuple[str, str]],
    cached_subtrees: Mapping[str, str],
    dirty_directories: set[str],
) -> tuple[str, dict[str, str], dict[str, int]]:
    """Build nested trees from a *sorted* path list, touching only dirty work.

    Rather than nesting every file entry (an O(n) pass even when almost
    every subtree is unchanged), a directory's direct children are
    enumerated by bisect jumps over the sorted path list (each child costs
    one bisect to skip its subtree), and only dirty directories are
    descended into — clean ones are emitted from ``cached_subtrees``
    without their ranges ever being visited.  For a commit that touched
    one file this is O(changed · depth · branching · log n) instead of
    O(n).

    ``sorted_paths`` must be the sorted keys of ``entries`` (the staging
    index maintains exactly that), all canonical, satisfying the worktree
    invariant.  Returns ``(root oid, new directory → oid map, {"built": n,
    "reused": m})``.
    """
    new_cache = {
        path: oid for path, oid in cached_subtrees.items() if path not in dirty_directories
    }
    stats = {"built": 0, "reused": 0}

    def build(dir_path: str) -> str:
        if dir_path == ROOT:
            low, high = 0, len(sorted_paths)
            prefix = "/"
        else:
            low, high = descendant_slice(sorted_paths, dir_path)
            prefix = dir_path + "/"
        tree_entries: list[TreeEntry] = []
        position = low
        while position < high:
            path = sorted_paths[position]
            remainder = path[len(prefix):]
            cut = remainder.find("/")
            if cut < 0:
                blob_oid, mode = entries[path]
                tree_entries.append(TreeEntry(name=remainder, oid=blob_oid, mode=mode))
                position += 1
                continue
            name = remainder[:cut]
            child_path = prefix + name
            if child_path in dirty_directories or child_path not in cached_subtrees:
                child_oid = build(child_path)
            else:
                child_oid = cached_subtrees[child_path]
                stats["reused"] += 1
            tree_entries.append(TreeEntry(name=name, oid=child_oid, mode=MODE_DIRECTORY))
            # Skip the whole child subtree: "0" is the successor of "/".
            position = bisect_left(sorted_paths, child_path + "0", position, high)
        oid = store.put(Tree(entries=tuple(tree_entries)))
        new_cache[dir_path] = oid
        stats["built"] += 1
        return oid

    root_oid = build(ROOT)
    return root_oid, new_cache, stats


def tree_closure(
    store: ObjectStore, tree_oid: str, cache: dict[str, frozenset[str]] | None = None
) -> frozenset[str]:
    """Every object id reachable from the tree at ``tree_oid`` (itself included).

    ``cache`` memoises the closure per *tree oid*: trees are content-addressed,
    so two commits sharing an unchanged subtree share its closure, and a walk
    over many commits of the same history flattens each distinct subtree
    exactly once instead of once per commit.  The sync subsystem's frontier
    walker passes one cache across the whole negotiation, which is what makes
    collecting the objects of a new commit O(changed subtrees), not O(tree).
    """
    if cache is None:
        cache = {}
    cached = cache.get(tree_oid)
    if cached is not None:
        return cached
    members: set[str] = {tree_oid}
    for entry in store.get_tree(tree_oid).entries:
        if entry.is_directory:
            members |= tree_closure(store, entry.oid, cache)
        else:
            members.add(entry.oid)
    closure = frozenset(members)
    cache[tree_oid] = closure
    return closure


def lookup_path(store: ObjectStore, tree_oid: str, path: str) -> tuple[str, str] | None:
    """Resolve ``path`` inside the tree at ``tree_oid``.

    Returns ``(object id, mode)`` for the file or directory at that path, or
    ``None`` when the path does not exist in this version.
    """
    parts = split_path(path)
    current_oid = tree_oid
    current_mode = MODE_DIRECTORY
    for component in parts:
        if current_mode != MODE_DIRECTORY:
            return None
        tree = store.get_tree(current_oid)
        entry = tree.entry(component)
        if entry is None:
            return None
        current_oid = entry.oid
        current_mode = entry.mode
    return current_oid, current_mode


def tree_contains(store: ObjectStore, tree_oid: str, path: str) -> bool:
    """Return whether ``path`` (file or directory) exists in the tree."""
    return lookup_path(store, tree_oid, path) is not None


def subtree_oid(store: ObjectStore, tree_oid: str, path: str) -> str:
    """Return the tree id of the directory at ``path``.

    Raises
    ------
    VCSError
        If the path does not exist or is a file.
    """
    resolved = lookup_path(store, tree_oid, path)
    if resolved is None:
        raise VCSError(f"no such directory in this version: {path!r}")
    oid, mode = resolved
    if mode != MODE_DIRECTORY:
        raise VCSError(f"path is a file, not a directory: {path!r}")
    return oid
