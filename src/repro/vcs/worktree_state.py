"""The indexed working tree: a mapping with a path index and blob fingerprints.

:class:`WorktreeState` replaces the raw ``{path: bytes}`` dict that
:class:`~repro.vcs.repository.Repository` used to hold its working tree.  It
is mapping-compatible (``repo.worktree[path]``, iteration, equality against
plain dicts all behave identically), but maintains three auxiliary indexes
that turn the repository's per-operation worktree scans into bounded probes:

* a **sorted path index**, so "does this path have descendants?" and "which
  files live under this directory?" are bisect range probes
  (:func:`repro.utils.sortedkeys.descendant_slice`) instead of O(n) scans;
* a **directory index** mapping every implicit directory to the number of
  files beneath it, so ``directory_exists`` is an O(1) dict probe and
  ``list_directories`` enumerates directories without re-deriving them from
  every file path;
* a per-path **content-fingerprint cache**: the blob oid of each file's
  current bytes, computed lazily and invalidated by mutation, with a
  ``stored`` flag recording that the blob is known to live in the owning
  repository's object store.  ``Repository.add``/``status`` hash only paths
  whose fingerprint is missing — a commit that touched one file hashes one
  blob, making commits O(changed) end to end.

Since PR 4 entries can additionally be **lazy**: a checkout installs
``(path → blob oid)`` mappings backed by the repository's object store
(:meth:`load_committed_lazy`), and the bytes are only read on the first
``__getitem__``/``get`` access.  ``fingerprint()``/``is_stored()`` answer
straight from the primed oid, so staging, committing, status and tree builds
never touch unread blobs — checkout is O(changed) in blob reads and a large
tree no longer has to be resident in memory just because it was checked out.
Mutating a path severs its laziness (the oid no longer describes the bytes),
moves carry it (the bytes did not change), and the *backing-store contract*
is: unmaterialised entries keep a reference to the :class:`ObjectStore` that
primed them, which must stay readable for as long as they exist.  The store
facade keeps its identity across ``migrate_backend``, so layout migrations
are transparent; adoption by a *different* repository keeps the previous
owner's store as the byte source (content-addressing makes the bytes
identical) while :meth:`forget_stored` ensures the adopter re-stores every
blob it commits.

Every index is maintained incrementally by the mutation methods; a wholesale
replacement (:meth:`replace`, checkout) rebuilds them in one sorted pass.
Keys are canonical repository paths — the :class:`Repository` facade
normalises before touching the mapping, exactly as it did for the plain dict.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, MutableMapping

from repro.utils.hashing import object_id
from repro.utils.paths import ROOT, ancestors
from repro.utils.sortedkeys import descendant_slice, sorted_insert, sorted_remove

__all__ = ["WorktreeState"]


class WorktreeState(MutableMapping):
    """A ``{canonical path: bytes}`` mapping with sorted-path and blob-oid indexes."""

    def __init__(self, initial: Mapping[str, bytes] | None = None) -> None:
        self._files: dict[str, bytes] = {}
        #: Lazy entries: path → blob oid whose bytes have not been read yet.
        #: Disjoint from ``_files``; every lazy path has a primed fingerprint.
        self._lazy: dict[str, str] = {}
        #: The object store lazy entries fault their bytes from.
        self._source = None
        #: A gc pin on the source store covering the lazy oids (see below).
        self._lease = None
        self._sorted_paths: list[str] = []
        #: Implicit directory path → number of files anywhere beneath it.
        self._dir_counts: dict[str, int] = {}
        self._sorted_dirs: list[str] = []
        #: path → blob oid of the current bytes (dropped on every mutation).
        self._fingerprints: dict[str, str] = {}
        #: Paths whose fingerprinted blob is known present in the repo store.
        self._stored: set[str] = set()
        #: Total lazy fingerprint computations (deterministic perf probe).
        self.hash_count = 0
        #: Total lazy-entry byte materialisations (deterministic perf probe).
        self.materialize_count = 0
        #: Index probes made by the last :meth:`check_can_create` call
        #: (deterministic perf probe: bounded by path depth, never by size).
        self.last_check_probes = 0
        if initial:
            self.replace(initial)

    # -- mapping protocol --------------------------------------------------

    def __getitem__(self, path: str) -> bytes:
        try:
            return self._files[path]
        except KeyError:
            if path in self._lazy:
                return self._materialize(path)
            raise

    def __setitem__(self, path: str, data: bytes) -> None:
        if path in self._lazy:
            # Mutation severs laziness: the primed oid no longer describes
            # these bytes (the path stays indexed — only the value changes).
            del self._lazy[path]
            self._fingerprints.pop(path, None)
            self._maybe_release_lease()
        elif path not in self._files:
            sorted_insert(self._sorted_paths, path)
            self._index_directories(path, +1)
        else:
            self._fingerprints.pop(path, None)
        self._stored.discard(path)
        self._files[path] = data

    def __delitem__(self, path: str) -> None:
        if path in self._lazy:
            del self._lazy[path]
            self._maybe_release_lease()
        else:
            del self._files[path]
        sorted_remove(self._sorted_paths, path)
        self._index_directories(path, -1)
        self._fingerprints.pop(path, None)
        self._stored.discard(path)

    def __iter__(self) -> Iterator[str]:
        # Deterministic sorted order (a superset of the plain dict contract,
        # which promised no particular order).
        return iter(self._sorted_paths)

    def __len__(self) -> int:
        return len(self._files) + len(self._lazy)

    def __contains__(self, path: object) -> bool:
        return path in self._files or path in self._lazy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorktreeState({len(self)} files, {len(self._lazy)} lazy)"

    def get(self, path: str, default=None):
        if path in self._files or path in self._lazy:
            return self[path]
        return default

    def items(self):
        """Sorted ``(path, bytes)`` pairs; lazy entries are batch-materialised."""
        self.materialize_all()
        return [(path, self._files[path]) for path in self._sorted_paths]

    def values(self):
        """File bytes in sorted path order; lazy entries are batch-materialised."""
        self.materialize_all()
        return [self._files[path] for path in self._sorted_paths]

    def clear(self) -> None:
        self._files.clear()
        self._lazy.clear()
        self._release_lease()
        self._source = None
        self._sorted_paths.clear()
        self._dir_counts.clear()
        self._sorted_dirs.clear()
        self._fingerprints.clear()
        self._stored.clear()

    def replace(self, mapping: Mapping[str, bytes]) -> None:
        """Replace the whole content in one pass (merge / import / tests)."""
        self.clear()
        self._files = dict(mapping)
        self._sorted_paths = sorted(self._files)
        self._rebuild_directory_index()

    def bulk_update(self, mapping: Mapping[str, bytes]) -> None:
        """Add/overwrite many entries at once (one re-sort, not n inserts)."""
        if not mapping:
            return
        if len(mapping) <= 8:
            for path, data in mapping.items():
                self[path] = data
            return
        for path in mapping:
            if path in self._lazy:
                del self._lazy[path]
                self._fingerprints.pop(path, None)
            elif path in self._files:
                self._fingerprints.pop(path, None)
            else:
                self._index_directories(path, +1)
            self._stored.discard(path)
        self._files.update(mapping)
        self._sorted_paths = sorted(self._all_paths())
        self._maybe_release_lease()

    def _all_paths(self) -> list[str]:
        return [*self._files, *self._lazy]

    # -- lazy entries ------------------------------------------------------

    @property
    def source(self):
        """The object store unmaterialised entries read their bytes from."""
        return self._source

    @property
    def lease(self):
        """The live gc pin on the backing store, or ``None``.

        A worktree with unmaterialised entries holds a
        :class:`~repro.vcs.object_store.StoreLease` on its source store so
        ``gc`` cannot drop blobs it may still fault — the sharp edge being a
        worktree adopted by *another* repository, whose oids no reachability
        walk over the donor's refs can see.  The lease is released as soon as
        no lazy entry remains (full materialisation, clear/replace), and the
        store's weak registry drops it automatically if the worktree itself
        is discarded.
        """
        return self._lease

    def release_lease(self) -> None:
        """Drop this worktree's gc pin on its backing store (idempotent).

        The repository calls this when it replaces a worktree wholesale
        (checkout, merge, adoption): the outgoing state will no longer fault
        on the repository's behalf, and any *adopted* copy of it holds its
        own lease, so the pin can be returned deterministically instead of
        waiting for garbage collection.
        """
        self._release_lease()

    def _acquire_lease(self) -> None:
        self._release_lease()
        if self._lazy and self._source is not None:
            pin = getattr(self._source, "pin", None)
            if pin is not None:
                self._lease = pin(self._lazy.values())

    def _release_lease(self) -> None:
        if self._lease is not None:
            self._lease.release()
            self._lease = None

    def _maybe_release_lease(self) -> None:
        # The lease exists for the sake of unmaterialised entries only; the
        # moment none remain, the store owes this worktree nothing.
        if self._lease is not None and not self._lazy:
            self._release_lease()

    def lazy_count(self) -> int:
        """How many entries have not materialised their bytes yet."""
        return len(self._lazy)

    def _materialize(self, path: str) -> bytes:
        # The entry leaves the lazy set only after the read succeeds: a
        # corrupt/missing blob raises to the caller and the path stays a
        # consistent (retryable) lazy entry instead of vanishing.
        oid = self._lazy[path]
        data = self._source.get_blob(oid).data
        del self._lazy[path]
        self._files[path] = data
        self.materialize_count += 1
        self._maybe_release_lease()
        return data

    def materialize_all(self) -> int:
        """Fault in every lazy entry through one batched store read.

        Returns the number of entries materialised.  Uses the store's
        batched :meth:`~repro.vcs.object_store.ObjectStore.get_blobs`, so a
        pack-backed store serves the whole tree without re-probing its
        indexes or reopening handles per blob.
        """
        if not self._lazy:
            return 0
        blobs = self._source.get_blobs(self._lazy.values())
        for path, oid in self._lazy.items():
            self._files[path] = blobs[oid].data
        count = len(self._lazy)
        self.materialize_count += count
        self._lazy.clear()
        self._release_lease()
        return count

    def detached_copy(self) -> "WorktreeState":
        """An independent copy sharing byte payloads but no bookkeeping.

        Cross-repository adoption goes through this: the adopter's staging
        must not re-mark stored flags on state the donor repository still
        uses (the flags would assert membership in the *adopter's* store and
        let the donor commit trees referencing blobs it never stored).
        """
        clone = WorktreeState()
        clone._files = dict(self._files)
        clone._lazy = dict(self._lazy)
        clone._source = self._source
        clone._sorted_paths = list(self._sorted_paths)
        clone._dir_counts = dict(self._dir_counts)
        clone._sorted_dirs = list(self._sorted_dirs)
        clone._fingerprints = dict(self._fingerprints)
        clone._stored = set(self._stored)
        # The copy holds its *own* pin on the donor store: the adopter may
        # outlive the original worktree (and the original releases its lease
        # independently, e.g. by being replaced on the donor's next
        # checkout), so the borrowed oids must stay gc-safe either way.
        clone._acquire_lease()
        return clone

    def materialize_unstored(self) -> int:
        """Batch-fault every lazy entry whose blob is *not* known stored.

        After cross-repository adoption (``forget_stored``) staging must
        read and re-store every blob; this serves those reads through one
        batched store call instead of one ``get_blob`` fault per path.  On
        an ordinary lazy checkout every lazy entry is known stored, so this
        is a no-op.  Returns the number of entries materialised.
        """
        wanted = {
            path: oid for path, oid in self._lazy.items() if path not in self._stored
        }
        if not wanted:
            return 0
        blobs = self._source.get_blobs(wanted.values())
        for path, oid in wanted.items():
            self._files[path] = blobs[oid].data
            del self._lazy[path]
        self.materialize_count += len(wanted)
        self._maybe_release_lease()
        return len(wanted)

    def materialized_bytes(self, path: str, oid: str) -> bytes | None:
        """The bytes of ``path`` if already materialised *and* fingerprinted
        as ``oid`` — content addressing makes the match proof of identity.
        Used to carry bytes across checkouts without re-reading blobs."""
        data = self._files.get(path)
        if data is not None and self._fingerprints.get(path) == oid:
            return data
        return None

    def size_of(self, path: str) -> int:
        """Byte length of ``path``'s content without materialising it.

        Materialised entries answer from their bytes; lazy entries probe the
        backing store's size API (header-only for on-disk layouts).
        """
        data = self._files.get(path)
        if data is not None:
            return len(data)
        return self._source.blob_size(self._lazy[path])

    def load_committed_lazy(
        self,
        entries: Iterable[tuple[str, str]],
        source,
        carry_from: "WorktreeState | None" = None,
    ) -> None:
        """Replace the content with ``(path, blob oid)`` pairs served lazily
        by ``source`` — no blob is read until its path is first accessed.

        ``carry_from`` (the worktree being replaced) donates bytes for paths
        it had already materialised under the same oid, so switching back and
        forth between versions re-reads only blobs that actually changed:
        checkout is O(changed-since-last-load) in blob reads.
        """
        self.clear()
        self._source = source
        files = self._files
        lazy = self._lazy
        fingerprints = self._fingerprints
        for path, oid in entries:
            fingerprints[path] = oid
            if carry_from is not None:
                data = carry_from.materialized_bytes(path, oid)
                if data is not None:
                    files[path] = data
                    continue
            lazy[path] = oid
        self._stored = set(fingerprints)
        self._sorted_paths = sorted(self._all_paths())
        self._rebuild_directory_index()
        self._acquire_lease()

    # -- directory index ---------------------------------------------------

    def _index_directories(self, path: str, delta: int) -> None:
        for ancestor in ancestors(path):
            count = self._dir_counts.get(ancestor, 0) + delta
            if count > 0:
                if ancestor not in self._dir_counts:
                    sorted_insert(self._sorted_dirs, ancestor)
                self._dir_counts[ancestor] = count
            else:
                self._dir_counts.pop(ancestor, None)
                sorted_remove(self._sorted_dirs, ancestor)

    def _rebuild_directory_index(self) -> None:
        self._dir_counts = {}
        for path in self._sorted_paths:
            for ancestor in ancestors(path):
                self._dir_counts[ancestor] = self._dir_counts.get(ancestor, 0) + 1
        self._sorted_dirs = sorted(self._dir_counts)

    # -- path-index queries ------------------------------------------------

    def sorted_paths(self) -> list[str]:
        """All file paths in sorted order (a copy)."""
        return list(self._sorted_paths)

    def files_under(self, base: str, include_base: bool = True) -> list[str]:
        """The file paths beneath canonical ``base`` (sorted range probe)."""
        if base == ROOT:
            return list(self._sorted_paths)  # the root is never a file
        lower, upper = descendant_slice(self._sorted_paths, base)
        selected = self._sorted_paths[lower:upper]
        if include_base and base in self:
            selected.insert(0, base)
        return selected

    def first_descendant(self, path: str) -> str | None:
        """The sorted-first file strictly beneath ``path``, or ``None``."""
        lower, upper = descendant_slice(self._sorted_paths, path)
        return self._sorted_paths[lower] if lower < upper else None

    def has_directory(self, path: str) -> bool:
        """Whether ``path`` is an (implicit) directory — O(1) dict probe."""
        return path == ROOT or path in self._dir_counts

    def directories(self, base: str = ROOT) -> list[str]:
        """Every implicit directory path at or beneath canonical ``base``."""
        if not self._sorted_paths:
            return [ROOT] if base == ROOT else []
        if base == ROOT:
            return list(self._sorted_dirs)
        if base not in self._dir_counts:
            return []
        lower, upper = descendant_slice(self._sorted_dirs, base)
        return [base] + self._sorted_dirs[lower:upper]

    def check_can_create(self, path: str, error=ValueError) -> None:
        """Raise ``error`` if creating a file at canonical ``path`` would
        violate the worktree invariant (no path is an ancestor of another).

        O(depth) ancestor probes plus one bisect — never a worktree scan.
        Overwriting an existing file at ``path`` itself is always allowed.
        """
        probes = 0
        for ancestor in ancestors(path):
            probes += 1
            if ancestor != ROOT and ancestor in self:
                self.last_check_probes = probes
                raise error(f"{ancestor!r} is a file; cannot create {path!r} beneath it")
        probes += 1
        descendant = self.first_descendant(path)
        self.last_check_probes = probes
        if descendant is not None:
            raise error(f"{path!r} is a directory (contains {descendant!r})")

    # -- content fingerprints ----------------------------------------------

    def fingerprint(self, path: str) -> str:
        """The blob oid of ``path``'s current bytes (computed lazily, cached).

        Lazy entries were primed with their oid at load time, so this never
        materialises bytes.
        """
        oid = self._fingerprints.get(path)
        if oid is None:
            oid = object_id("blob", self[path])
            self._fingerprints[path] = oid
            self.hash_count += 1
        return oid

    def is_stored(self, path: str) -> bool:
        """Whether ``path``'s fingerprinted blob is known to be in the store."""
        return path in self._stored

    def mark_stored(self, path: str, oid: str) -> None:
        """Record that ``path``'s bytes hash to ``oid`` and the blob is stored."""
        self._fingerprints[path] = oid
        self._stored.add(path)

    def forget_stored(self) -> None:
        """Drop every known-stored flag (fingerprints stay).

        Used when this state is adopted by a different repository: the
        flags assert membership in the *previous* owner's object store.
        Unmaterialised entries keep faulting bytes from that previous store
        (the content-addressed bytes are identical); the adopter's ``add``
        re-stores each blob into its own store before committing.
        """
        self._stored.clear()

    def _install_lazy(self, path: str, oid: str, stored: bool) -> None:
        """Insert an absent ``path`` as a lazy entry (move bookkeeping)."""
        sorted_insert(self._sorted_paths, path)
        self._index_directories(path, +1)
        self._lazy[path] = oid
        self._fingerprints[path] = oid
        if stored:
            self._stored.add(path)

    def move_entry(self, old_path: str, new_path: str) -> None:
        """Move a file, carrying its fingerprint (the bytes did not change)."""
        self.move_entries({old_path: new_path})

    def move_entries(self, moves: Mapping[str, str]) -> None:
        """Move several files at once, carrying fingerprints and laziness.

        Two phases — capture + delete every source, then insert every
        destination — so a destination that coincides with a *later* source
        (a directory moved into itself, ``/a`` → ``/a/x``) never clobbers
        bytes that are still waiting to move.  A lazy source stays lazy at
        its destination: moving never forces a blob read.
        """
        captured = []
        for old_path, new_path in moves.items():
            if old_path in self._lazy:
                captured.append(
                    (new_path, None, self._lazy[old_path], old_path in self._stored, True)
                )
            else:
                captured.append(
                    (
                        new_path,
                        self._files[old_path],
                        self._fingerprints.get(old_path),
                        old_path in self._stored,
                        False,
                    )
                )
        for old_path in moves:
            del self[old_path]
        for new_path, data, oid, stored, was_lazy in captured:
            if was_lazy:
                self._install_lazy(new_path, oid, stored)
                continue
            self[new_path] = data
            if oid is not None:
                self._fingerprints[new_path] = oid
                if stored:
                    self._stored.add(new_path)
        # The delete phase may have emptied the lazy set transiently (and
        # released the gc lease) before the insert phase re-installed lazy
        # entries; those survivors must stay pinned against a donor-store gc.
        if self._lazy and self._lease is None:
            self._acquire_lease()
