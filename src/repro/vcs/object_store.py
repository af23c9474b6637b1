"""A content-addressable object store.

Objects (blobs, trees, commits, tags) are stored by their id, which is a
deterministic function of their content.  Storing the same object twice is a
no-op, and two repositories that contain the same files share object ids —
which is what makes clone/fork/push cheap (only missing objects move) and
what lets the Software Heritage identifier simulator compute intrinsic ids.

Since PR 2 the store is a thin facade over a pluggable
:class:`~repro.vcs.storage.ObjectBackend` (in-memory dict or
delta-compressed pack files — see :mod:`repro.vcs.storage`), with a
small LRU cache of deserialised objects in front of the backend so hot reads
skip both I/O and parsing.  The public API is unchanged from the in-memory
era; callers pick a layout at construction time and nothing else.

History walks do not go through that LRU: :meth:`ObjectStore.commit_parents`
and :meth:`ObjectStore.commit_tree` answer from a commit-parent index that is
never evicted, so a walk over a history longer than the cache parses each
commit once per store lifetime instead of once per walk.  Beside it,
:meth:`ObjectStore.commit_generation` memoises each commit's generation
number (git's commit-graph "topological level"), which lets negotiation and
fast-forward checks stop a walk at the commits that can still matter instead
of descending to the root.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from collections import OrderedDict
from typing import Iterable, Iterator

from repro.errors import InvalidObjectError, ObjectNotFoundError
from repro.vcs.objects import Blob, Commit, Tag, Tree, VCSObject, deserialize_object
from repro.vcs.storage import BackendSpec, MemoryBackend, ObjectBackend, make_backend

__all__ = ["ObjectStore", "StoreLease", "DEFAULT_CACHE_SIZE"]

#: Deserialised objects kept hot in front of the backend.
DEFAULT_CACHE_SIZE = 512


class StoreLease:
    """A revocable pin on a set of object ids.

    While a lease is live, :meth:`ObjectStore.gc` treats its oids as
    reachable no matter what ``keep`` set the caller computed — the registry
    exists for borrowers the reachability walk cannot see, such as a lazy
    worktree adopted by *another* repository that still faults bytes from
    this store.  The store only holds a weak reference, so a lease (and its
    pin) vanishes with its holder even if :meth:`release` is never called.
    """

    __slots__ = ("oids", "_registry", "__weakref__")

    def __init__(self, registry, oids: Iterable[str]) -> None:
        self.oids: set[str] = set(oids)
        self._registry = registry
        registry.add(self)

    @property
    def released(self) -> bool:
        return self._registry is None

    def release(self) -> None:
        """Drop the pin; idempotent."""
        if self._registry is not None:
            self._registry.discard(self)
            self._registry = None
        self.oids.clear()


class ObjectStore:
    """A typed object map over a pluggable storage backend.

    A lazily maintained sorted list of ids serves as a prefix index:
    :meth:`resolve_prefix` does a bisect range probe instead of scanning
    every stored id.  The list records the backend's mutation counter when
    built and is rebuilt whenever the counter has moved — so writes that
    reach the backend without going through :meth:`put` (raw transfers,
    migrations) invalidate it too, not just facade-level writes.

    Thread-safety contract: the facade's mutable bookkeeping — the LRU
    parse cache, the commit-parent index and generation memo, the sorted
    prefix index and the lease registry — is guarded by one internal
    lock, held only for dict/list operations (never across backend I/O).
    Object payload reads and writes delegate to the backend, whose own
    write lock serialises mutations while leaving reads lock-free (see
    :mod:`repro.vcs.storage.base`), so N server threads can read through
    one store while a push lands.
    """

    def __init__(self, backend: BackendSpec = None, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self._backend = make_backend(backend)
        self._cache: OrderedDict[str, VCSObject] = OrderedDict()
        self._cache_size = cache_size
        #: ``{commit oid: (tree oid, parent oids)}`` for every commit parsed
        #: or put through this store — the commit-parent index.  Never
        #: evicted (commits are immutable, so an entry cannot go stale; each
        #: costs about 350 bytes); :meth:`gc` drops it wholesale so entries
        #: of collected commits do not outlive them.
        #: Reads are lock-free single-key ``dict.get`` calls.
        self._commit_links: dict[str, tuple[str, tuple[str, ...]]] = {}  # guarded-by: _lock
        #: ``{commit oid: generation}`` — 1 for a root, else 1 + the largest
        #: parent generation.  Memoised beside ``_commit_links`` under the
        #: same rules: never evicted, dropped wholesale by :meth:`gc`.
        self._generations: dict[str, int] = {}  # guarded-by: _lock
        #: Guards the cache, the parent index, the generation memo, the
        #: sorted prefix index and the lease set.  Never held across backend I/O, so it cannot
        #: serialise reads.
        self._lock = threading.RLock()
        self._sorted_oids: list[str] = []
        self._indexed_mutation = -1
        #: Live pins on oids borrowed by parties outside any reachability
        #: walk (see :class:`StoreLease`); weak so dropped holders unpin.
        self._leases: "weakref.WeakSet[StoreLease]" = weakref.WeakSet()
        #: Number of sorted-list probes the last ``resolve_prefix`` made
        #: (deterministic instrumentation for the perf smoke tests).
        self.last_resolve_scan_steps = 0

    @property
    def backend(self) -> ObjectBackend:
        """The storage backend this store reads and writes through."""
        return self._backend

    def _cache_insert(self, oid: str, obj: VCSObject) -> None:
        with self._lock:
            if isinstance(obj, Commit):
                self._commit_links[oid] = (obj.tree_oid, obj.parent_oids)
            if self._cache_size <= 0:
                return
            self._cache[oid] = obj
            self._cache.move_to_end(oid)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def _cache_probe(self, oid: str) -> VCSObject | None:
        """LRU-touching cache lookup (the ``OrderedDict`` reorder needs the lock)."""
        with self._lock:
            cached = self._cache.get(oid)
            if cached is not None:
                self._cache.move_to_end(oid)
            return cached

    # -- writing -----------------------------------------------------------

    def put(self, obj: VCSObject) -> str:
        """Store ``obj`` and return its id (idempotent)."""
        oid = obj.oid
        if oid in self._cache:
            return oid  # cached ⇒ already stored; skip the backend probe
        if self._backend.write(oid, obj.type_name, obj.serialize()):
            self._cache_insert(oid, obj)
        return oid

    def put_many(self, objects: Iterable[VCSObject]) -> list[str]:
        """Store several objects, returning their ids in order."""
        return [self.put(obj) for obj in objects]

    def put_raw_many(self, records: Iterable[tuple[str, str, bytes]]) -> int:
        """Write raw ``(oid, type, payload)`` records in one backend batch.

        The bundle-apply path: payloads were already hash-verified against
        their ids by the caller, so no object is constructed or parsed here.
        Records whose oid is already stored are skipped; returns how many
        were newly added.
        """
        return self._backend.write_many(records)

    # -- reading -----------------------------------------------------------

    def get(self, oid: str) -> VCSObject:
        """Return the object with id ``oid``.

        Raises
        ------
        ObjectNotFoundError
            If no object with that id is stored.
        """
        cached = self._cache_probe(oid)
        if cached is not None:
            return cached
        try:
            object_type, payload = self._backend.read(oid)
        except KeyError:
            raise ObjectNotFoundError(oid) from None
        obj = deserialize_object(object_type, payload)
        self._cache_insert(oid, obj)
        return obj

    def get_type(self, oid: str) -> str:
        """Return the type name of a stored object without deserialising it."""
        cached = self._cache.get(oid)
        if cached is not None:
            return cached.type_name
        try:
            return self._backend.read_type(oid)
        except KeyError:
            raise ObjectNotFoundError(oid) from None

    def get_raw(self, oid: str) -> tuple[str, bytes]:
        """Return ``(type name, serialised payload)`` without deserialising.

        The transfer layer moves objects as raw bytes; a cache hit serves
        the payload by re-serialising the cached object (deterministic by
        construction), a miss reads the backend record directly.
        """
        cached = self._cache_probe(oid)
        if cached is not None:
            return cached.type_name, cached.serialize()
        try:
            return self._backend.read(oid)
        except KeyError:
            raise ObjectNotFoundError(oid) from None

    def commit_parents(self, oid: str) -> tuple[str, ...]:
        """Return the parent ids of commit ``oid``, parsing it at most once.

        The ancestry walks (negotiation, fast-forward checks, merge bases)
        call this instead of :meth:`get_commit`: an index hit costs one dict
        lookup whatever the LRU holds.  Presence is not answered here — a
        caller that must know whether ``oid`` is stored still asks the
        backend (``oid in store``).

        Raises
        ------
        ObjectNotFoundError
            If no object with that id is stored.
        InvalidObjectError
            If the object is not a commit.
        """
        return self._commit_links_of(oid)[1]

    def commit_tree(self, oid: str) -> str:
        """Return the root tree id of commit ``oid``, from the same index."""
        return self._commit_links_of(oid)[0]

    def commit_generation(self, oid: str) -> int:
        """Return the generation number of commit ``oid`` (a root is 1).

        A commit's generation is 1 + the largest generation of its parents,
        so every ancestor of ``oid`` has a strictly smaller one: a walk that
        only needs commits at or above some generation can stop there.  The
        value is memoised; the first call on a history walks it iteratively
        (no recursion, so any depth is fine) through :meth:`commit_parents`,
        and later calls cost the commits added since.

        Raises
        ------
        ObjectNotFoundError
            If ``oid`` or one of its ancestors is not stored.
        InvalidObjectError
            If the object is not a commit.
        """
        generations = self._generations
        known = generations.get(oid)
        if known is not None:
            return known
        # Every value this walk reads is copied into ``found`` first, so a
        # concurrent gc clearing the memo cannot pull one out from under it.
        found: dict[str, int] = {}

        def lookup(commit: str) -> int | None:
            value = found.get(commit)
            if value is None:
                value = generations.get(commit)
                if value is not None:
                    found[commit] = value
            return value

        parents_of: dict[str, tuple[str, ...]] = {}
        stack = [oid]
        while stack:
            top = stack[-1]
            if lookup(top) is not None:
                stack.pop()
                continue
            parents = parents_of.get(top)
            if parents is None:
                parents = parents_of[top] = self.commit_parents(top)
                pending = [parent for parent in parents if lookup(parent) is None]
                if pending:
                    stack.extend(pending)
                    continue
            found[top] = 1 + max((found[parent] for parent in parents), default=0)
            stack.pop()
        with self._lock:
            generations.update(found)
        return found[oid]

    def _commit_links_of(self, oid: str) -> tuple[str, tuple[str, ...]]:
        links = self._commit_links.get(oid)
        if links is None:
            commit = self.get_commit(oid)
            links = (commit.tree_oid, commit.parent_oids)
            with self._lock:
                self._commit_links[oid] = links
        return links

    def get_blob(self, oid: str) -> Blob:
        return self._typed(oid, Blob)

    def get_blobs(self, oids: Iterable[str]) -> dict[str, Blob]:
        """Return ``{oid: Blob}`` for every requested oid in one batched read.

        Cache hits are served directly; the misses go through the backend's
        :meth:`~repro.vcs.storage.ObjectBackend.read_many`, which pack-style
        layouts serve grouped per pack in offset order — the lazy worktree's
        whole-tree materialisation path.
        """
        result: dict[str, Blob] = {}
        requested: set[str] = set()
        missing: list[str] = []
        for oid in oids:
            # Deduplicate up front: identical-content files share an oid and
            # must cost one backend read, not one per occurrence.
            if oid in requested:
                continue
            requested.add(oid)
            cached = self._cache_probe(oid)
            if cached is not None:
                if not isinstance(cached, Blob):
                    raise InvalidObjectError(
                        f"object {oid} has type {cached.type_name}, expected blob"
                    )
                result[oid] = cached
            else:
                missing.append(oid)
        if missing:
            try:
                for oid, object_type, payload in self._backend.read_many(missing):
                    obj = deserialize_object(object_type, payload)
                    if not isinstance(obj, Blob):
                        raise InvalidObjectError(
                            f"object {oid} has type {obj.type_name}, expected blob"
                        )
                    self._cache_insert(oid, obj)
                    result[oid] = obj
            except KeyError as exc:
                raise ObjectNotFoundError(exc.args[0]) from None
        return result

    def blob_size(self, oid: str) -> int:
        """Byte length of a stored blob without necessarily reading it.

        Cached objects answer from memory; otherwise the backend's size
        probe runs (record-level for packs).
        """
        cached = self._cache.get(oid)
        if isinstance(cached, Blob):
            return len(cached.data)
        try:
            return self._backend.read_size(oid)
        except KeyError:
            raise ObjectNotFoundError(oid) from None

    def get_tree(self, oid: str) -> Tree:
        return self._typed(oid, Tree)

    def get_commit(self, oid: str) -> Commit:
        return self._typed(oid, Commit)

    def get_tag(self, oid: str) -> Tag:
        return self._typed(oid, Tag)

    def _typed(self, oid: str, cls: type) -> VCSObject:
        obj = self.get(oid)
        if not isinstance(obj, cls):
            raise InvalidObjectError(
                f"object {oid} has type {obj.type_name}, expected {cls.type_name}"
            )
        return obj

    # -- queries -----------------------------------------------------------

    def __contains__(self, oid: str) -> bool:
        return oid in self._cache or oid in self._backend

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[str]:
        return self.iter_oids()

    def iter_oids(self) -> Iterator[str]:
        """Iterate over every stored object id."""
        return iter(self._backend.iter_oids())

    def object_ids(self) -> list[str]:
        """Return all stored object ids (unordered semantics, sorted output)."""
        return sorted(self._backend.iter_oids())

    def resolve_prefix(self, prefix: str) -> str:
        """Expand an abbreviated object id to the unique full id.

        Raises
        ------
        ObjectNotFoundError
            If no stored id starts with ``prefix``.
        InvalidObjectError
            If the prefix is ambiguous.
        """
        if len(prefix) < 4:
            raise InvalidObjectError("object id prefixes must have at least 4 characters")
        oids = self._sorted_oid_list()
        position = bisect_left(oids, prefix)
        count = 0
        while position + count < len(oids) and oids[position + count].startswith(prefix):
            count += 1
        self.last_resolve_scan_steps = count + 1
        if count == 0:
            raise ObjectNotFoundError(prefix)
        if count > 1:
            raise InvalidObjectError(f"ambiguous object id prefix {prefix!r} ({count} matches)")
        return oids[position]

    def _sorted_oid_list(self) -> list[str]:
        with self._lock:
            if self._indexed_mutation != self._backend.mutation_counter:
                # Record the counter *before* iterating so a write landing
                # mid-rebuild forces another rebuild instead of being lost.
                counter = self._backend.mutation_counter
                self._sorted_oids = sorted(self._backend.iter_oids())
                self._indexed_mutation = counter
            return self._sorted_oids

    def total_size(self) -> int:
        """Return the total number of payload bytes stored (for benchmarks)."""
        return self._backend.total_payload_size()

    # -- persistence -------------------------------------------------------

    def flush(self) -> None:
        """Make buffered backend writes durable (no-op for most backends)."""
        self._backend.flush()

    def close(self) -> None:
        """Flush and release backend resources; the store stays usable."""
        self._backend.close()

    def migrate_backend(self, new_backend: ObjectBackend) -> int:
        """Copy every object into ``new_backend`` and adopt it; returns the count.

        The store keeps its identity (callers holding references see the new
        layout transparently); the old backend is left untouched so the
        caller can delete or archive it.
        """
        moved = 0
        for oid in self._backend.iter_oids():
            if oid in new_backend:
                continue
            object_type, payload = self._backend.read(oid)
            new_backend.write(oid, object_type, payload)
            moved += 1
        new_backend.flush()
        with self._lock:
            self._backend = new_backend
            self._cache.clear()
            self._indexed_mutation = -1
        return moved

    def pin(self, oids: Iterable[str]) -> StoreLease:
        """Pin ``oids`` against garbage collection; returns the lease.

        Callers hold the lease for as long as they may still read the oids
        (lazy worktrees borrowing from this store do exactly that) and
        :meth:`StoreLease.release` it — or simply drop it — when done.
        """
        return StoreLease(self._leases, oids)

    def pinned_oids(self) -> set[str]:
        """The union of every live lease's oids (what gc must not drop)."""
        pinned: set[str] = set()
        with self._lock:
            leases = list(self._leases)
        for lease in leases:
            pinned |= lease.oids
        return pinned

    def gc(self, keep: set[str]) -> int:
        """Drop every object not in ``keep``; returns how many were removed.

        Leased oids (:meth:`pin`) are kept regardless of ``keep`` — the
        reachability walk that computed ``keep`` cannot see borrowers such
        as lazy worktrees adopted by other repositories, and dropping their
        backing blobs would corrupt reads they are entitled to make.
        """
        keep = set(keep) | self.pinned_oids()
        removed = self._backend.gc(keep)
        if removed:
            with self._lock:
                self._cache = OrderedDict(
                    (oid, obj) for oid, obj in self._cache.items() if oid in keep
                )
                self._commit_links.clear()
                self._generations.clear()
        return removed

    # -- transfer ----------------------------------------------------------

    def missing_from(self, other: "ObjectStore") -> list[str]:
        """Return ids present here but absent from ``other`` (push planning)."""
        return sorted(oid for oid in self._backend.iter_oids() if oid not in other._backend)

    def copy_objects_to(self, other: "ObjectStore", oids: Iterable[str] | None = None) -> int:
        """Copy raw objects into ``other``; returns the number copied.

        When ``oids`` is ``None`` every object is considered; objects already
        present in ``other`` are skipped.  Missing source ids are detected
        *before* anything is written, so a failed transfer never leaves
        ``other`` partially updated.  Source and destination may use
        different backend layouts — payloads move as raw bytes either way.
        """
        if oids is None:
            candidates: list[str] = list(self._backend.iter_oids())
        else:
            candidates = list(oids)
            for oid in candidates:
                # Ids the destination already holds need not exist here.
                if oid not in self._backend and oid not in other._backend:
                    raise ObjectNotFoundError(oid)
        copied = 0
        for oid in candidates:
            if oid in other._backend:
                continue
            object_type, payload = self._backend.read(oid)
            other._backend.write(oid, object_type, payload)
            copied += 1
        return copied

    def clone(self) -> "ObjectStore":
        """Return an independent in-memory copy of this store."""
        duplicate = ObjectStore(MemoryBackend())
        self.copy_objects_to(duplicate)
        return duplicate
