"""The abstract storage-backend API behind :class:`~repro.vcs.object_store.ObjectStore`.

A backend is a dumb, typed byte store: it maps a 40-character object id to a
``(type name, payload bytes)`` pair and knows nothing about blobs, trees or
commits.  All object semantics (hashing, (de)serialisation, prefix
resolution, caching) live in the :class:`ObjectStore` facade, which is why
two very different layouts — an in-memory dict and append-only pack files —
can sit behind the same five methods.

Every mutation bumps :attr:`ObjectBackend.mutation_counter`.  The facade's
lazily sorted oid index records the counter value it was built against and
rebuilds itself whenever the counter moved, so writes that bypass
``ObjectStore.put`` (raw transfers, migrations, direct backend writes) can
never leave a stale prefix index behind.

Thread-safety contract
----------------------
Backends are *single-writer-at-a-time, many-readers*: every state-changing
operation (write, write_many, flush, gc, repack, migrate) runs under the
backend's re-entrant :attr:`ObjectBackend._write_lock`, while readers take
**no lock at all**.  That asymmetry is deliberate — a hosted repository must
keep answering reads (clones, upload-pack negotiations) while a push is
flushing a pack — and it obliges every mutator to leave the backend readable
at all times: publish new state with single reference assignments, append
before you clear, and never let a reader observe a half-swapped index.  The
pack backend's atomically swapped ``(packs, midx)`` snapshot is the model.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.errors import StorageError

__all__ = ["ObjectBackend", "BackendSpec", "make_backend", "backend_kinds"]


class ObjectBackend(ABC):
    """Raw ``oid → (type, payload)`` storage with a mutation counter."""

    #: Short machine-readable layout name (``"memory"``/``"pack"``).
    kind: str = "abstract"

    def __init__(self) -> None:
        #: Monotonic counter bumped by every state-changing operation.
        self.mutation_counter = 0  # guarded-by: _write_lock
        #: Serialises mutators (re-entrant: flush inside repack inside gc).
        #: Readers never take it — see the module docstring.
        self._write_lock = threading.RLock()

    # -- core API ----------------------------------------------------------

    @abstractmethod
    def write(self, oid: str, type_name: str, payload: bytes) -> bool:
        """Store a raw object; return ``True`` if it was newly added."""

    def write_many(self, records: Iterable[tuple[str, str, bytes]]) -> int:
        """Store raw ``(oid, type, payload)`` records; return how many were new.

        The default loops :meth:`write`; layouts that can amortise
        bookkeeping across a batch (one mutation bump, one pending-buffer
        update) override it.  This is the bundle-apply write path.
        """
        added = 0
        for oid, type_name, payload in records:
            if self.write(oid, type_name, payload):
                added += 1
        return added

    @abstractmethod
    def read(self, oid: str) -> tuple[str, bytes]:
        """Return ``(type name, payload)``; raise :class:`KeyError` if absent."""

    @abstractmethod
    def read_type(self, oid: str) -> str:
        """Return the type name only; raise :class:`KeyError` if absent."""

    def read_many(self, oids: Iterable[str]) -> Iterator[tuple[str, str, bytes]]:
        """Yield ``(oid, type name, payload)`` for each requested oid.

        No ordering guarantee; a missing oid raises :class:`KeyError` when
        its turn comes.  The default loops :meth:`read`; layouts with
        per-read open/seek costs (packs) override it to batch — the lazy
        worktree's whole-tree materialisation goes through here.
        """
        for oid in oids:
            type_name, payload = self.read(oid)
            yield oid, type_name, payload

    def read_size(self, oid: str) -> int:
        """Logical payload size in bytes; raise :class:`KeyError` if absent.

        The default pays a full read; layouts that can derive it without
        reconstructing the payload (pack deltas) override it so size probes
        stay cheap.
        """
        return len(self.read(oid)[1])

    @abstractmethod
    def __contains__(self, oid: str) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def iter_oids(self) -> Iterator[str]:
        """Iterate over every stored oid (no ordering guarantee)."""

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Make pending writes durable (no-op for non-buffering backends)."""

    def close(self) -> None:
        """Release any held resources; the backend stays reopenable."""
        self.flush()

    # -- maintenance -------------------------------------------------------

    def gc(self, keep: set[str]) -> int:
        """Drop every object whose oid is not in ``keep``; return the count."""
        with self._write_lock:
            victims = [oid for oid in list(self.iter_oids()) if oid not in keep]
            for oid in victims:
                self._delete(oid)
            if victims:
                self.mutation_counter += 1
            return len(victims)

    def _delete(self, oid: str) -> None:  # pragma: no cover - overridden
        raise StorageError(f"{self.kind} backend cannot delete individual objects")

    def open_file_handles(self) -> int:
        """How many file handles the backend currently holds open.

        Layouts that keep read handles alive (the pack backend's bounded
        handle pool) override this; the memory layout opens nothing
        between calls and report 0.  Surfaced through :meth:`stats` for the
        CLI and the resource-bound regression tests.
        """
        return 0

    def total_payload_size(self) -> int:
        """Total *logical* payload bytes (not on-disk bytes) across objects."""
        return sum(len(self.read(oid)[1]) for oid in self.iter_oids())

    def stats(self) -> dict:
        """Layout-specific statistics for CLI reporting and benchmarks."""
        return {"kind": self.kind, "objects": len(self)}


#: What callers may pass as a ``storage=`` option: ``None`` (memory), a kind
#: name, a ``"kind:/path"`` spec, or an already constructed backend.
BackendSpec = Union[None, str, ObjectBackend]


def backend_kinds() -> tuple[str, ...]:
    """The storage layouts :func:`make_backend` knows how to build."""
    return ("memory", "pack")


def make_backend(spec: BackendSpec = None, root: str | Path | None = None) -> ObjectBackend:
    """Build a backend from a ``storage=`` specification.

    ``None`` or ``"memory"`` yields a fresh :class:`MemoryBackend`;
    ``"pack"`` requires a directory (either via ``root`` or inline as
    ``"pack:/some/dir"``); a backend instance is returned unchanged.
    """
    from repro.vcs.storage.memory import MemoryBackend
    from repro.vcs.storage.pack import PackBackend

    if spec is None:
        return MemoryBackend()
    if isinstance(spec, ObjectBackend):
        return spec
    if not isinstance(spec, str):
        raise StorageError(f"unsupported storage specification: {spec!r}")
    kind, separator, inline_root = spec.partition(":")
    if separator and inline_root:
        root = inline_root
    if kind == "memory":
        return MemoryBackend()
    if kind == "pack":
        if root is None:
            raise StorageError("storage kind 'pack' needs a directory (use 'pack:<dir>')")
        return PackBackend(Path(root))
    raise StorageError(f"unknown storage kind {kind!r}; expected one of {backend_kinds()}")
