"""The pack backend: append-only pack files with a sorted fanout index.

New writes accumulate in memory and :meth:`PackBackend.flush` appends them as
one pack file, so a bulk commit costs one sequential write instead of one
file per object.  Each pack ``pack-<digest>.pack`` carries a sidecar
``pack-<digest>.idx``:

``.pack`` layout::

    b"RPCK1\\n"
    repeated records, each:
      header line  b"full <type> <oid> <csize>\\n"
                or b"delta <type> <oid> <csize> <base-oid>\\n"
      csize bytes of zlib-compressed data (payload, or a delta against the
      *full* record of <base-oid> in the same pack; delta depth is 1)

The record header, the ``.idx`` (a sorted fanout index of ``(oid, record
offset)``) and the multi-pack ``.midx`` are each encoded and parsed by one
codec in :mod:`repro.vcs.storage.formats`, which fsck and the bundle
reader share; this module only moves their bytes to and from disk.

A lookup narrows to the oid's first-byte bucket via the fanout table, then
bisects inside the bucket — O(log bucket) with no payload touched.  Similar
blobs are stored as deltas: copy/insert opcodes against a base blob chosen
from a sliding window (:class:`DeltaWindow`, shared with the bundle writer),
kept only when materially smaller than the compressed full payload.  The
encoder (:func:`encode_delta`) is a linear-time block index over the base
that gives up once its literal bytes exceed that acceptance budget, so an
unrelated base costs a partial scan.  :meth:`repack` rewrites all packs as
one, re-running delta selection over the full object population; with a
``keep`` set it doubles as the garbage collector.  A missing/corrupt ``.idx`` is rebuilt by scanning the
pack, so the index is a cache, never the source of truth: any
``StorageError`` from its parse (a bad fanout, an offset outside the pack)
means rebuild, never trust.

Two structures keep the read path flat as packs accumulate between repacks:

* a **multi-pack index** (``multi-pack-index.midx``): one merged fanout over
  every pack, mapping each oid to ``(pack, record offset)``, rebuilt on
  ``flush``/``repack`` and validated against the pack set on open — a cold
  open with a valid midx reads one index file no matter how many packs
  exist, and every lookup is a single bisect instead of a per-pack probe
  loop.  Like the per-pack ``.idx`` it is a cache: stale, missing or corrupt
  midx files are rebuilt from the per-pack indexes (which are themselves
  recoverable by scanning the packs);
* a **bounded handle pool**: pack file handles are opened lazily and kept in
  an LRU of at most ``handle_limit`` open files, so a store fragmented into
  many packs cannot hold one descriptor per pack forever.

Concurrency: mutators (write, flush, repack, gc, close) run under the
backend write lock; readers run lock-free against an immutable
``(packs, midx)`` pair published in a single reference assignment
(:attr:`PackBackend._state`), so a lookup can never pair a new multi-pack
index with an old pack list or vice versa.  ``flush`` publishes the new
state *before* dropping the pending buffer (an object is always findable in
at least one of the two), and ``repack`` publishes before unlinking the
stale packs — a reader that raced the swap and hit a just-unlinked file
gets one retry against the fresh state.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.errors import CorruptObjectError, StorageError
from repro.utils import atomicio
from repro.utils.hashing import object_id
from repro.vcs.storage import formats
from repro.vcs.storage.base import ObjectBackend

__all__ = [
    "DeltaWindow", "PackBackend", "apply_delta", "delta_order", "encode_delta",
    "write_pack_index",
]

#: Upper bound on simultaneously open pack file handles.
_DEFAULT_HANDLE_LIMIT = 32
#: How many recently packed blobs are considered as delta bases.
_DELTA_WINDOW = 8
#: A delta is kept only when its compressed size beats this fraction of the
#: compressed full payload.
_DELTA_KEEP_RATIO = 0.75
#: On-disk cost a delta record pays over a full record (the base oid plus a
#: space in the header line); charged during delta acceptance so tiny blobs
#: whose body saving is smaller than the header growth stay full records.
_DELTA_HEADER_EXTRA = 41
#: Blobs larger than this are never delta-compressed.
_DELTA_MAX_BYTES = 4 * 1024 * 1024
#: Length of the base blocks the delta encoder indexes.  A match shorter
#: than this is only found when it extends an indexed block, so it bounds
#: both the index size (one entry per block) and the shortest copy.
_DELTA_BLOCK = 16


# ---------------------------------------------------------------------------
# Delta encoding: copy/insert opcodes against a base payload
# ---------------------------------------------------------------------------


def _match_forward(base: bytes, base_at: int, target: bytes, target_at: int) -> int:
    """Length of the common run of ``base[base_at:]`` and ``target[target_at:]``.

    Gallops over doubling slice comparisons, then bisects the last step, so
    a long run costs O(log length) C-level compares instead of a Python loop
    per byte.
    """
    limit = min(len(base) - base_at, len(target) - target_at)
    matched, step = 0, _DELTA_BLOCK
    while matched + step <= limit and (
        base[base_at + matched:base_at + matched + step]
        == target[target_at + matched:target_at + matched + step]
    ):
        matched += step
        step *= 2
    high = min(matched + step, limit)
    while matched < high:
        middle = (matched + high + 1) // 2
        if (
            base[base_at + matched:base_at + middle]
            == target[target_at + matched:target_at + middle]
        ):
            matched = middle
        else:
            high = middle - 1
    return matched


def _match_backward(base: bytes, base_end: int, target: bytes, target_end: int, limit: int) -> int:
    """Length (at most ``limit``) of the common run ending at both offsets."""
    matched, high = 0, limit
    while matched < high:
        middle = (matched + high + 1) // 2
        if (
            base[base_end - middle:base_end - matched]
            == target[target_end - middle:target_end - matched]
        ):
            matched = middle
        else:
            high = middle - 1
    return matched


def encode_delta(base: bytes, target: bytes, max_literal: float | None = None) -> bytes | None:
    """Encode ``target`` as copy/insert opcodes against ``base``.

    A block-index encoder, linear in both sizes: every aligned
    ``_DELTA_BLOCK``-byte block of ``base`` is indexed (first occurrence
    wins), ``target`` is scanned once, and each block hit is extended
    backwards into the pending literal run and forwards as far as both
    payloads agree.  Target bytes no copy covers become insert literals.

    ``max_literal`` is the caller's acceptance budget in literal bytes: the
    encoder gives up and returns ``None`` as soon as the literals would
    exceed it, so an unrelated base costs a partial scan, not a full one.
    Unmatched bytes count against the budget as they are scanned.  The
    output is a pure function of the inputs.
    """
    block = _DELTA_BLOCK
    index: dict[bytes, int] = {}
    for offset in range(0, len(base) - block + 1, block):
        index.setdefault(base[offset:offset + block], offset)
    budget = len(target) if max_literal is None else max_literal
    chunks: list[bytes] = []
    literal_start = 0  # first target byte of the pending literal run
    literal_total = 0  # literal bytes already emitted
    give_up_at = budget
    position = 0
    last = len(target) - block if index else -1
    while position <= last:
        base_at = index.get(target[position:position + block])
        if base_at is None:
            position += 1
            if position > give_up_at:
                return None
            continue
        back = _match_backward(
            base, base_at, target, position, min(base_at, position - literal_start)
        )
        stop = position + block + _match_forward(
            base, base_at + block, target, position + block
        )
        start = position - back
        if start > literal_start:
            chunks.append(b"I %d\n" % (start - literal_start))
            chunks.append(target[literal_start:start])
            literal_total += start - literal_start
        chunks.append(b"C %d %d\n" % (base_at - back, stop - start))
        literal_start = position = stop
        give_up_at = literal_start + budget - literal_total
    if literal_start < len(target):
        if len(target) > give_up_at:
            return None
        chunks.append(b"I %d\n" % (len(target) - literal_start))
        chunks.append(target[literal_start:])
    return b"".join(chunks)


def apply_delta(base: bytes, delta: bytes) -> bytes:
    """Reconstruct the target payload from ``base`` and an encoded delta."""
    output: list[bytes] = []
    position = 0
    while position < len(delta):
        newline = delta.index(b"\n", position)
        fields = delta[position:newline].split(b" ")
        position = newline + 1
        if fields[0] == b"C":
            offset, length = int(fields[1]), int(fields[2])
            output.append(base[offset:offset + length])
        elif fields[0] == b"I":
            length = int(fields[1])
            output.append(delta[position:position + length])
            position += length
        else:
            raise ValueError(f"unknown delta opcode: {fields[0]!r}")
    return b"".join(output)


def delta_output_length(delta: bytes) -> int:
    """Target payload size encoded by a delta, without applying it."""
    total = 0
    position = 0
    while position < len(delta):
        newline = delta.index(b"\n", position)
        fields = delta[position:newline].split(b" ")
        position = newline + 1
        if fields[0] == b"C":
            total += int(fields[2])
        else:
            length = int(fields[1])
            total += length
            position += length
    return total


def _delta_worth_trying(base: bytes, target: bytes) -> bool:
    if not base or not target:
        return False
    if len(base) > _DELTA_MAX_BYTES or len(target) > _DELTA_MAX_BYTES:
        return False
    longer, shorter = max(len(base), len(target)), min(len(base), len(target))
    return shorter * 2 >= longer


def delta_order(oids: Iterable[str], describe) -> list[str]:
    """Order a record stream so the delta window actually hits.

    ``describe(oid)`` returns ``(type name, payload size)``; the size is
    only used for blobs.  Non-blobs (small, rarely similar) go first sorted
    by oid; blobs follow sorted by (size, oid) — revisions of the same file
    have near-identical sizes, so similar payloads land inside the sliding
    window.  (An oid-sorted stream scatters revisions randomly and the
    window almost never hits.)  Pack files and bundles share this order.
    """
    blobs: list[tuple[int, str]] = []
    others: list[str] = []
    for oid in oids:
        type_name, size = describe(oid)
        if type_name == "blob":
            blobs.append((size, oid))
        else:
            others.append(oid)
    return sorted(others) + [oid for _, oid in sorted(blobs)]


class DeltaWindow:
    """Delta selection for one record stream (a pack file or a bundle).

    Holds the last ``_DELTA_WINDOW`` *full* blob payloads as candidate
    bases.  :meth:`encode` turns each record into its header line and
    compressed body: a blob is tried against the bases most recent first,
    and the first delta that beats ``_DELTA_KEEP_RATIO`` of the compressed
    full payload (after the header growth) wins — git's heuristic, with
    depth capped at 1 because a delta's base is always a full record of the
    same stream.
    """

    def __init__(self) -> None:
        self._bases: list[tuple[str, bytes]] = []

    def encode(self, oid: str, type_name: str, payload: bytes) -> tuple[bytes, bytes]:
        """Return ``(header line, body)`` for one record, in stream order."""
        full_compressed = zlib.compress(payload)
        if type_name == "blob":
            budget = _DELTA_KEEP_RATIO * len(full_compressed) - _DELTA_HEADER_EXTRA
            # Literal bytes are assumed to compress like the payload as a whole.
            max_literal = budget * len(payload) / len(full_compressed)
            for base_oid, base_payload in reversed(self._bases):
                if not _delta_worth_trying(base_payload, payload):
                    continue
                delta = encode_delta(base_payload, payload, max_literal)
                if delta is None:
                    continue
                delta_compressed = zlib.compress(delta)
                if len(delta_compressed) < budget:
                    header = formats.encode_record_header(
                        "delta", "blob", oid, len(delta_compressed), base_oid
                    )
                    return header, delta_compressed
            self._bases.append((oid, payload))
            if len(self._bases) > _DELTA_WINDOW:
                self._bases.pop(0)
        header = formats.encode_record_header("full", type_name, oid, len(full_compressed))
        return header, full_compressed


def write_pack_index(index_path: Path, entries: Iterable[tuple[str, int]]) -> None:
    """Write the sorted fanout index for one pack's ``(oid, offset)`` entries."""
    # The idx is a rebuildable cache of its pack, so the write is atomic
    # (no torn index is ever visible) but not fsynced — losing it to a
    # power cut costs one pack scan on the next open, not data.
    atomicio.atomic_write_bytes(index_path, formats.encode_idx(entries), failpoint="pack.idx")


# ---------------------------------------------------------------------------
# Bounded pool of open pack file handles
# ---------------------------------------------------------------------------


class _HandlePool:
    """An LRU of open read handles, bounded to ``limit`` descriptors.

    Thread-safe: the LRU bookkeeping runs under a lock, and record access
    reads through :func:`os.pread` (no shared seek position), so one handle
    can serve any number of reader threads.  A handle evicted or closed
    while another thread is mid-read surfaces as ``OSError``/``ValueError``
    there, which the backend's read retry re-acquires through a fresh open.
    """

    def __init__(self, limit: int = _DEFAULT_HANDLE_LIMIT) -> None:
        self.limit = max(1, limit)
        self._handles: "OrderedDict[Path, BinaryIO]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    def acquire(self, path: Path) -> BinaryIO:
        with self._lock:
            handle = self._handles.get(path)
            if handle is not None and not handle.closed:
                self._handles.move_to_end(path)
                return handle
            handle = path.open("rb")
            self._handles[path] = handle
            while len(self._handles) > self.limit:
                _, evicted = self._handles.popitem(last=False)
                evicted.close()
            return handle

    def discard(self, path: Path) -> None:
        with self._lock:
            handle = self._handles.pop(path, None)
        if handle is not None:
            handle.close()

    def close_all(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.close()

    @property
    def open_count(self) -> int:
        with self._lock:
            return sum(1 for handle in self._handles.values() if not handle.closed)


# ---------------------------------------------------------------------------
# A single on-disk pack and its fanout index
# ---------------------------------------------------------------------------


class _PackFile:
    """One immutable pack file plus its (lazily loaded) fanout index.

    With ``defer_index=True`` the ``.idx`` is not touched until the first
    per-pack lookup — a backend whose multi-pack index is valid never loads
    it at all.  ``pool`` shares a bounded handle pool across packs; without
    one the pack owns a private handle (standalone/test use).
    """

    def __init__(self, pack_path: Path, pool: _HandlePool | None = None,
                 defer_index: bool = False) -> None:
        self.path = pack_path
        self.index_path = pack_path.with_suffix(".idx")
        self._pool = pool
        self._handle = None
        self._oids: list[str] = []
        self._offsets: list[int] = []
        self._fanout: list[int] = [0] * 257
        self._indexed = False
        if not defer_index:
            self._ensure_index()

    def _ensure_index(self) -> None:
        if self._indexed:
            return
        if self.index_path.is_file():
            try:
                self._load_index()
                self._indexed = True
                return
            except (OSError, StorageError):
                pass  # fall through to a rebuild from the pack itself
        self._rebuild_index()
        self._indexed = True

    # -- index (de)serialisation ------------------------------------------

    def _load_index(self) -> None:
        """The one idx read: parse against the pack's current size."""
        index = formats.parse_idx(
            self.index_path.read_bytes(), self.path.stat().st_size, self.index_path
        )
        self._oids, self._offsets, self._fanout = index

    def _rebuild_index(self) -> None:
        """Recover the index by scanning the pack records sequentially."""
        entries: list[tuple[str, int]] = []
        with self.path.open("rb") as handle:
            magic = handle.read(len(formats.PACK_MAGIC))
            if magic != formats.PACK_MAGIC:
                raise StorageError(f"{self.path} is not a pack file")
            offset = handle.tell()
            while True:
                chunk = handle.read(formats.MAX_HEADER_BYTES)
                if not chunk:
                    break
                _, _, oid, csize, _, end = formats.parse_record_header(
                    chunk, 0, self.path, origin=offset
                )
                entries.append((oid, offset))
                offset += end + csize
                handle.seek(offset)
        write_pack_index(self.index_path, entries)
        self._load_index()

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_index()
        return len(self._oids)

    @property
    def oids(self) -> list[str]:
        self._ensure_index()
        return self._oids

    def entries(self) -> Iterator[tuple[str, int]]:
        """Sorted ``(oid, offset)`` pairs (the midx merges these)."""
        self._ensure_index()
        return zip(self._oids, self._offsets)

    def lookup(self, oid: str) -> int | None:
        """Record offset of ``oid`` via fanout bucket + bisect, or ``None``."""
        self._ensure_index()
        position = formats.find(self._oids, self._fanout, oid)
        return None if position is None else self._offsets[position]

    # -- record access -----------------------------------------------------

    def _file(self):
        if self._pool is not None:
            return self._pool.acquire(self.path)
        if self._handle is None:
            self._handle = self.path.open("rb")
        return self._handle

    def _read_at(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` without a shared seek position.

        :func:`os.pread` keeps one pooled handle safe under any number of
        concurrent readers (each call carries its own offset); the
        seek+read fallback covers platforms without it, where the backend's
        write lock is the only serialisation.
        """
        handle = self._file()
        if hasattr(os, "pread"):
            return os.pread(handle.fileno(), size, offset)
        handle.seek(offset)
        return handle.read(size)

    def read_record(self, offset: int) -> tuple[str, str, bytes, str | None]:
        """Return ``(kind, type, data, base oid)`` for the record at ``offset``."""
        chunk = self._read_at(offset, formats.MAX_HEADER_BYTES)
        kind, type_name, oid, csize, base_oid, end = formats.parse_record_header(
            chunk, 0, self.path, origin=offset
        )
        compressed = chunk[end:end + csize]
        if len(compressed) < csize:
            compressed += self._read_at(offset + end + len(compressed), csize - len(compressed))
        try:
            data = zlib.decompress(compressed)
        except zlib.error as exc:
            raise CorruptObjectError(oid, f"zlib decompression failed: {exc}") from exc
        return kind, type_name, data, base_oid

    def read_header(self, offset: int) -> tuple[str, str, str, int, str | None, int]:
        """The record's parsed header at ``offset``, without reading its body."""
        chunk = self._read_at(offset, formats.MAX_HEADER_BYTES)
        return formats.parse_record_header(chunk, 0, self.path, origin=offset)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.discard(self.path)
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# The multi-pack index
# ---------------------------------------------------------------------------


class _MultiPackIndex:
    """One merged fanout index across every pack of a backend.

    ``multi-pack-index.midx`` maps each oid to ``(pack number, record
    offset)``; its byte layout is :func:`repro.vcs.storage.formats.parse_midx`.
    The recorded pack-name list doubles as the staleness check: packs are
    immutable and digest-named, so the midx is valid exactly when its name
    list matches the backend's current packs (in order).  Duplicated oids
    keep their first (oldest-pack) entry; any copy verifies against the oid
    on read, so the choice is free.
    """

    def __init__(self, root: Path) -> None:
        self.path = root / formats.MIDX_NAME
        self.pack_names: list[str] = []
        self._oids: list[str] = []
        self._pack_numbers: list[int] = []
        self._offsets: list[int] = []
        self._fanout: list[int] = [0] * 257

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, root: Path, pack_paths: Iterable[Path]) -> "_MultiPackIndex | None":
        """Load a midx covering exactly the packs at ``pack_paths``.

        Pack *order* is whatever the midx recorded (append order — the
        backend re-orders its pack list to match).  ``None`` asks for a
        rebuild: the midx is missing, does not parse against the packs'
        sizes, or is stale (a differing name set means packs were added or
        removed behind it).
        """
        midx = cls(root)
        if not midx.path.is_file():
            return None
        try:
            sizes = {path.name: path.stat().st_size for path in pack_paths}
            parsed = formats.parse_midx(midx.path.read_bytes(), sizes, midx.path)
        except (OSError, StorageError):
            return None
        if len(parsed.pack_names) != len(sizes):
            return None
        midx.pack_names, midx._oids, midx._pack_numbers, midx._offsets, midx._fanout = parsed
        return midx

    @classmethod
    def build(
        cls,
        root: Path,
        streams: list[tuple[str, Iterable[tuple[str, int]]]],
    ) -> "_MultiPackIndex":
        """Merge per-pack ``(oid, offset)`` streams into one index.

        ``streams`` pairs each pack file name with its sorted entries —
        either a pack's own ``.idx`` content or a slice of a previous midx,
        so appending a pack never forces older packs' indexes to be read.
        """
        midx = cls(root)
        midx.pack_names = [name for name, _ in streams]

        def tag(number: int, entries: Iterable[tuple[str, int]]):
            for oid, offset in entries:
                yield oid, number, offset

        tagged = [tag(number, entries) for number, (_, entries) in enumerate(streams)]
        previous = None
        for oid, pack_number, offset in heapq.merge(*tagged):
            if oid == previous:
                continue
            previous = oid
            midx._oids.append(oid)
            midx._pack_numbers.append(pack_number)
            midx._offsets.append(offset)
        midx._fanout = formats.build_fanout(midx._oids)
        midx._write()
        return midx

    def _write(self) -> None:
        blob = formats.encode_midx(self.pack_names, self._oids, self._pack_numbers, self._offsets)
        try:
            atomicio.atomic_write_bytes(self.path, blob, failpoint="pack.midx")
        except OSError:
            # The midx is a cache; an unwritable one degrades to the
            # in-memory copy for this process and a rebuild next open.
            pass

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._oids)

    @property
    def oids(self) -> list[str]:
        return self._oids

    def lookup(self, oid: str) -> tuple[int, int] | None:
        """``(pack number, record offset)`` for ``oid``, or ``None``."""
        position = formats.find(self._oids, self._fanout, oid)
        if position is None:
            return None
        return self._pack_numbers[position], self._offsets[position]

    def entries_by_pack(self) -> list[list[tuple[str, int]]]:
        """Per-pack sorted ``(oid, offset)`` lists, one scan over the index
        (for append merges — older packs' ``.idx`` files stay untouched)."""
        buckets: list[list[tuple[str, int]]] = [[] for _ in self.pack_names]
        for oid, number, offset in zip(self._oids, self._pack_numbers, self._offsets):
            buckets[number].append((oid, offset))
        return buckets


# ---------------------------------------------------------------------------
# The backend proper
# ---------------------------------------------------------------------------


class PackBackend(ObjectBackend):
    """Buffered writes + append-only packs + fanout-indexed reads.

    ``use_midx`` (default on) maintains the multi-pack index so lookups are
    one bisect across all packs and cold opens read a single index file;
    ``handle_limit`` bounds the pool of simultaneously open pack handles.
    """

    kind = "pack"

    def __init__(self, root: str | Path, use_midx: bool = True,
                 handle_limit: int = _DEFAULT_HANDLE_LIMIT) -> None:
        super().__init__()
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create pack directory {self.root}: {exc}") from exc
        # Orphans from writers that crashed mid-write (torn temp files that
        # never reached their rename) are garbage by construction: any
        # ``.tmp-*`` visible at open time has no live writer behind it.
        atomicio.sweep_orphan_tmp(self.root)
        self._pending: dict[str, tuple[str, bytes]] = {}  # guarded-by: _write_lock
        self._pool = _HandlePool(handle_limit)
        self._use_midx = use_midx
        packs: list[_PackFile] = []
        for pack_path in sorted(self.root.glob("pack-*.pack")):
            packs.append(_PackFile(pack_path, pool=self._pool, defer_index=use_midx))
        midx: _MultiPackIndex | None = None
        if use_midx:
            midx = _MultiPackIndex.load(self.root, [pack.path for pack in packs])
            if midx is not None:
                # The midx's entries are keyed by its own (append-order)
                # pack numbering; adopt that ordering.
                by_name = {pack.path.name: pack for pack in packs}
                packs = [by_name[name] for name in midx.pack_names]
            else:
                # Missing/stale/corrupt: rebuild from the per-pack indexes
                # (each itself recoverable by scanning its pack).
                midx = _MultiPackIndex.build(
                    self.root,
                    [(pack.path.name, pack.entries()) for pack in packs],
                )
        #: The lock-free read view: an immutable (packs, midx) pair, always
        #: replaced with a single reference assignment so readers can never
        #: observe a midx whose pack numbers index a different pack list.
        self._state: tuple[tuple[_PackFile, ...], _MultiPackIndex | None] = (  # guarded-by: _write_lock
            tuple(packs), midx,
        )

    @property
    def _packs(self) -> tuple[_PackFile, ...]:
        """The current pack list (read-only snapshot component)."""
        return self._state[0]

    @property
    def _midx(self) -> _MultiPackIndex | None:
        """The current multi-pack index (read-only snapshot component)."""
        return self._state[1]

    # -- core API ----------------------------------------------------------

    def write(self, oid: str, type_name: str, payload: bytes) -> bool:
        with self._write_lock:
            if oid in self:
                return False
            self._pending[oid] = (type_name, payload)
            self.mutation_counter += 1
            return True

    def write_many(self, records) -> int:
        """Batch writes into the pending buffer with one mutation bump."""
        with self._write_lock:
            added = 0
            for oid, type_name, payload in records:
                if oid not in self:
                    self._pending[oid] = (type_name, payload)
                    added += 1
            if added:
                self.mutation_counter += 1
            return added

    def _packed_lookup(self, oid: str) -> tuple[_PackFile, int] | None:
        packs, midx = self._state
        if midx is not None:
            located = midx.lookup(oid)
            if located is None:
                return None
            pack_number, offset = located
            return packs[pack_number], offset
        for pack in packs:
            offset = pack.lookup(oid)
            if offset is not None:
                return pack, offset
        return None

    def _base_offset_in(self, pack: _PackFile, base_oid: str) -> int | None:
        """Offset of a delta's base record, which lives in the same pack.

        The midx may map a duplicated base oid to a *different* pack, so it
        is only trusted when it points into ``pack``; otherwise the pack's
        own index answers.
        """
        packs, midx = self._state
        if midx is not None:
            located = midx.lookup(base_oid)
            if located is not None and located[0] < len(packs) and packs[located[0]] is pack:
                return located[1]
        return pack.lookup(base_oid)

    def _read_packed(self, pack: _PackFile, offset: int, oid: str) -> tuple[str, bytes]:
        kind, type_name, data, base_oid = pack.read_record(offset)
        if kind == "delta":
            base_offset = self._base_offset_in(pack, base_oid) if base_oid else None
            if base_offset is None:
                raise CorruptObjectError(oid, f"delta base {base_oid} missing from pack")
            base_kind, _, base_data, _ = pack.read_record(base_offset)
            if base_kind != "full":
                raise CorruptObjectError(oid, f"delta base {base_oid} is not a full record")
            try:
                data = apply_delta(base_data, data)
            except (ValueError, IndexError) as exc:
                raise CorruptObjectError(oid, f"malformed delta body: {exc}") from exc
        if object_id(type_name, data) != oid:
            raise CorruptObjectError(oid, "payload does not hash to the indexed oid")
        return type_name, data

    def _read_record(self, oid: str, reader):
        """The lock-free read skeleton: pending buffer, then packed lookup.

        ``reader(pack, offset)`` does the actual record access.  A reader
        that raced a concurrent flush may find the oid in neither the
        pending dict it snapshotted nor the state it looked up (the buffer
        was dropped between the two); one that raced a repack may hit a
        just-unlinked pack file (``OSError``), a pooled handle the repack
        closed mid-read (``ValueError`` from the closed file object), or —
        when an idempotent repack atomically replaced the pack *at the same
        path* — a stale offset into the new file, which parses as garbage
        (``StorageError``, ``CorruptObjectError``, ``IndexError``,
        ``ValueError``).  Either way a single retry against the freshly
        published state settles it — mutators hold the write lock, so at
        most one swap was in flight.  An error that *survives* the retry is
        re-raised as-is: at that point it is genuine corruption, not a race.
        """
        last_error: BaseException = KeyError(oid)
        for _attempt in range(2):
            pending = self._pending
            if oid in pending:
                try:
                    return pending[oid], None
                except KeyError:
                    pass  # flush swapped the buffer between the check and the read
            located = self._packed_lookup(oid)
            if located is not None:
                pack, offset = located
                try:
                    return None, reader(pack, offset)
                except (OSError, ValueError, IndexError, StorageError, CorruptObjectError) as exc:
                    last_error = exc
                    continue
        if isinstance(last_error, (KeyError, StorageError, CorruptObjectError)):
            raise last_error
        raise KeyError(oid) from last_error

    def read(self, oid: str) -> tuple[str, bytes]:
        buffered, packed = self._read_record(
            oid, lambda pack, offset: self._read_packed(pack, offset, oid)
        )
        return buffered if buffered is not None else packed

    def read_type(self, oid: str) -> str:
        buffered, packed = self._read_record(
            oid, lambda pack, offset: pack.read_header(offset)[1]
        )
        return buffered[0] if buffered is not None else packed

    def read_many(self, oids: Iterable[str]) -> Iterator[tuple[str, str, bytes]]:
        """Batched reads grouped per pack and sorted by record offset.

        One handle acquisition per touched pack and a monotonically forward
        seek pattern inside each, instead of a per-oid index probe + random
        seek — this is what serves the lazy worktree's whole-tree
        materialisation without churning the handle pool.
        """
        pending = self._pending
        per_pack: dict[int, list[tuple[int, str]]] = {}
        packs_by_id: dict[int, _PackFile] = {}
        for oid in oids:
            if oid in pending:
                type_name, payload = pending[oid]
                yield oid, type_name, payload
                continue
            located = self._packed_lookup(oid)
            if located is None:
                raise KeyError(oid)
            pack, offset = located
            packs_by_id[id(pack)] = pack
            per_pack.setdefault(id(pack), []).append((offset, oid))
        for pack_id, records in per_pack.items():
            pack = packs_by_id[pack_id]
            for offset, oid in sorted(records):
                try:
                    type_name, payload = self._read_packed(pack, offset, oid)
                except (OSError, ValueError, IndexError, StorageError, CorruptObjectError):
                    # A repack swapped the pack set (unlinked the file,
                    # closed its pooled handle, or replaced it in place)
                    # mid-batch; the single-read path re-resolves against
                    # the fresh state and re-raises genuine corruption.
                    type_name, payload = self.read(oid)
                yield oid, type_name, payload

    def read_size(self, oid: str) -> int:
        """Logical payload size from the record alone — full records report
        their decompressed length, delta records the length their opcodes
        encode; neither applies the delta or re-verifies the hash."""

        def sized(pack: _PackFile, offset: int) -> int:
            kind, _, data, _ = pack.read_record(offset)
            return delta_output_length(data) if kind == "delta" else len(data)

        buffered, packed = self._read_record(oid, sized)
        return len(buffered[1]) if buffered is not None else packed

    def __contains__(self, oid: str) -> bool:
        return oid in self._pending or self._packed_lookup(oid) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_oids())

    def iter_oids(self) -> Iterator[str]:
        """All oids in sorted order (merge of pending + packed indexes)."""
        # One coherent snapshot up front: the pending buffer reference and
        # the (packs, midx) pair, so a concurrent flush/repack cannot make
        # oids flicker in and out mid-iteration.
        pending = self._pending
        packs, midx = self._state
        streams: list[Iterable[str]] = [sorted(pending)]
        if midx is not None:
            streams.append(midx.oids)
        else:
            streams.extend(pack.oids for pack in packs)
        previous = None
        for oid in heapq.merge(*streams):
            if oid != previous:
                previous = oid
                yield oid

    # -- pack writing ------------------------------------------------------

    def _write_pack_stream(
        self, ordered: list[str], fetch, failpoint: str = "storage.flush"
    ) -> _PackFile:
        """Write one pack (+ index) from ``fetch(oid) → (type, payload)``.

        Streaming: each record is compressed and written as it is fetched,
        and only the delta window (≤ ``_DELTA_WINDOW`` full blob payloads)
        is held in memory — repacking a store larger than RAM stays within
        the layout's own scaling claim.  The pack lands via a fsynced temp
        file + atomic rename (pack data is source of truth, unlike the
        rebuildable idx/midx caches), so a crash mid-write leaves no
        half-pack behind and a completed pack survives a power cut.
        """
        digest = hashlib.sha1("\n".join(sorted(ordered)).encode("ascii")).hexdigest()[:16]
        pack_path = self.root / f"pack-{digest}.pack"
        entries: list[tuple[str, int]] = []
        deltas = DeltaWindow()
        out = atomicio.AtomicFile(pack_path, durable=True, failpoint=failpoint)
        try:
            out.write(formats.PACK_MAGIC)
            for oid in ordered:
                header, body = deltas.encode(oid, *fetch(oid))
                entries.append((oid, out.tell()))
                out.write(header)
                out.write(body)
            out.commit()
        finally:
            out.close()
        write_pack_index(pack_path.with_suffix(".idx"), entries)
        return _PackFile(pack_path, pool=self._pool)

    def _write_pack(self, objects: dict[str, tuple[str, bytes]]) -> _PackFile:
        """Materialise in-memory ``objects`` as one pack (+ index)."""
        ordered = delta_order(objects, lambda oid: (objects[oid][0], len(objects[oid][1])))
        return self._write_pack_stream(ordered, objects.__getitem__)

    def _build_midx(
        self, packs: tuple[_PackFile, ...], appended: _PackFile | None = None
    ) -> _MultiPackIndex | None:
        """Build the multi-pack index for a prospective pack set.

        Appending a pack merges the previous midx with the new pack's
        entries — older packs' ``.idx`` files are not re-read.  Pure with
        respect to the backend: the caller publishes the result together
        with ``packs`` in one state swap.
        """
        if not self._use_midx:
            return None
        current = self._state[1]
        if (
            appended is not None
            and current is not None
            and current.pack_names == [p.path.name for p in packs[:-1]]
        ):
            streams = list(zip(current.pack_names, current.entries_by_pack()))
            streams.append((appended.path.name, list(appended.entries())))
        else:
            streams = [(pack.path.name, pack.entries()) for pack in packs]
        return _MultiPackIndex.build(self.root, streams)

    def flush(self) -> None:
        """Append pending objects as a new pack file (and refresh the midx)."""
        with self._write_lock:
            if not self._pending:
                return
            new_pack = self._write_pack(self._pending)
            packs = self._state[0] + (new_pack,)
            self._state = (packs, self._build_midx(packs, appended=new_pack))
            # Drop the buffer only after the new state is visible: a reader
            # finds every flushed oid in the old pending dict it snapshotted
            # or in the just-published pack — never in neither.
            self._pending = {}

    def close(self) -> None:
        with self._write_lock:
            self.flush()
            for pack in self._state[0]:
                pack.close()
            self._pool.close_all()

    def open_file_handles(self) -> int:
        """How many pack file handles are currently open (pool-bounded)."""
        return self._pool.open_count

    # -- maintenance -------------------------------------------------------

    def repack(self, keep: set[str] | None = None) -> dict:
        """Rewrite everything (pending included) as a single optimised pack.

        ``keep`` restricts the survivors — that is the gc entry point.  The
        operation is idempotent: repacking an already single-pack store
        rewrites it to the identical object population.  The replacement
        pack is fully written and indexed *before* the stale packs are
        deleted, so a crash or full disk mid-repack never loses objects;
        only the delta window is held in memory, never the whole store.
        """
        with self._write_lock:
            before = self.stats()
            self.flush()
            survivors = [
                oid for oid in self.iter_oids() if keep is None or oid in keep
            ]

            def describe(oid: str) -> tuple[str, int]:
                # Type + logical size from the record alone: one
                # decompression, no delta application, no hash verification —
                # the sizing pass must not double the full read cost of the
                # write pass.
                pack, offset = self._packed_lookup(oid)
                kind, type_name, data, _ = pack.read_record(offset)
                size = delta_output_length(data) if kind == "delta" else len(data)
                return type_name, size

            ordered = delta_order(survivors, describe)
            old_packs = self._state[0]
            new_pack = (
                self._write_pack_stream(ordered, self.read, failpoint="pack.repack")
                if ordered
                else None
            )
            # Publish the replacement view *before* unlinking the stale
            # packs: a reader that raced the swap at worst touches a
            # just-unlinked file and retries against this state.
            packs = (new_pack,) if new_pack is not None else ()
            self._state = (packs, self._build_midx(packs))
            for pack in old_packs:
                pack.close()
                if new_pack is not None and pack.path == new_pack.path:
                    continue  # idempotent repack: replaced atomically in place
                for stale in (pack.path, pack.index_path):
                    try:
                        stale.unlink()
                    except OSError:
                        pass
            dropped = before["objects"] - len(ordered)
            if dropped:
                self.mutation_counter += 1
            after = self.stats()
        return {
            "objects_before": before["objects"],
            "objects_after": len(ordered),
            "objects_dropped": dropped,
            "packs_before": before["packs"],
            "packs_after": after["packs"],
            "disk_bytes_before": before["disk_bytes"],
            "disk_bytes_after": after["disk_bytes"],
        }

    def gc(self, keep: set[str]) -> int:
        return self.repack(keep=keep)["objects_dropped"]

    def on_disk_bytes(self) -> int:
        """Total pack + index bytes currently stored under the root."""
        total = 0
        for pack in self._packs:
            for path in (pack.path, pack.index_path):
                if path.is_file():
                    total += path.stat().st_size
        return total

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "objects": len(self),
            "packs": len(self._packs),
            "pending": len(self._pending),
            "disk_bytes": self.on_disk_bytes(),
            "open_handles": self.open_file_handles(),
            "midx": self._midx is not None,
            "root": str(self.root),
        }
