"""The bundle format: a self-contained, verifiable transfer byte stream.

A bundle is the wire payload of the sync subsystem and the on-disk artefact
of ``gitcite bundle create``.  Layout::

    b"RBNDL1\\n"
    header lines (ascii, one record each):
      "prerequisite <oid>\\n"       commits the receiver must already have
      "branch <name> <oid>\\n"      the sender's branch tips carried along
      "tag <name> <oid>\\n"
      "head <branch name>\\n"       (optional) the sender's attached HEAD
    "objects <count>\\n"
    repeated object records, exactly the pack-file shape:
      "full <type> <oid> <csize>\\n"           + csize bytes of zlib payload
      "delta <type> <oid> <csize> <base-oid>\\n" + csize bytes of zlib delta
    "checksum <sha1 hex of every preceding byte>\\n"

Record headers are written and parsed by the pack store's one record-header
codec (:func:`repro.vcs.storage.formats.parse_record_header`), so a bundle
record and a pack record obey the same grammar.

Similar blobs are delta-compressed by the pack backend's delta selection
(:class:`repro.vcs.storage.pack.DeltaWindow`: a sliding window of recently
written full blobs as bases, and the linear-time block-index encoder
:func:`~repro.vcs.storage.pack.encode_delta`); a delta's base is always an
earlier full record of the same bundle, so the stream stays self-contained —
no receiver-side object is ever needed to decode it, only to satisfy the
declared prerequisites.

Everything is verified before anything is trusted: the trailing checksum
catches truncation and bit-flips, and :meth:`Bundle.materialize` re-hashes
every decoded object against its declared id, so a forged or corrupted
record can never be installed under a wrong name.  All failures raise
:class:`~repro.errors.BundleError`.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import Iterable

from repro import faults
from repro.errors import BundleChecksumError, BundleError, StorageError
from repro.utils.hashing import object_id
from repro.vcs.storage.formats import parse_record_header
from repro.vcs.storage.pack import DeltaWindow, apply_delta, delta_order

__all__ = ["Bundle", "BundleRecord", "BundleWriter", "read_bundle", "write_bundle"]

_BUNDLE_MAGIC = b"RBNDL1\n"


@dataclass(frozen=True)
class BundleRecord:
    """One object record: compressed body plus enough header to place it."""

    kind: str  # "full" | "delta"
    type_name: str
    oid: str
    body: bytes  # zlib-compressed payload (full) or delta opcodes (delta)
    base_oid: str | None = None


@dataclass(frozen=True)
class Bundle:
    """A parsed (checksum-verified) bundle."""

    prerequisites: tuple[str, ...]
    branches: dict
    tags: dict
    head_branch: str | None
    records: tuple[BundleRecord, ...]

    @property
    def object_count(self) -> int:
        return len(self.records)

    def materialize(self) -> dict[str, tuple[str, bytes]]:
        """Decode every record into ``{oid: (type, payload)}``, verifying ids.

        Deltas are applied against earlier full records of the same bundle;
        every reconstructed payload is re-hashed against its declared oid.
        Any decompression failure, dangling in-bundle base or hash mismatch
        raises :class:`BundleError` — nothing partially decoded escapes.
        """
        objects: dict[str, tuple[str, bytes]] = {}
        for record in self.records:
            try:
                data = zlib.decompress(record.body)
            except zlib.error as exc:
                raise BundleError(f"object {record.oid}: corrupt record body: {exc}") from exc
            if record.kind == "delta":
                base = objects.get(record.base_oid or "")
                if base is None:
                    raise BundleError(
                        f"object {record.oid}: delta base {record.base_oid} "
                        "is not an earlier bundle record"
                    )
                try:
                    data = apply_delta(base[1], data)
                except (ValueError, IndexError) as exc:
                    raise BundleError(f"object {record.oid}: malformed delta: {exc}") from exc
            if object_id(record.type_name, data) != record.oid:
                raise BundleError(
                    f"object {record.oid}: payload does not hash to its declared id"
                )
            objects[record.oid] = (record.type_name, data)
        return objects


class BundleWriter:
    """Accumulate objects and serialise them as one delta-compressed bundle.

    The writer shares the pack writer's record order
    (:func:`~repro.vcs.storage.pack.delta_order`: non-blobs first sorted by
    oid, blobs by (size, oid) so revisions of the same file land inside the
    delta window) and its delta selection
    (:class:`~repro.vcs.storage.pack.DeltaWindow`), so both formats pick
    bases under the same acceptance thresholds.  The ordering pass uses the
    store's type/size probes (header-only on disk layouts); payloads are
    read once, while serialising.
    """

    def __init__(
        self,
        store,
        prerequisites: Iterable[str] = (),
        branches: dict | None = None,
        tags: dict | None = None,
        head_branch: str | None = None,
    ) -> None:
        self._store = store
        self.prerequisites = list(dict.fromkeys(prerequisites))
        self.branches = dict(branches or {})
        self.tags = dict(tags or {})
        self.head_branch = head_branch
        self._oids: list[str] = []
        self._seen: set[str] = set()

    @property
    def object_count(self) -> int:
        return len(self._oids)

    def add(self, oids: Iterable[str]) -> "BundleWriter":
        for oid in oids:
            if oid not in self._seen:
                self._seen.add(oid)
                self._oids.append(oid)
        return self

    def _describe(self, oid: str) -> tuple[str, int]:
        type_name = self._store.get_type(oid)
        return type_name, self._store.blob_size(oid) if type_name == "blob" else 0

    def getvalue(self) -> bytes:
        """Serialise the accumulated objects as a complete bundle stream."""
        chunks: list[bytes] = [_BUNDLE_MAGIC]
        for oid in self.prerequisites:
            chunks.append(f"prerequisite {oid}\n".encode("ascii"))
        for name, oid in sorted(self.branches.items()):
            chunks.append(f"branch {name} {oid}\n".encode("ascii"))
        for name, oid in sorted(self.tags.items()):
            chunks.append(f"tag {name} {oid}\n".encode("ascii"))
        if self.head_branch:
            chunks.append(f"head {self.head_branch}\n".encode("ascii"))
        ordered = delta_order(self._oids, self._describe)
        chunks.append(f"objects {len(ordered)}\n".encode("ascii"))
        deltas = DeltaWindow()
        for oid in ordered:
            chunks.extend(deltas.encode(oid, *self._store.get_raw(oid)))
        stream = b"".join(chunks)
        digest = hashlib.sha1(stream).hexdigest()
        return stream + f"checksum {digest}\n".encode("ascii")


def write_bundle(
    store,
    oids: Iterable[str],
    prerequisites: Iterable[str] = (),
    branches: dict | None = None,
    tags: dict | None = None,
    head_branch: str | None = None,
) -> bytes:
    """One-shot convenience over :class:`BundleWriter`."""
    writer = BundleWriter(
        store,
        prerequisites=prerequisites,
        branches=branches,
        tags=tags,
        head_branch=head_branch,
    )
    writer.add(oids)
    return writer.getvalue()


def _read_line(data: bytes, cursor: int) -> tuple[str, int]:
    # No length cap: ref names have no bounded length on the write side, so
    # the reader must accept any line the writer can produce (a corrupt
    # stream costs at worst one scan to the end of the body).
    newline = data.find(b"\n", cursor)
    if newline < 0:
        raise BundleError("truncated bundle: unterminated header line")
    try:
        return data[cursor:newline].decode("ascii"), newline + 1
    except UnicodeDecodeError as exc:
        raise BundleError(f"malformed bundle header line: {exc}") from exc


def read_bundle(data: bytes) -> Bundle:
    """Parse and checksum-verify a bundle stream.

    The checksum is validated *first* (it covers every byte before its own
    line), so truncation, trailing garbage and bit-flips are all rejected
    before any record content is interpreted.  Stream-level damage raises
    :class:`BundleChecksumError` (retryable — the sender holds an intact
    copy); structural violations past the checksum raise plain
    :class:`BundleError`.
    """
    # Fault injection for mid-transfer damage: a truncate/flip armed here
    # mangles the stream exactly as a lossy wire would, and must be caught
    # by the checksum below, never by a parser crash.
    data = faults.corrupt("bundle.read", data)
    if not data.startswith(_BUNDLE_MAGIC):
        raise BundleChecksumError("not a bundle: bad magic")
    # The trailer is fixed-width: "checksum " + 40 hex chars + "\n".
    trailer_length = len("checksum ") + 40 + 1
    if len(data) < len(_BUNDLE_MAGIC) + trailer_length:
        raise BundleChecksumError("truncated bundle: missing checksum trailer")
    trailer = data[-trailer_length:]
    if not trailer.startswith(b"checksum ") or not trailer.endswith(b"\n"):
        raise BundleChecksumError("truncated bundle: missing checksum trailer")
    declared = trailer[len(b"checksum "):-1].decode("ascii", errors="replace")
    actual = hashlib.sha1(data[:-trailer_length]).hexdigest()
    if declared != actual:
        raise BundleChecksumError("bundle checksum mismatch (corrupt or truncated stream)")

    body = data[:-trailer_length]
    cursor = len(_BUNDLE_MAGIC)
    prerequisites: list[str] = []
    branches: dict = {}
    tags: dict = {}
    head_branch: str | None = None
    object_count: int | None = None
    while object_count is None:
        line, cursor = _read_line(body, cursor)
        fields = line.split(" ")
        if fields[0] == "prerequisite" and len(fields) == 2:
            prerequisites.append(fields[1])
        elif fields[0] == "branch" and len(fields) == 3:
            branches[fields[1]] = fields[2]
        elif fields[0] == "tag" and len(fields) == 3:
            tags[fields[1]] = fields[2]
        elif fields[0] == "head" and len(fields) == 2:
            head_branch = fields[1]
        elif fields[0] == "objects" and len(fields) == 2:
            try:
                object_count = int(fields[1])
            except ValueError as exc:
                raise BundleError(f"malformed object count: {line!r}") from exc
            # Each record costs at least one header byte, so a count larger
            # than the remaining body is malformed — rejecting it up front
            # bounds the parse loop by the actual input size instead of an
            # attacker-chosen number.
            if object_count < 0 or object_count > len(body) - cursor:
                raise BundleError(f"implausible object count: {object_count}")
        else:
            raise BundleError(f"unknown bundle header line: {line!r}")

    records: list[BundleRecord] = []
    for _ in range(object_count):
        try:
            kind, type_name, oid, csize, base_oid, end = parse_record_header(
                body, cursor, "bundle"
            )
        except StorageError:
            # The same message as any malformed header line: an unterminated
            # or non-ASCII line raises its own error from _read_line.
            line, _ = _read_line(body, cursor)
            raise BundleError(f"malformed object record header: {line!r}") from None
        cursor = end
        record_body = body[cursor:cursor + csize]
        if len(record_body) < csize:
            raise BundleError(f"truncated bundle: object {oid} body is incomplete")
        cursor += csize
        records.append(
            BundleRecord(kind=kind, type_name=type_name, oid=oid, body=record_body, base_oid=base_oid)
        )
    if cursor != len(body):
        raise BundleError("malformed bundle: trailing bytes after the last record")
    return Bundle(
        prerequisites=tuple(prerequisites),
        branches=branches,
        tags=tags,
        head_branch=head_branch,
        records=tuple(records),
    )
