"""One codec per on-disk pack-store format: record header, ``.idx``, ``.midx``.

Each format has exactly one pure ``parse_*``/``encode_*`` pair, shared by
:class:`~repro.vcs.storage.pack.PackBackend`, ``fsck`` and the RBNDL1
bundle reader, so a format is validated (and fuzzed) in one place.

Record header (pack files and bundles)::

    b"full <type> <oid> <size>\\n"
    b"delta <type> <oid> <size> <base-oid>\\n"

``.idx`` (one per pack)::

    b"RIDX1\\n"
    256 big-endian uint32 cumulative bucket counts (fanout over oid[0:2])
    per oid, sorted: 20 raw oid bytes + big-endian uint64 record offset

``.midx`` (one per pack directory)::

    b"RMIDX1\\n"
    uint32 pack count
    per pack: uint16 name length + ascii pack file name
    256 big-endian uint32 cumulative bucket counts (fanout over oid[0:2])
    per oid, sorted: 20 raw oid bytes + uint32 pack number + uint64 offset

The fanout table follows git's pack index
(https://git-scm.com/docs/pack-format).  A lookup bisects inside the
bucket the table names, so a table that is merely monotone can still send
it to the wrong slice: every parse rebuilds the table from the parsed oids
(:func:`build_fanout`, the same builder the writers use) and rejects any
difference.  Every parse failure is a :class:`~repro.errors.StorageError`
naming the file (or stream) and the byte offset; nothing else escapes.
"""

from __future__ import annotations

import operator
import struct
from bisect import bisect_left
from itertools import islice, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.errors import StorageError

__all__ = [
    "INDEX_MAGIC",
    "MAX_HEADER_BYTES",
    "MIDX_MAGIC",
    "MIDX_NAME",
    "PACK_MAGIC",
    "MultiPackIndexData",
    "PackIndexData",
    "build_fanout",
    "encode_idx",
    "encode_midx",
    "encode_record_header",
    "find",
    "parse_idx",
    "parse_midx",
    "parse_record_header",
]

PACK_MAGIC = b"RPCK1\n"
INDEX_MAGIC = b"RIDX1\n"
MIDX_MAGIC = b"RMIDX1\n"
MIDX_NAME = "multi-pack-index.midx"
#: Longest possible record header line, with margin (kind + type + 2 oids).
MAX_HEADER_BYTES = 160

_FANOUT = struct.Struct(">256I")
_IDX_ENTRY = struct.Struct(">20sQ")
_MIDX_ENTRY = struct.Struct(">20sIQ")
_COUNT = struct.Struct(">I")
_NAME_LENGTH = struct.Struct(">H")
#: The hex prefix that opens each of buckets 1..255: a sorted table's
#: bucket ``b`` ends at its first oid at or above the prefix of ``b + 1``.
_BUCKET_STARTS = [f"{bucket:02x}" for bucket in range(1, 256)]


def _error(source: object, offset: int, problem: str) -> StorageError:
    return StorageError(f"{source}: {problem} at offset {offset}")


# ---------------------------------------------------------------------------
# Record header
# ---------------------------------------------------------------------------


def encode_record_header(
    kind: str, type_name: str, oid: str, size: int, base_oid: str | None = None
) -> bytes:
    """The header line of one record (``base_oid`` only for ``delta``)."""
    if kind == "delta":
        return f"delta {type_name} {oid} {size} {base_oid}\n".encode("ascii")
    return f"full {type_name} {oid} {size}\n".encode("ascii")


def parse_record_header(
    data: bytes, start: int = 0, source: object = "record stream", origin: int = 0
) -> tuple[str, str, str, int, str | None, int]:
    """Parse the record header line at ``data[start:]``.

    Returns ``(kind, type, oid, body size, base oid or None, body start)``
    as a plain tuple: this runs once per record read.  The line must end
    within :data:`MAX_HEADER_BYTES` and hold exactly 4 (``full``) or 5
    (``delta``) ASCII fields with a decimal size.  ``origin`` is the file
    offset of ``data[0]``, for the error message only.
    """
    newline = data.find(b"\n", start, start + MAX_HEADER_BYTES)
    if newline < 0:
        raise _error(source, origin + start, "unterminated record header")
    try:
        fields = data[start:newline].decode("ascii").split(" ")
    except UnicodeDecodeError:
        raise _error(source, origin + start, "non-ASCII record header") from None
    kind = fields[0]
    if (
        not (kind == "full" and len(fields) == 4 or kind == "delta" and len(fields) == 5)
        or not fields[3].isdigit()
    ):
        raise _error(source, origin + start, f"malformed record header {fields!r}")
    base_oid = fields[4] if kind == "delta" else None
    return kind, fields[1], fields[2], int(fields[3]), base_oid, newline + 1


# ---------------------------------------------------------------------------
# Fanout tables and their entry checks
# ---------------------------------------------------------------------------


def build_fanout(oids: Sequence[str]) -> list[int]:
    """The 257-slot cumulative fanout of sorted hex ``oids``.

    Slot ``b`` is the number of oids whose first byte is below ``b``, so
    bucket ``b`` spans ``oids[fanout[b]:fanout[b + 1]]``; the 256 slots
    after the leading 0 are what the files store.
    """
    return [0, *map(bisect_left, repeat(oids), _BUCKET_STARTS), len(oids)]


def find(oids: Sequence[str], fanout: Sequence[int], oid: str) -> int | None:
    """Position of ``oid`` in a parsed table, via its fanout bucket, or ``None``.

    Malformed ids (short, non-hex — e.g. an unknown ref name probed via
    ``__contains__``) are simply absent, never an error.
    """
    try:
        bucket = int(oid[:2], 16)
    except ValueError:
        return None
    if bucket < 0 or len(oid) != 40:
        return None
    low, high = fanout[bucket], fanout[bucket + 1]
    position = bisect_left(oids, oid, low, high)
    if position < high and oids[position] == oid:
        return position
    return None


def _parse_table(
    data: bytes, table_at: int, entry: struct.Struct, source: object
) -> tuple[list[int], list[str], list[tuple]]:
    """The fanout table at ``table_at`` and the entries after it.

    Returns ``(fanout, oids, rows)``, ``rows`` being the unpacked entries.
    The file must end with the last entry, the oids must strictly
    increase, and the stored fanout must be the one they imply
    (:func:`build_fanout`).
    """
    if len(data) < table_at + _FANOUT.size:
        raise _error(source, len(data), "truncated fanout table")
    fanout = [0, *_FANOUT.unpack_from(data, table_at)]
    entries_at = table_at + _FANOUT.size
    expected = entries_at + fanout[256] * entry.size
    if len(data) != expected:
        raise _error(
            source, min(len(data), expected),
            f"length {len(data)} is not the {expected} bytes {fanout[256]} entries need",
        )
    rows = list(entry.iter_unpack(memoryview(data)[entries_at:]))
    oids = [row[0].hex() for row in rows]
    if not all(map(operator.lt, oids, islice(oids, 1, None))):
        position = next(
            index for index in range(1, len(oids)) if not oids[index - 1] < oids[index]
        )
        raise _error(source, entries_at + position * entry.size, "oids out of order")
    derived = build_fanout(oids)
    if fanout != derived:
        bucket = next(index for index in range(1, 257) if fanout[index] != derived[index])
        raise _error(
            source, table_at + (bucket - 1) * 4,
            f"fanout slot {bucket - 1} is {fanout[bucket]}, the oids give {derived[bucket]}",
        )
    return fanout, oids, rows


def _check_offsets(
    offsets: list[int], limits: list[int], source: object, entries_end: int,
    entry: struct.Struct,
) -> None:
    """Every record offset (an entry's last field) lies inside its pack."""
    low = len(PACK_MAGIC)
    if min(offsets, default=low) >= low and all(map(operator.lt, offsets, limits)):
        return
    position = next(
        index for index, (offset, limit) in enumerate(zip(offsets, limits))
        if not low <= offset < limit
    )
    # The entries end the file; the offset is the last 8 bytes of its entry.
    raise _error(
        source, entries_end - (len(offsets) - position) * entry.size + entry.size - 8,
        f"record offset {offsets[position]} outside its {limits[position]}-byte pack",
    )


# ---------------------------------------------------------------------------
# .idx
# ---------------------------------------------------------------------------


class PackIndexData(NamedTuple):
    """A parsed ``.idx``: sorted oids, their record offsets, the fanout."""

    oids: list[str]
    offsets: list[int]
    fanout: list[int]


def encode_idx(entries: Iterable[tuple[str, int]]) -> bytes:
    """The ``.idx`` bytes for ``(oid, offset)`` entries (sorted here)."""
    entries = sorted(entries)
    fanout = build_fanout([oid for oid, _ in entries])
    blob = bytearray(INDEX_MAGIC)
    blob += _FANOUT.pack(*fanout[1:])
    for oid, offset in entries:
        blob += _IDX_ENTRY.pack(bytes.fromhex(oid), offset)
    return bytes(blob)


def parse_idx(data: bytes, pack_size: int, source: object = "idx") -> PackIndexData:
    """Parse and validate one pack's ``.idx`` against the pack's byte size."""
    if not data.startswith(INDEX_MAGIC):
        raise _error(source, 0, "bad index magic")
    fanout, oids, rows = _parse_table(data, len(INDEX_MAGIC), _IDX_ENTRY, source)
    offsets = list(map(operator.itemgetter(1), rows))
    _check_offsets(offsets, [pack_size] * len(offsets), source, len(data), _IDX_ENTRY)
    return PackIndexData(oids, offsets, fanout)


# ---------------------------------------------------------------------------
# .midx
# ---------------------------------------------------------------------------


class MultiPackIndexData(NamedTuple):
    """A parsed ``.midx``: pack names, then per sorted oid its pack and offset."""

    pack_names: list[str]
    oids: list[str]
    pack_numbers: list[int]
    offsets: list[int]
    fanout: list[int]


def encode_midx(
    pack_names: Sequence[str], oids: Sequence[str], pack_numbers: Sequence[int],
    offsets: Sequence[int],
) -> bytes:
    """The ``.midx`` bytes for sorted, unique ``oids`` and their locations."""
    blob = bytearray(MIDX_MAGIC)
    blob += _COUNT.pack(len(pack_names))
    for name in pack_names:
        encoded = name.encode("ascii")
        blob += _NAME_LENGTH.pack(len(encoded))
        blob += encoded
    blob += _FANOUT.pack(*build_fanout(oids)[1:])
    for oid, pack_number, offset in zip(oids, pack_numbers, offsets):
        blob += _MIDX_ENTRY.pack(bytes.fromhex(oid), pack_number, offset)
    return bytes(blob)


def parse_midx(
    data: bytes, pack_sizes: Mapping[str, int], source: object = "midx"
) -> MultiPackIndexData:
    """Parse and validate a ``.midx`` against ``{pack file name: byte size}``.

    Every pack the midx names must be a distinct key of ``pack_sizes``; a
    pack in ``pack_sizes`` that the midx does not name is the caller's
    staleness check, not a parse error.
    """
    if not data.startswith(MIDX_MAGIC):
        raise _error(source, 0, "bad midx magic")
    cursor = len(MIDX_MAGIC)
    if len(data) < cursor + _COUNT.size:
        raise _error(source, cursor, "truncated pack count")
    (pack_count,) = _COUNT.unpack_from(data, cursor)
    cursor += _COUNT.size
    names: list[str] = []
    for _ in range(pack_count):
        if len(data) < cursor + _NAME_LENGTH.size:
            raise _error(source, cursor, "truncated pack name list")
        (length,) = _NAME_LENGTH.unpack_from(data, cursor)
        raw_name = data[cursor + _NAME_LENGTH.size:cursor + _NAME_LENGTH.size + length]
        if len(raw_name) < length:
            raise _error(source, cursor, "truncated pack name list")
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError:
            raise _error(source, cursor, "non-ASCII pack name") from None
        if name not in pack_sizes or name in names:
            raise _error(source, cursor, f"pack name {name!r} is not a distinct current pack")
        names.append(name)
        cursor += _NAME_LENGTH.size + length
    fanout, oids, rows = _parse_table(data, cursor, _MIDX_ENTRY, source)
    pack_numbers = list(map(operator.itemgetter(1), rows))
    offsets = list(map(operator.itemgetter(2), rows))
    if pack_numbers and max(pack_numbers) >= len(names):
        position = next(
            index for index, number in enumerate(pack_numbers) if number >= len(names)
        )
        raise _error(
            source, len(data) - (len(oids) - position) * _MIDX_ENTRY.size + 20,
            f"pack number {pack_numbers[position]} outside the {len(names)}-name list",
        )
    sizes = [pack_sizes[name] for name in names]
    limits = list(map(sizes.__getitem__, pack_numbers))
    _check_offsets(offsets, limits, source, len(data), _MIDX_ENTRY)
    return MultiPackIndexData(names, oids, pack_numbers, offsets, fanout)
