"""Reading the legacy loose-object layout (read-only).

Older working copies kept one zlib-compressed file per object, sharded like
Git's loose object store::

    .gitcite/objects/ab/cdef0123...   # first two oid characters name the shard

Each file holds ``zlib.compress(b"<type> <size>\\0" + payload)``.  Nothing
writes this layout any more: :func:`repro.vcs.workingcopy.load_repository`
reads such a copy into memory and the next save converts it to packs, and
``gitcite fsck`` audits it with the same two helpers.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Iterator

__all__ = ["loose_object_files", "decode_loose_object"]

_HEX_DIGITS = frozenset("0123456789abcdef")


def loose_object_files(root: Path) -> Iterator[tuple[str, Path]]:
    """Every ``(oid, path)`` under ``root``, in oid order.

    Only well-formed ``ab``/``cdef…`` (2 + 38 hex characters) names count, so
    a crashed writer's ``.tmp-*`` file or any other stray entry is skipped.
    """
    if not root.is_dir():
        return
    for shard in sorted(root.iterdir()):
        if not (shard.is_dir() and len(shard.name) == 2 and set(shard.name) <= _HEX_DIGITS):
            continue
        for entry in sorted(shard.iterdir()):
            if entry.is_file() and len(entry.name) == 38 and set(entry.name) <= _HEX_DIGITS:
                yield shard.name + entry.name, entry


def decode_loose_object(raw: bytes) -> tuple[str, bytes]:
    """``(type, payload)`` of one object file; :class:`ValueError` if it does not decode.

    The caller checks that the payload hashes to the file's oid.
    """
    try:
        decompressed = zlib.decompress(raw)
    except zlib.error as exc:
        raise ValueError(f"zlib decompression failed: {exc}") from exc
    header, separator, payload = decompressed.partition(b"\0")
    if not separator:
        raise ValueError("missing object header")
    type_name, _, size_text = header.decode("ascii").partition(" ")
    if int(size_text) != len(payload):
        raise ValueError(f"header declares {size_text} payload bytes, file holds {len(payload)}")
    return type_name, payload
