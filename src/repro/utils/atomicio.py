"""Crash-atomic file writes: unique temp names, ``os.replace``, fsync.

Every durable artefact in the repository — ``state.json``, pack data files,
their indexes — goes through :func:`atomic_write_bytes` (or
the streaming :class:`AtomicFile`).  The contract:

* A reader never observes a partial file: data lands under a ``.tmp-*``
  name and is atomically renamed into place with ``os.replace``.
* Temp names are unique per write (pid + per-process counter + random
  fragment), so a crashed writer's leftovers can never collide with a live
  writer even across pid reuse.
* ``durable=True`` fsyncs the file before the rename and the containing
  directory after it, so the rename itself survives a power cut.  Callers
  reserve it for source-of-truth artefacts (state.json, pack data);
  rebuildable caches (idx, midx) skip the fsyncs — losing one costs a
  rescan, not data.
* Orphaned temp files from crashed writers are removed by
  :func:`sweep_orphan_tmp` when a backend opens its directory.

Writes accept an optional *failpoint* name (see :mod:`repro.faults`) and
honour the full action semantics: ``crash`` dies before any byte is
written, ``truncate`` leaves a partial orphan temp file and dies (the torn
write a real crash produces), ``flip`` corrupts the payload but completes
(silent corruption for fsck to find), ``error`` raises the armed exception.
"""

from __future__ import annotations

import os
import re
import uuid
from pathlib import Path

from repro import faults

__all__ = [
    "TMP_PREFIX",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
    "is_tmp_name",
    "sweep_orphan_tmp",
    "unique_tmp_path",
    "AtomicFile",
]

TMP_PREFIX = ".tmp-"
#: A name :func:`unique_tmp_path` makes: prefix, target, pid, serial, token.
_TMP_NAME = re.compile(re.escape(TMP_PREFIX) + r".+\.\d+\.\d+\.[0-9a-f]{8}")

#: Per-process monotonic counter folded into temp names.
_counter = 0


def _next_serial() -> int:
    global _counter
    _counter += 1
    return _counter


def unique_tmp_path(target: Path) -> Path:
    """A temp path next to ``target`` that no other writer can be using.

    pid alone is not enough — a crashed writer's pid can be reused by a new
    process mid-write — so the name also carries a per-process serial and a
    random fragment.
    """
    token = uuid.uuid4().hex[:8]
    name = f"{TMP_PREFIX}{target.name}.{os.getpid()}.{_next_serial()}.{token}"
    return target.parent / name


def is_tmp_name(name: str) -> bool:
    """Whether ``name`` is exactly a temp name :func:`unique_tmp_path` makes."""
    return _TMP_NAME.fullmatch(name) is not None


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table so a completed rename survives a crash.

    Platforms that cannot fsync a directory (some filesystems, Windows)
    simply skip — the rename is still atomic, only its durability window
    widens to the OS's own flush.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def sweep_orphan_tmp(directory: Path, recursive: bool = False) -> int:
    """Delete leftover ``.tmp-*`` files under ``directory``; returns the count.

    Safe under the repository's single-writer discipline: any ``.tmp-*``
    file visible when a backend *opens* belongs to a writer that is gone —
    live writes only exist between our own write call and its rename.
    """
    removed = 0
    if not directory.is_dir():
        return removed
    entries = directory.rglob(f"{TMP_PREFIX}*") if recursive else directory.glob(f"{TMP_PREFIX}*")
    for entry in entries:
        if not entry.is_file():
            continue
        try:
            entry.unlink()
            removed += 1
        except OSError:
            continue
    return removed


def _apply_payload_fault(target: Path, data: bytes, failpoint: str | None) -> bytes:
    """Run the armed fault action for one whole-payload write."""
    action = faults.consume(failpoint)
    if action is None:
        return data
    if action.kind == "crash":
        raise faults.SimulatedCrash(failpoint or "?")
    if action.kind == "error":
        raise action.make_error(failpoint or "?")
    if action.kind == "truncate":
        # A real torn write: the partial temp file stays behind as an
        # orphan, the rename never happens, and the process dies.
        torn = unique_tmp_path(target)
        torn.write_bytes(data[: max(0, action.keep)])
        raise faults.SimulatedCrash(failpoint or "?", f"torn write after {action.keep} bytes")
    # flip: the write "succeeds" with silently corrupted content.
    if not data:
        return data
    position = min(max(action.offset, 0), len(data) - 1)
    mutated = bytearray(data)
    mutated[position] ^= action.xor or 0xFF
    return bytes(mutated)


def atomic_write_bytes(
    target: Path,
    data: bytes,
    durable: bool = False,
    failpoint: str | None = None,
) -> None:
    """Write ``data`` to ``target`` via temp + ``os.replace``.

    With ``durable``, the temp file is fsynced before the rename and the
    parent directory after it.  ``failpoint`` threads a fault-injection
    point through the write (no-op when disarmed).
    """
    data = _apply_payload_fault(target, data, failpoint)
    temporary = unique_tmp_path(target)
    try:
        with temporary.open("wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temporary, target)
    except OSError:
        try:
            temporary.unlink()
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(target.parent)


def atomic_write_text(
    target: Path,
    text: str,
    encoding: str = "utf-8",
    durable: bool = False,
    failpoint: str | None = None,
) -> None:
    atomic_write_bytes(target, text.encode(encoding), durable=durable, failpoint=failpoint)


class AtomicFile:
    """Streaming variant for writers too large to buffer (pack streams).

    Usage::

        out = AtomicFile(target, durable=True, failpoint="storage.flush")
        out.write(chunk)        # repeatedly
        out.commit()            # fsync (if durable) + rename into place
        # or out.abort() / rely on close() to discard the temp file

    The failpoint is consumed once, at construction: ``crash`` dies before
    any byte exists, ``truncate`` lets exactly ``keep`` payload bytes
    through and then dies (leaving the orphan temp file), ``flip`` corrupts
    one byte of the stream at ``offset``, ``error`` raises immediately.
    """

    def __init__(self, target: Path, durable: bool = False, failpoint: str | None = None) -> None:
        self.target = Path(target)
        self.durable = durable
        self._written = 0
        self._committed = False
        self._failpoint = failpoint or "?"
        self._action = faults.consume(failpoint)
        if self._action is not None and self._action.kind == "crash":
            raise faults.SimulatedCrash(failpoint or "?")
        if self._action is not None and self._action.kind == "error":
            raise self._action.make_error(failpoint or "?")
        self.path = unique_tmp_path(self.target)
        self._handle = self.path.open("wb")

    def write(self, data: bytes) -> None:
        action = self._action
        if action is not None and action.kind == "truncate":
            remaining = max(0, action.keep - self._written)
            if len(data) > remaining:
                self._handle.write(data[:remaining])
                self._handle.close()
                # The orphan temp file stays behind, exactly like a crash.
                raise faults.SimulatedCrash(
                    self._failpoint, f"torn stream after {action.keep} bytes"
                )
        elif action is not None and action.kind == "flip" and data:
            start = self._written
            if start <= action.offset < start + len(data):
                mutated = bytearray(data)
                mutated[action.offset - start] ^= action.xor or 0xFF
                data = bytes(mutated)
        self._handle.write(data)
        self._written += len(data)

    def tell(self) -> int:
        return self._written

    def commit(self) -> None:
        if self.durable:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self.path, self.target)
        self._committed = True
        if self.durable:
            fsync_directory(self.target.parent)

    def abort(self) -> None:
        self.close()

    def close(self) -> None:
        if self._committed:
            return
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self.path.unlink()
        except OSError:
            pass
