"""Write-ahead durability for the serving hub.

``gitcite serve`` used to persist accepted pushes only on a clean shutdown:
a ``kill -9`` between a push's 2xx and the final ``state.json`` save silently
discarded an update the server had already *acknowledged* — the one thing
the storage layer's crash-atomic writes (PR 6) and the CAS ref transactions
(PR 7) were built to prevent.  This module closes that window:

* :class:`PushJournal` — an append-only, checksummed journal next to
  ``state.json``.  Every accepted mutation (a pushed bundle, a contents-API
  commit re-expressed as a single-commit bundle) is appended — and, in
  ``durable`` mode, fsynced — **before** the acknowledgement leaves the
  socket.  A ``write-behind`` mode batches the fsyncs (every
  ``flush_every`` records) for benchmarks and trusted deployments, trading
  a bounded loss window for throughput.
* :func:`replay_journal` — reads the journal tolerantly: a record torn by a
  crash mid-append (short frame, checksum mismatch) ends the replay at the
  last intact record; everything before it is replayed.  Replay is
  idempotent — bundles re-apply as no-ops and ref moves fast-forward onto
  themselves — so a double restart (crash during recovery included) always
  converges to the same state.
* :func:`recover_working_copy` — the serve-startup recovery pipeline:
  sweep orphan temp files, fsck the store (``--repair`` semantics:
  quarantine + salvage + index rebuild), load the last checkpoint, replay
  the journal, and checkpoint the merged state, files first.  If the repair
  left genuinely unrecoverable objects the hub should come up **read-only
  degraded** (:attr:`RecoveryReport.degraded`) instead of refusing to
  start — clones of intact history still work; writes answer retryable
  503 until an operator intervenes.

Journal format (``.gitcite/journal/pushes.waj``)::

    GCWAJ1\\n                                   file header (magic)
    [ 4-byte BE payload length | 20-byte SHA-1 of payload | payload ]*

    payload = 1 flag byte (b"F" force / b"-" plain) + raw RBNDL1 bundle

The bundle already embeds the ref transaction (its header carries the
branch/tag tips the push moved), so one record is the complete durable
description of one acknowledged mutation.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.errors import StorageError
from repro.utils import atomicio

__all__ = [
    "JOURNAL_DIR",
    "JOURNAL_FILE",
    "JournalRecord",
    "JournalReplay",
    "PushJournal",
    "RecoveryReport",
    "journal_path",
    "replay_journal",
    "recover_working_copy",
]

JOURNAL_DIR = "journal"
JOURNAL_FILE = "pushes.waj"

_MAGIC = b"GCWAJ1\n"
_FRAME = struct.Struct(">I")
_DIGEST_SIZE = hashlib.sha1().digest_size

#: Failpoints on the serve durability path (registered up front so sweep
#: harnesses can enumerate them without importing this module lazily).
FP_APPEND = faults.register("journal.append")
FP_RECOVER = faults.register("serve.recover")


def journal_path(directory: str | os.PathLike[str]) -> Path:
    """Where a working copy keeps its write-ahead push journal."""
    from repro.vcs.workingcopy import STATE_DIR

    return Path(directory) / STATE_DIR / JOURNAL_DIR / JOURNAL_FILE


@dataclass(frozen=True)
class JournalRecord:
    """One acknowledged mutation: a bundle plus its force flag."""

    bundle: bytes
    force: bool = False


@dataclass
class JournalReplay:
    """What reading a journal back established."""

    records: list[JournalRecord] = field(default_factory=list)
    #: The file ended mid-record (the torn frame a crash during append
    #: leaves); everything in :attr:`records` precedes the tear.
    torn_tail: bool = False
    #: A record body failed its checksum (silent corruption, not a tear).
    corrupt_record: bool = False
    #: Byte offset of the first damaged/torn frame (= intact prefix length).
    intact_bytes: int = 0


class PushJournal:
    """Append-only write-ahead journal of acknowledged hub mutations.

    ``durable=True`` (the default) fsyncs every append before it returns,
    so the 2xx that follows is backed by bytes on stable storage.
    ``durable=False`` is write-behind: appends are buffered by the OS and
    fsynced every ``flush_every`` records (and on :meth:`flush`/
    :meth:`close`), bounding the kill -9 loss window to the last
    ``flush_every - 1`` acknowledgements.

    Appends are serialised by an internal lock; the caller additionally
    orders them under its per-repository lock so journal order matches ref
    transaction order (replay depends on it: a later push's prerequisites
    are an earlier push's objects).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        durable: bool = True,
        flush_every: int = 8,
    ) -> None:
        self.path = Path(path)
        self.durable = durable
        self.flush_every = max(1, int(flush_every))
        self._lock = threading.Lock()
        self._unsynced = 0
        self.records_appended = 0
        self.syncs = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomicio.sweep_orphan_tmp(self.path.parent)
        fresh = not self.path.exists()
        # A write-ahead journal is an append-only log: records are framed and
        # checksummed individually, so torn tails are detected on replay and
        # temp+rename would defeat the whole point of appending.
        self._handle = open(self.path, "ab")  # lint: raw-write-ok(append-only journal, torn tails handled by replay)
        if fresh or self.path.stat().st_size == 0:
            self._handle.write(_MAGIC)
            self._fsync()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _fsync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.syncs += 1
        self._unsynced = 0

    def append(self, bundle: bytes, force: bool = False) -> None:
        """Frame, append and (mode permitting) fsync one record.

        Honours the ``journal.append`` failpoint with full payload
        semantics: ``crash`` dies before any byte, ``truncate`` writes a
        torn frame and dies (what a real mid-append power cut leaves),
        ``flip`` corrupts the payload silently (replay's checksum catches
        it), ``error`` raises the armed exception — the disk-failure signal
        the lifecycle layer turns into degraded mode.
        """
        payload = (b"F" if force else b"-") + bundle
        frame = _FRAME.pack(len(payload)) + hashlib.sha1(payload).digest() + payload
        action = faults.consume(FP_APPEND)
        with self._lock:
            if action is not None:
                if action.kind == "crash":
                    raise faults.SimulatedCrash(FP_APPEND)
                if action.kind == "error":
                    raise action.make_error(FP_APPEND)
                if action.kind == "truncate":
                    self._handle.write(frame[: max(0, action.keep)])
                    self._fsync()
                    raise faults.SimulatedCrash(
                        FP_APPEND, f"torn journal append after {action.keep} bytes"
                    )
                if action.kind == "flip" and len(payload) > 0:
                    position = min(max(action.offset, 0), len(payload) - 1)
                    mutated = bytearray(payload)
                    mutated[position] ^= action.xor or 0xFF
                    payload = bytes(mutated)
                    # Re-frame with the *original* checksum so the damage is
                    # the silent kind replay must detect.
                    frame = frame[: _FRAME.size + _DIGEST_SIZE] + payload
            self._handle.write(frame)
            self.records_appended += 1
            self._unsynced += 1
            if self.durable or self._unsynced >= self.flush_every:
                self._fsync()

    def flush(self) -> None:
        """Force everything appended so far onto stable storage."""
        with self._lock:
            if self._unsynced or not self.durable:
                self._fsync()

    def verify_writable(self) -> bool:
        """Probe the journal's disk: can an fsync still succeed?

        The ``/healthz`` recovery probe uses this to decide whether a
        disk-failure degradation has healed.  A probe is also a real fsync,
        so a positive answer means the journal tail is durable again.
        """
        try:
            with self._lock:
                self._fsync()
            return True
        except (OSError, ValueError):
            # ValueError: the handle itself was closed out from under us —
            # as unwritable as a failed fsync.
            return False

    def truncate(self) -> None:
        """Reset the journal to empty (called after a successful checkpoint).

        The replaced file is written crash-atomically: a crash mid-truncate
        leaves either the old journal (replayed again — idempotent) or the
        fresh empty one, never a torn header.
        """
        with self._lock:
            self._handle.close()
            atomicio.atomic_write_bytes(self.path, _MAGIC, durable=True)
            self._handle = open(self.path, "ab")  # lint: raw-write-ok(re-opening the append-only journal after truncation)
            self._unsynced = 0

    def close(self) -> None:
        with self._lock:
            try:
                if self._unsynced or not self.durable:
                    self._fsync()
            finally:
                self._handle.close()

    def __enter__(self) -> "PushJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading the journal back
# ----------------------------------------------------------------------


def replay_journal(path: str | os.PathLike[str]) -> JournalReplay:
    """Read a journal tolerantly; the intact prefix is what recovery replays.

    A short frame or length field (torn tail) ends the read; a checksum
    mismatch (flipped byte) does too — everything *after* a damaged record
    is unordered with respect to it, so replaying past the damage could
    apply a push whose prerequisites were in the lost record.  Idempotent
    re-application makes stopping early always safe: an un-replayed record
    whose effects already reached the last checkpoint is simply absent from
    the recovered delta.
    """
    replay = JournalReplay()
    journal = Path(path)
    if not journal.is_file():
        return replay
    data = journal.read_bytes()
    if not data.startswith(_MAGIC):
        replay.corrupt_record = bool(data)
        return replay
    offset = len(_MAGIC)
    total = len(data)
    while offset < total:
        header_end = offset + _FRAME.size + _DIGEST_SIZE
        if header_end > total:
            replay.torn_tail = True
            break
        (length,) = _FRAME.unpack_from(data, offset)
        digest = data[offset + _FRAME.size : header_end]
        body_end = header_end + length
        if length < 1 or body_end > total:
            replay.torn_tail = True
            break
        payload = data[header_end:body_end]
        if hashlib.sha1(payload).digest() != digest:
            replay.corrupt_record = True
            break
        replay.records.append(
            JournalRecord(bundle=payload[1:], force=payload[:1] == b"F")
        )
        offset = body_end
        replay.intact_bytes = offset
    if not replay.records:
        replay.intact_bytes = min(len(_MAGIC), total)
    return replay


# ----------------------------------------------------------------------
# Serve-startup recovery
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What bringing a working copy back up established."""

    #: Journal records found intact / actually re-applied (an already
    #: reflected record replays as a no-op and still counts as replayed).
    records_found: int = 0
    records_replayed: int = 0
    objects_restored: int = 0
    refs_restored: dict[str, str] = field(default_factory=dict)
    torn_tail: bool = False
    corrupt_record: bool = False
    #: Repair actions fsck took (quarantines, salvages, index rebuilds).
    repairs: list[str] = field(default_factory=list)
    #: Oids fsck could not salvage, with the refs their loss strands.
    unrecoverable: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Records that would not re-apply (damaged beyond their checksum, or
    #: prerequisites lost with an unrecoverable object).
    failed_records: int = 0
    #: Paths the checkpoint left alone for local changes (see ``save_checkout``).
    kept_local: list[str] = field(default_factory=list)
    #: The hub must come up read-only: fsck quarantined reachable history
    #: or journal records failed to re-apply.
    degraded: bool = False
    degraded_reason: str = ""

    @property
    def clean(self) -> bool:
        return not self.degraded and not self.corrupt_record and self.failed_records == 0


def recover_working_copy(
    directory: str | os.PathLike[str],
    repair: bool = True,
    checkpoint: bool = True,
):
    """Bring a served working copy back from any crash point.

    Pipeline: sweep orphan temp files → fsck (with repair: quarantine,
    salvage, rebuild indexes) → load the last checkpoint (``state.json`` +
    object store, no files) → replay the intact journal prefix →
    checkpoint: move the directory's files to the head tree, save the
    merged state and truncate the journal.  Returns ``(repo, report)``;
    the returned repository is bare (empty worktree and index).

    Every step is idempotent, so a crash *during* recovery (including the
    ``serve.recover`` failpoint the chaos suite arms) restarts cleanly:
    the journal is only truncated after the merged state is durably saved.

    With ``checkpoint=False`` the journal is left in place (used by
    read-only tooling and tests that want to re-run recovery).
    """
    from repro.vcs.workingcopy import load_bare, save_checkout
    from repro.vcs.fsck import fsck_working_copy
    from repro.vcs.transfer import apply_bundle, update_refs_from_bundle
    from repro.errors import BundleError, RemoteError, VCSError

    root = Path(directory)
    report = RecoveryReport()

    # 1. fsck: crash-atomic writes guarantee state.json and every object
    # file is either old or new, but a flipped byte (disk rot) or a crash
    # inside a multi-file pack publish still needs the auditor.  Repair
    # quarantines what fails verification and salvages the rest.
    fsck_report = fsck_working_copy(root, repair=repair)
    report.repairs = list(fsck_report.repaired)
    report.unrecoverable = dict(fsck_report.unrecoverable)
    if report.unrecoverable:
        report.degraded = True
        report.degraded_reason = (
            f"{len(report.unrecoverable)} object(s) unrecoverable after repair; "
            "serving read-only"
        )
    elif not fsck_report.ok and repair:
        report.degraded = True
        report.degraded_reason = "store damaged and not fully repaired; serving read-only"

    # 2. Load the last checkpoint (also sweeps state.json's orphan temps),
    # bare: its files hold the head tree this checkpoint recorded.
    repo = load_bare(root)
    files_head = repo.head_oid()

    # 3. Replay the journal's intact prefix, in append (= acknowledgement)
    # order.  apply_bundle's all-objects-present fast path and the
    # fast-forward-onto-self ref moves make every already-reflected record
    # a no-op, so replay after replay converges.
    replay = replay_journal(journal_path(root))
    report.records_found = len(replay.records)
    report.torn_tail = replay.torn_tail
    report.corrupt_record = replay.corrupt_record
    for record in replay.records:
        faults.fire(FP_RECOVER)
        try:
            result = apply_bundle(repo.store, record.bundle)
            moved = update_refs_from_bundle(repo, result.bundle, force=record.force)
        except (BundleError, RemoteError, VCSError) as exc:
            # A record that cannot re-apply (its objects were quarantined as
            # unrecoverable, or the bundle bytes themselves rotted past the
            # frame checksum) poisons everything after it — later records
            # may depend on its objects.  Stop, count, degrade.
            report.failed_records = len(replay.records) - report.records_replayed
            report.degraded = True
            report.degraded_reason = f"journal record failed to re-apply: {exc}"
            break
        report.records_replayed += 1
        report.objects_restored += result.objects_added
        report.refs_restored.update(moved)

    # 4. Checkpoint: move the files to the head tree, persist the merged
    # state, then — and only then — truncate the journal.  A crash before
    # state.json replays the journal onto the old checkpoint and moves the
    # files again (those already moved count as done); a crash before the
    # truncate replays it onto the new one, a no-op.  A journal whose
    # records failed their checksum or re-apply is *kept*: it is the only
    # evidence of the damaged acknowledgements, and truncating it would
    # turn a diagnosable loss into a silent one.
    if checkpoint:
        report.kept_local = save_checkout(repo, root, files_head)
        if not report.corrupt_record and report.failed_records == 0:
            try:
                with PushJournal(journal_path(root)) as journal:
                    journal.truncate()
            except OSError as exc:
                raise StorageError(
                    f"cannot reset the push journal after recovery: {exc}"
                ) from exc
    return repo, report
