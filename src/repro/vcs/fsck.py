"""Full-store integrity checking and repair (``gitcite fsck [--repair]``).

The durability story has two halves.  The write path promises crash
atomicity (temp + rename + fsync for every durable artefact); this module
is the read-side audit that *proves* a store kept that promise — and the
recovery path for stores that met real corruption (bit rot, torn disks,
damage the atomicity contract cannot prevent).

The check runs against a working copy **at the directory level**, below the
backend classes, because a corrupt pack can make ``PackBackend`` refuse to
open at all: fsck must be able to diagnose exactly the stores the normal
read path rejects.  One sequential tolerant pass per pack re-hashes every
record (deltas are resolved against a cache of the pack's own full
records), which is also markedly faster than auditing via per-oid
random-access reads — the ``fsck_5k`` benchmark pins that gap.

Checks, in order:

1. ``state.json`` parses and (legacy memory layout) every embedded object
   re-hashes;
2. every legacy loose object / pack record decompresses and re-hashes to
   its oid;
3. every per-pack ``.idx`` and the ``multi-pack-index.midx`` agree with the
   packs they index (they are caches, but a *wrong* cache serves wrong
   offsets, which surfaces as phantom corruption on read);
4. every branch, tag and HEAD target exists and is a commit;
5. the commit/tree graph under every ref is fully connected;
6. every reachable ``citation.cite`` blob parses.

``repair=True`` quarantines corrupt loose objects and packs into
``.gitcite/quarantine/`` (never deletes — the bytes may still be partially
salvageable by hand), re-packs every record that still verifies out of a
damaged pack, rebuilds wrong or missing idx/midx files, sweeps orphan
temp files, and then re-audits.  What repair cannot recover is reported as
*unrecoverable*: each lost oid with the refs whose history it strands.
"""

from __future__ import annotations

import base64
import binascii
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CitationFileError, VCSError
from repro.utils import atomicio
from repro.utils.hashing import object_id
from repro.utils.jsonutil import stable_loads
from repro.vcs.objects import deserialize_object
from repro.vcs.storage.loose import decode_loose_object, loose_object_files
from repro.vcs.storage.pack import (
    _INDEX_MAGIC,
    _MAX_HEADER_BYTES,
    _MIDX_MAGIC,
    _MIDX_NAME,
    _PACK_MAGIC,
    _PackFile,
    apply_delta,
)

__all__ = ["Finding", "FsckReport", "fsck_working_copy"]

_STATE_DIR = ".gitcite"
_STATE_FILE = "state.json"
_QUARANTINE_DIR = "quarantine"
_CITATION_FILE = "citation.cite"


@dataclass(frozen=True)
class Finding:
    """One integrity violation (or self-healing observation)."""

    #: "state" | "loose" | "pack" | "idx" | "midx" | "refs" | "connectivity"
    #: | "citation" | "tmp"
    category: str
    #: "error" — the store is damaged; "warning" — degraded but self-healing
    #: on the next backend open (e.g. a missing index cache).
    severity: str
    detail: str
    oid: str | None = None
    path: str | None = None

    def __str__(self) -> str:
        location = f" [{self.path}]" if self.path else ""
        subject = f" {self.oid}" if self.oid else ""
        return f"{self.severity}: {self.category}{subject}: {self.detail}{location}"


@dataclass
class FsckReport:
    """Everything one fsck pass established about a working copy."""

    directory: str
    storage: str | None = None
    findings: list[Finding] = field(default_factory=list)
    objects_checked: int = 0
    packs_checked: int = 0
    refs_checked: int = 0
    citations_checked: int = 0
    #: Lost oid → sorted ref names whose history the loss strands.
    unrecoverable: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Human-readable repair actions taken (empty unless ``repair=True``).
    repaired: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No errors (warnings — self-healing cache misses — are tolerated)."""
        return not any(finding.severity == "error" for finding in self.findings)

    def errors(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "error"]


# ---------------------------------------------------------------------------
# Internal scan state (kept out of the public report)
# ---------------------------------------------------------------------------


@dataclass
class _PackScan:
    path: Path
    #: Verified ``(oid, offset)`` pairs, in record order.
    entries: list[tuple[str, int]] = field(default_factory=list)
    #: ``oid → (type, payload)`` for every record that verified.
    verified: dict[str, tuple[str, bytes]] = field(default_factory=dict)
    #: Whether every byte of the pack was accounted for and verified.
    intact: bool = True
    #: Whether the sequential walk itself survived (False = offsets past the
    #: damage are unknowable and the pack must be treated as ending there).
    structurally_sound: bool = True


@dataclass
class _ScanState:
    root: Path
    kind: str | None = None
    state: dict | None = None
    #: ``oid → (type, payload)`` for every object that verified, all sources.
    objects: dict[str, tuple[str, bytes]] = field(default_factory=dict)
    pack_scans: list[_PackScan] = field(default_factory=list)
    corrupt_loose: list[Path] = field(default_factory=list)
    #: Pack-dir idx files that exist but disagree with their pack.
    wrong_idx: list[tuple[Path, list[tuple[str, int]]]] = field(default_factory=list)
    midx_needs_rebuild: bool = False
    orphan_tmp: list[Path] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Object sources: state.json, loose files, pack files
# ---------------------------------------------------------------------------


def _load_state(scan: _ScanState, report: FsckReport) -> None:
    state_path = scan.root / _STATE_DIR / _STATE_FILE
    if not state_path.is_file():
        report.findings.append(Finding(
            "state", "error", f"missing {_STATE_DIR}/{_STATE_FILE}", path=str(state_path)
        ))
        return
    try:
        scan.state = stable_loads(state_path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError, OSError) as exc:
        report.findings.append(Finding(
            "state", "error", f"state file does not parse: {exc}", path=str(state_path)
        ))
        return
    if not isinstance(scan.state, dict):
        report.findings.append(Finding(
            "state", "error", "state file is not a JSON object", path=str(state_path)
        ))
        scan.state = None
        return
    scan.kind = scan.state.get("storage", "memory")
    report.storage = scan.kind


def _scan_embedded(scan: _ScanState, report: FsckReport) -> None:
    """Verify the objects a legacy memory-layout state.json embeds."""
    records = (scan.state or {}).get("objects", {})
    if not isinstance(records, dict):
        report.findings.append(Finding("state", "error", "'objects' is not an object"))
        return
    for oid, record in records.items():
        report.objects_checked += 1
        try:
            payload = base64.b64decode(record["payload"], validate=True)
            type_name = record["type"]
        except (KeyError, TypeError, binascii.Error, ValueError) as exc:
            report.findings.append(Finding(
                "state", "error", f"embedded object record is malformed: {exc}", oid=oid
            ))
            continue
        if object_id(type_name, payload) != oid:
            report.findings.append(Finding(
                "state", "error", "embedded payload does not hash to its oid", oid=oid
            ))
            continue
        scan.objects[oid] = (type_name, payload)


def _scan_loose(scan: _ScanState, report: FsckReport) -> None:
    """Verify a legacy loose-object directory (left for the next save to convert)."""
    for oid, entry in loose_object_files(scan.root / _STATE_DIR / "objects"):
        report.objects_checked += 1
        try:
            type_name, payload = decode_loose_object(entry.read_bytes())
        except (OSError, ValueError) as exc:
            report.findings.append(Finding(
                "loose", "error", f"unreadable object file: {exc}", oid=oid, path=str(entry)
            ))
            scan.corrupt_loose.append(entry)
            continue
        if object_id(type_name, payload) != oid:
            report.findings.append(Finding(
                "loose", "error", "payload does not hash to the file's oid",
                oid=oid, path=str(entry),
            ))
            scan.corrupt_loose.append(entry)
            continue
        scan.objects[oid] = (type_name, payload)


def _scan_one_pack(pack_path: Path, report: FsckReport) -> _PackScan:
    """One sequential tolerant pass over a pack, re-hashing every record.

    Per-record damage (a body that fails to decompress or hash) is skipped
    using the header's declared size, so one flipped byte costs one object,
    not the whole pack.  Structural damage (bad magic, an unparseable
    header, a truncated body) ends the walk — offsets past it are
    unknowable — and everything already verified remains salvageable.
    """
    result = _PackScan(path=pack_path)
    #: Full-record payloads of this pack, for delta resolution.
    fulls: dict[str, bytes] = {}
    try:
        data = pack_path.read_bytes()
    except OSError as exc:
        report.findings.append(Finding(
            "pack", "error", f"unreadable pack file: {exc}", path=str(pack_path)
        ))
        result.intact = result.structurally_sound = False
        return result
    if not data.startswith(_PACK_MAGIC):
        report.findings.append(Finding(
            "pack", "error", "bad pack magic", path=str(pack_path)
        ))
        result.intact = result.structurally_sound = False
        return result
    offset = len(_PACK_MAGIC)
    while offset < len(data):
        newline = data.find(b"\n", offset, offset + _MAX_HEADER_BYTES)
        if newline < 0:
            report.findings.append(Finding(
                "pack", "error", f"unterminated record header at offset {offset}",
                path=str(pack_path),
            ))
            result.intact = result.structurally_sound = False
            return result
        try:
            fields = data[offset:newline].decode("ascii").split(" ")
            kind = fields[0]
            if kind == "full" and len(fields) == 4:
                type_name, oid, csize, base_oid = fields[1], fields[2], int(fields[3]), None
            elif kind == "delta" and len(fields) == 5:
                type_name, oid, csize, base_oid = fields[1], fields[2], int(fields[3]), fields[4]
            else:
                raise ValueError(f"malformed record header {fields!r}")
            if csize < 0:
                raise ValueError("negative record size")
        except (UnicodeDecodeError, ValueError) as exc:
            report.findings.append(Finding(
                "pack", "error", f"unreadable record header at offset {offset}: {exc}",
                path=str(pack_path),
            ))
            result.intact = result.structurally_sound = False
            return result
        body_start = newline + 1
        if body_start + csize > len(data):
            report.findings.append(Finding(
                "pack", "error", f"record {oid} truncated (pack ends mid-body)",
                oid=oid, path=str(pack_path),
            ))
            result.intact = result.structurally_sound = False
            return result
        record_offset, body = offset, data[body_start:body_start + csize]
        offset = body_start + csize
        report.objects_checked += 1
        try:
            payload = zlib.decompress(body)
            if kind == "delta":
                base = fulls.get(base_oid or "")
                if base is None:
                    raise ValueError(f"delta base {base_oid} is not an earlier full record")
                payload = apply_delta(base, payload)
        except (zlib.error, ValueError, IndexError) as exc:
            report.findings.append(Finding(
                "pack", "error", f"record does not decode: {exc}", oid=oid, path=str(pack_path)
            ))
            result.intact = False
            continue
        if object_id(type_name, payload) != oid:
            report.findings.append(Finding(
                "pack", "error", "record payload does not hash to its oid",
                oid=oid, path=str(pack_path),
            ))
            result.intact = False
            continue
        if kind == "full":
            fulls[oid] = payload
        result.entries.append((oid, record_offset))
        result.verified[oid] = (type_name, payload)
    return result


def _check_idx(scan: _ScanState, report: FsckReport, pack: _PackScan) -> None:
    idx_path = pack.path.with_suffix(".idx")
    expected = sorted(pack.entries)
    if not idx_path.is_file():
        report.findings.append(Finding(
            "idx", "warning", "index missing (rebuilt automatically on open)",
            path=str(idx_path),
        ))
        return
    try:
        raw = idx_path.read_bytes()
        if not raw.startswith(_INDEX_MAGIC):
            raise ValueError("bad index magic")
        cursor = len(_INDEX_MAGIC)
        counts = struct.unpack_from(">256I", raw, cursor)
        cursor += 256 * 4
        got: list[tuple[str, int]] = []
        for _ in range(counts[255]):
            oid_bytes = raw[cursor:cursor + 20]
            (entry_offset,) = struct.unpack_from(">Q", raw, cursor + 20)
            got.append((oid_bytes.hex(), entry_offset))
            cursor += 28
        if cursor != len(raw):
            raise ValueError("trailing bytes after the last index entry")
    except (ValueError, struct.error) as exc:
        report.findings.append(Finding(
            "idx", "error", f"index does not parse: {exc}", path=str(idx_path)
        ))
        scan.wrong_idx.append((idx_path, expected))
        return
    if got != expected:
        report.findings.append(Finding(
            "idx", "error",
            "index disagrees with its pack "
            f"({len(got)} indexed vs {len(expected)} scanned entries)",
            path=str(idx_path),
        ))
        scan.wrong_idx.append((idx_path, expected))


def _check_midx(scan: _ScanState, report: FsckReport) -> None:
    root = scan.root / _STATE_DIR / "pack"
    midx_path = root / _MIDX_NAME
    pack_names = {pack.path.name for pack in scan.pack_scans}
    if not midx_path.is_file():
        if pack_names:
            report.findings.append(Finding(
                "midx", "warning", "multi-pack index missing (rebuilt on open)",
                path=str(midx_path),
            ))
        return
    try:
        raw = midx_path.read_bytes()
        if not raw.startswith(_MIDX_MAGIC):
            raise ValueError("bad midx magic")
        cursor = len(_MIDX_MAGIC)
        (pack_count,) = struct.unpack_from(">I", raw, cursor)
        cursor += 4
        names: list[str] = []
        for _ in range(pack_count):
            (name_length,) = struct.unpack_from(">H", raw, cursor)
            cursor += 2
            names.append(raw[cursor:cursor + name_length].decode("ascii"))
            cursor += name_length
        counts = struct.unpack_from(">256I", raw, cursor)
        cursor += 256 * 4
        entries: list[tuple[str, int, int]] = []
        for _ in range(counts[255]):
            oid_bytes = raw[cursor:cursor + 20]
            pack_number, entry_offset = struct.unpack_from(">IQ", raw, cursor + 20)
            entries.append((oid_bytes.hex(), pack_number, entry_offset))
            cursor += 32
        if cursor != len(raw):
            raise ValueError("trailing bytes after the last midx entry")
    except (ValueError, struct.error, UnicodeDecodeError) as exc:
        # An unparseable midx is rejected (and rebuilt) on open, so it is
        # degradation, not danger — but still worth repairing eagerly.
        report.findings.append(Finding(
            "midx", "warning", f"multi-pack index does not parse: {exc}", path=str(midx_path)
        ))
        scan.midx_needs_rebuild = True
        return
    if set(names) != pack_names:
        report.findings.append(Finding(
            "midx", "warning", "multi-pack index is stale (pack set changed; rebuilt on open)",
            path=str(midx_path),
        ))
        scan.midx_needs_rebuild = True
        return
    # Names match, so the backend would trust this midx verbatim: its
    # entries must agree exactly with the packs it claims to index.
    by_pack: dict[str, dict[str, int]] = {
        pack.path.name: dict(pack.entries) for pack in scan.pack_scans
    }
    expected_oids = set()
    for pack in scan.pack_scans:
        expected_oids.update(oid for oid, _ in pack.entries)
    seen = set()
    for oid, pack_number, entry_offset in entries:
        if pack_number >= len(names):
            report.findings.append(Finding(
                "midx", "error", f"entry {oid} names pack #{pack_number}, which does not exist",
                oid=oid, path=str(midx_path),
            ))
            scan.midx_needs_rebuild = True
            return
        offsets = by_pack.get(names[pack_number], {})
        if offsets.get(oid) != entry_offset:
            report.findings.append(Finding(
                "midx", "error",
                f"entry {oid} points at {names[pack_number]}:{entry_offset}, "
                "which holds no such record",
                oid=oid, path=str(midx_path),
            ))
            scan.midx_needs_rebuild = True
            return
        seen.add(oid)
    missing = expected_oids - seen
    if missing:
        report.findings.append(Finding(
            "midx", "error",
            f"{len(missing)} packed object(s) absent from the multi-pack index "
            "(they would be unreadable despite intact packs)",
            path=str(midx_path),
        ))
        scan.midx_needs_rebuild = True


def _scan_packs(scan: _ScanState, report: FsckReport) -> None:
    root = scan.root / _STATE_DIR / "pack"
    if not root.is_dir():
        return
    for pack_path in sorted(root.glob("pack-*.pack")):
        report.packs_checked += 1
        pack = _scan_one_pack(pack_path, report)
        scan.pack_scans.append(pack)
        if pack.intact:
            _check_idx(scan, report, pack)
        for oid, record in pack.verified.items():
            scan.objects.setdefault(oid, record)
    _check_midx(scan, report)


def _find_orphan_tmp(scan: _ScanState, report: FsckReport) -> None:
    metadata = scan.root / _STATE_DIR
    if not metadata.is_dir():
        return
    for entry in sorted(metadata.rglob(f"{atomicio.TMP_PREFIX}*")):
        if entry.is_file() and _QUARANTINE_DIR not in entry.parts:
            scan.orphan_tmp.append(entry)
            report.findings.append(Finding(
                "tmp", "warning", "orphan temp file from an interrupted write (swept on open)",
                path=str(entry),
            ))


# ---------------------------------------------------------------------------
# Refs, connectivity, citations
# ---------------------------------------------------------------------------


def _ref_tips(state: dict) -> list[tuple[str, str]]:
    tips: list[tuple[str, str]] = []
    for name, oid in sorted((state.get("branches") or {}).items()):
        tips.append((f"branch {name}", oid))
    for name, oid in sorted((state.get("tags") or {}).items()):
        tips.append((f"tag {name}", oid))
    head_oid = state.get("head_oid")
    if head_oid:
        tips.append(("detached HEAD", head_oid))
    return tips


def _references(type_name: str, payload: bytes) -> list[str]:
    """The oids an object points at (empty for blobs / unparsable objects)."""
    if type_name == "blob":
        return []
    try:
        obj = deserialize_object(type_name, payload)
    except VCSError:
        # Unparsable objects carry no outgoing edges; the object-integrity
        # pass reports the corruption itself.
        return []
    if type_name == "commit":
        return [obj.tree_oid, *obj.parent_oids]
    if type_name == "tree":
        return [entry.oid for entry in obj.entries]
    if type_name == "tag":
        return [obj.object_oid]
    return []


def _check_graph(scan: _ScanState, report: FsckReport) -> None:
    """Ref targets, connectivity, and the missing-oid → stranded-refs map.

    One iterative post-order walk computes, per object, the set of missing
    oids its subtree reaches (memoised, so shared history costs one visit);
    each ref then inherits its tip's set.
    """
    if scan.state is None:
        return
    objects = scan.objects
    #: oid → frozenset of missing oids reachable from it (memo).
    missing_below: dict[str, frozenset] = {}

    def resolve(start: str) -> frozenset:
        if start in missing_below:
            return missing_below[start]
        # Entries are (oid, None) before expansion and (oid, children) after,
        # so each object is parsed once on the way down.
        stack: list[tuple[str, list[str] | None]] = [(start, None)]
        while stack:
            oid, children = stack.pop()
            if oid in missing_below:
                continue
            if oid not in objects:
                missing_below[oid] = frozenset((oid,))
                continue
            if children is None:
                children = _references(*objects[oid])
                stack.append((oid, children))
                stack.extend(
                    (child, None) for child in children if child not in missing_below
                )
            else:
                gathered: set = set()
                for child in children:
                    gathered |= missing_below.get(child, frozenset())
                missing_below[oid] = frozenset(gathered)
        return missing_below[start]

    stranded: dict[str, set] = {}
    for ref_name, tip in _ref_tips(scan.state):
        report.refs_checked += 1
        if tip not in objects:
            report.findings.append(Finding(
                "refs", "error", f"{ref_name} points at a missing object", oid=tip
            ))
            stranded.setdefault(tip, set()).add(ref_name)
            continue
        if objects[tip][0] != "commit":
            report.findings.append(Finding(
                "refs", "error",
                f"{ref_name} points at a {objects[tip][0]} object, not a commit", oid=tip,
            ))
            continue
        for lost in sorted(resolve(tip)):
            stranded.setdefault(lost, set()).add(ref_name)
    for lost, refs in sorted(stranded.items()):
        if lost in {tip for _, tip in _ref_tips(scan.state)} and lost not in objects:
            pass  # already reported as a refs error above
        elif lost not in objects:
            report.findings.append(Finding(
                "connectivity", "error",
                f"reachable object is missing (strands {', '.join(sorted(refs))})",
                oid=lost,
            ))
    report.unrecoverable = {
        lost: tuple(sorted(refs)) for lost, refs in sorted(stranded.items())
    }


def _check_citations(scan: _ScanState, report: FsckReport) -> None:
    """Parse every distinct reachable ``citation.cite`` blob."""
    from repro.citation.citefile import load_citation_bytes

    if scan.state is None:
        return
    objects = scan.objects
    checked: set[str] = set()
    # One ``seen`` set for every ref: what a commit reaches does not depend
    # on which ref reached it, so refs sharing history parse it once.
    seen: set[str] = set()
    for _, tip in _ref_tips(scan.state):
        frontier = [tip]
        while frontier:
            oid = frontier.pop()
            if oid in seen or oid not in objects:
                continue
            seen.add(oid)
            type_name, payload = objects[oid]
            if type_name != "commit":
                continue
            try:
                commit = deserialize_object(type_name, payload)
            except VCSError as exc:
                report.findings.append(Finding(
                    "connectivity", "error", f"commit does not parse: {exc}", oid=oid
                ))
                continue
            frontier.extend(commit.parent_oids)
            tree = objects.get(commit.tree_oid)
            if tree is None or tree[0] != "tree":
                continue
            try:
                entries = deserialize_object(tree[0], tree[1]).entries
            except VCSError as exc:
                report.findings.append(Finding(
                    "connectivity", "error", f"tree does not parse: {exc}", oid=commit.tree_oid
                ))
                continue
            for entry in entries:
                if entry.name != _CITATION_FILE or entry.is_directory:
                    continue
                if entry.oid in checked:
                    break
                checked.add(entry.oid)
                blob = objects.get(entry.oid)
                if blob is None:
                    break  # already a connectivity error
                report.citations_checked += 1
                try:
                    load_citation_bytes(blob[1])
                except CitationFileError as exc:
                    report.findings.append(Finding(
                        "citation", "error", f"citation.cite does not parse: {exc}",
                        oid=entry.oid,
                    ))
                break


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------


def _quarantine(root: Path, victim: Path, actions: list[str]) -> None:
    quarantine = root / _STATE_DIR / _QUARANTINE_DIR
    quarantine.mkdir(parents=True, exist_ok=True)
    destination = quarantine / victim.name
    serial = 0
    while destination.exists():
        serial += 1
        destination = quarantine / f"{victim.name}.{serial}"
    try:
        victim.replace(destination)
        actions.append(f"quarantined {victim.name} -> {destination.relative_to(root)}")
    except OSError as exc:
        actions.append(f"could not quarantine {victim.name}: {exc}")


def _repair(scan: _ScanState, report: FsckReport) -> list[str]:
    actions: list[str] = []
    root = scan.root
    for orphan in scan.orphan_tmp:
        try:
            orphan.unlink()
            actions.append(f"removed orphan temp file {orphan.name}")
        except OSError:
            pass
    for corrupt in scan.corrupt_loose:
        _quarantine(root, corrupt, actions)
    # Records still alive in the surviving (healthy) packs.
    surviving: set[str] = set()
    for pack in scan.pack_scans:
        if pack.intact:
            surviving.update(pack.verified)
    salvage: dict[str, tuple[str, bytes]] = {}
    repacked = False
    for pack in scan.pack_scans:
        if pack.intact:
            continue
        for oid, record in pack.verified.items():
            if oid not in surviving:
                salvage[oid] = record
        _quarantine(root, pack.path, actions)
        idx_path = pack.path.with_suffix(".idx")
        if idx_path.is_file():
            _quarantine(root, idx_path, actions)
        repacked = True
    for idx_path, entries in scan.wrong_idx:
        _PackFile.write_index(idx_path, entries)
        actions.append(f"rebuilt {idx_path.name} from its pack")
    if salvage or repacked or scan.midx_needs_rebuild:
        # Opening the backend on the cleaned pack set rebuilds the midx;
        # salvaged records land as a fresh pack through the normal write
        # path (which also re-indexes them).  A *wrong-but-parseable* midx
        # would be trusted verbatim by that open (its pack-name set still
        # matches), so the bad cache must be removed first — it is a pure
        # cache, rebuilt from the packs, so removal loses nothing.
        from repro.vcs.storage.pack import PackBackend

        if scan.midx_needs_rebuild:
            midx_path = root / _STATE_DIR / "pack" / _MIDX_NAME
            try:
                midx_path.unlink()
            except OSError:
                pass
        backend = PackBackend(root / _STATE_DIR / "pack")
        if salvage:
            backend.write_many(
                (oid, type_name, payload)
                for oid, (type_name, payload) in sorted(salvage.items())
            )
            actions.append(f"salvaged {len(salvage)} object(s) from quarantined pack(s)")
        backend.close()
        if scan.midx_needs_rebuild or repacked:
            actions.append("rebuilt multi-pack index")
    return actions


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _scan(directory: Path) -> tuple[FsckReport, _ScanState]:
    report = FsckReport(directory=str(directory))
    scan = _ScanState(root=directory)
    _load_state(scan, report)
    if scan.state is not None:
        if scan.kind == "memory":
            _scan_embedded(scan, report)
        # A legacy loose directory outlives the state.json that converts it
        # until the save deletes it; scan whatever is on disk.
        _scan_loose(scan, report)
        _scan_packs(scan, report)
        _find_orphan_tmp(scan, report)
        _check_graph(scan, report)
        _check_citations(scan, report)
    return report, scan


def fsck_working_copy(directory, repair: bool = False) -> FsckReport:
    """Audit a working copy's full on-disk state; optionally repair it.

    Returns the :class:`FsckReport` of the *final* state: with
    ``repair=True`` the store is re-audited after repair, so ``report.ok``
    answers "is it healthy now", ``report.repaired`` lists what was done,
    and ``report.unrecoverable`` maps each genuinely lost oid to the refs
    it strands.
    """
    root = Path(directory)
    report, scan = _scan(root)
    if not repair:
        return report
    repairable = scan.corrupt_loose or scan.wrong_idx or scan.midx_needs_rebuild \
        or scan.orphan_tmp or any(not pack.intact for pack in scan.pack_scans)
    if not repairable:
        return report
    actions = _repair(scan, report)
    final, _ = _scan(root)
    final.repaired = actions
    return final
