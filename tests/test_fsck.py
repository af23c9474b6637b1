"""Corruption matrix for ``gitcite fsck [--repair]``.

Each test damages one artefact class of an on-disk working copy — loose
object files, pack records, the per-pack ``.idx``, the multi-pack
``.midx``, ``state.json``, orphan temp files, citation blobs, whole missing
objects — and asserts three things: the audit *detects* it (right category,
right severity), ``--repair`` recovers everything recoverable (quarantine,
salvage, index rebuild — never silent deletion), and what cannot be
recovered is reported as unrecoverable together with the refs it strands.
"""

from __future__ import annotations

import pytest

from legacy_copies import LEGACY_KINDS, copy_legacy
from repro import faults
from repro.citation.manager import CitationManager
from repro.cli.main import main
from repro.vcs.fsck import fsck_working_copy
from repro.vcs.repository import Repository
from repro.vcs.workingcopy import load_repository, save_repository


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def _make_working_copy(root, kind, bad_citation: bool = False):
    """A pack copy of a small history, or a copy of a committed legacy one."""
    if kind in LEGACY_KINDS:
        return load_repository(copy_legacy(kind, root))
    root.mkdir(parents=True, exist_ok=True)
    repo = Repository.init("fscktest", "alice")
    repo.write_file("/a.txt", "alpha\n")
    repo.write_file("/docs/b.txt", "beta\n")
    repo.commit("c0", author_name="alice")
    manager = CitationManager(repo)
    manager.init_citations()
    manager.commit("enable citations")
    if bad_citation:
        repo.write_file("/citation.cite", "this is { not a citation file")
        repo.commit("break the citation file", author_name="alice")
    repo.write_file("/a.txt", "alpha two\n")
    repo.commit("c1", author_name="alice")
    save_repository(repo, root)
    return repo


def _blob_oid(repo, content: bytes) -> str:
    for oid in repo.store.iter_oids():
        if repo.store.get_type(oid) == "blob" and repo.store.get_blob(oid).data == content:
            return oid
    raise AssertionError(f"no blob with content {content!r}")


def _loose_path(root, oid: str):
    return root / ".gitcite" / "objects" / oid[:2] / oid[2:]


def _pack_files(root):
    return sorted((root / ".gitcite" / "pack").glob("pack-*.pack"))


def _categories(report, severity=None):
    return {
        f.category
        for f in report.findings
        if severity is None or f.severity == severity
    }


# ---------------------------------------------------------------------------
# Clean stores
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "loose", "pack"])
def test_clean_store_passes(tmp_path, kind):
    _make_working_copy(tmp_path / "wc", kind)
    report = fsck_working_copy(tmp_path / "wc")
    assert report.ok, [str(f) for f in report.findings]
    assert report.objects_checked > 0
    assert report.refs_checked >= 1
    assert report.citations_checked >= 1
    assert not report.unrecoverable
    assert main(["fsck", "-C", str(tmp_path / "wc")]) == 0


def test_not_a_working_copy(tmp_path):
    assert main(["fsck", "-C", str(tmp_path)]) != 0


# ---------------------------------------------------------------------------
# Loose objects
# ---------------------------------------------------------------------------


def test_loose_flipped_byte_detected_quarantined_and_stranded(tmp_path):
    root = tmp_path / "wc"
    repo = _make_working_copy(root, "loose")
    victim = _blob_oid(repo, b"beta\n")
    path = _loose_path(root, victim)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))

    report = fsck_working_copy(root)
    assert not report.ok
    assert "loose" in _categories(report, "error")
    assert victim in {f.oid for f in report.errors()}

    repaired = fsck_working_copy(root, repair=True)
    assert not path.exists(), "corrupt loose file must leave the object directory"
    quarantine = root / ".gitcite" / "quarantine"
    assert any(p.name == path.name for p in quarantine.iterdir())
    assert victim in repaired.unrecoverable
    assert any("branch" in ref for ref in repaired.unrecoverable[victim])
    assert main(["fsck", "-C", str(root)]) == 1  # loss is permanent


def test_loose_truncated_file_detected(tmp_path):
    root = tmp_path / "wc"
    repo = _make_working_copy(root, "loose")
    victim = _blob_oid(repo, b"alpha two\n")
    path = _loose_path(root, victim)
    path.write_bytes(path.read_bytes()[:3])
    report = fsck_working_copy(root)
    assert not report.ok
    assert any(
        f.category == "loose" and f.oid == victim and "unreadable" in f.detail
        for f in report.errors()
    )


def test_missing_loose_object_strands_refs(tmp_path):
    root = tmp_path / "wc"
    repo = _make_working_copy(root, "loose")
    victim = _blob_oid(repo, b"beta\n")
    _loose_path(root, victim).unlink()
    report = fsck_working_copy(root, repair=True)
    assert not report.ok
    assert "connectivity" in _categories(report, "error")
    assert victim in report.unrecoverable
    assert report.unrecoverable[victim]  # names at least one stranded ref


# ---------------------------------------------------------------------------
# Pack files and their indexes
# ---------------------------------------------------------------------------


def test_pack_record_flip_is_salvaged_around(tmp_path):
    root = tmp_path / "wc"
    repo = _make_working_copy(root, "pack")
    victim = _blob_oid(repo, b"beta\n")
    (pack_path,) = _pack_files(root)
    data = bytearray(pack_path.read_bytes())
    header = data.find(f" {victim} ".encode("ascii"))
    assert header >= 0, "victim record not found in the pack"
    body = data.index(b"\n", header) + 1
    data[body + 1] ^= 0xFF
    pack_path.write_bytes(bytes(data))

    report = fsck_working_copy(root)
    assert not report.ok
    assert "pack" in _categories(report, "error")

    before = report.objects_checked
    repaired = fsck_working_copy(root, repair=True)
    # The damaged pack was quarantined, never deleted.
    quarantine = root / ".gitcite" / "quarantine"
    assert any(p.suffix == ".pack" for p in quarantine.iterdir())
    # Everything that still verified was salvaged into a fresh pack.
    assert _pack_files(root), "salvage must leave a readable pack behind"
    assert repaired.objects_checked == before - 1
    # Only the flipped record is lost; its stranded refs are named.
    assert set(repaired.unrecoverable) == {victim}
    assert any("branch" in ref for ref in repaired.unrecoverable[victim])


def test_missing_idx_is_self_healing_warning(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "pack")
    (pack_path,) = _pack_files(root)
    idx = pack_path.with_suffix(".idx")
    idx.unlink()
    report = fsck_working_copy(root)
    assert report.ok  # a missing cache is degradation, not damage
    assert "idx" in _categories(report, "warning")
    repaired = fsck_working_copy(root, repair=True)
    assert repaired.ok
    # Repair itself does not need to rebuild a merely-missing idx (the
    # backend does on open), but the store must remain fully readable.
    assert not repaired.unrecoverable


def test_garbage_idx_is_error_and_rebuilt(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "pack")
    (pack_path,) = _pack_files(root)
    idx = pack_path.with_suffix(".idx")
    idx.write_bytes(b"not an index at all")
    report = fsck_working_copy(root)
    assert not report.ok
    assert "idx" in _categories(report, "error")
    repaired = fsck_working_copy(root, repair=True)
    assert repaired.ok, [str(f) for f in repaired.findings]
    assert any("rebuilt" in action for action in repaired.repaired)
    assert main(["fsck", "-C", str(root)]) == 0


def test_garbage_midx_is_warning_and_rebuilt(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "pack")
    midx = root / ".gitcite" / "pack" / "multi-pack-index.midx"
    assert midx.is_file()
    midx.write_bytes(b"RMIDXgarbage")
    report = fsck_working_copy(root)
    assert report.ok  # unparseable midx is rejected and rebuilt on open
    assert "midx" in _categories(report, "warning")
    repaired = fsck_working_copy(root, repair=True)
    assert repaired.ok
    assert not _categories(repaired, "warning") & {"midx"}


def test_wrong_midx_entry_is_error_and_rebuilt(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "pack")
    midx = root / ".gitcite" / "pack" / "multi-pack-index.midx"
    data = bytearray(midx.read_bytes())
    data[-1] ^= 0xFF  # last entry's offset now points at nothing
    midx.write_bytes(bytes(data))
    report = fsck_working_copy(root)
    assert not report.ok
    assert "midx" in _categories(report, "error")
    repaired = fsck_working_copy(root, repair=True)
    assert repaired.ok, [str(f) for f in repaired.findings]


# ---------------------------------------------------------------------------
# State file, temp files, citations
# ---------------------------------------------------------------------------


def test_corrupt_state_file_is_an_error(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "pack")
    (root / ".gitcite" / "state.json").write_text("{ torn mid-write", encoding="utf-8")
    report = fsck_working_copy(root)
    assert not report.ok
    assert "state" in _categories(report, "error")
    assert main(["fsck", "-C", str(root)]) == 1


def test_orphan_tmp_files_warned_and_swept(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "pack")
    orphan = root / ".gitcite" / ".tmp-state.json.999.0.dead"
    orphan.write_bytes(b"torn")
    report = fsck_working_copy(root)
    assert report.ok
    assert "tmp" in _categories(report, "warning")
    repaired = fsck_working_copy(root, repair=True)
    assert not orphan.exists()
    assert repaired.ok
    assert not _categories(repaired, "warning") & {"tmp"}


def test_unparseable_citation_file_reported(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "pack", bad_citation=True)
    report = fsck_working_copy(root)
    assert not report.ok
    assert "citation" in _categories(report, "error")
    # Object storage itself is fine: nothing to repair, nothing unrecoverable.
    repaired = fsck_working_copy(root, repair=True)
    assert not repaired.unrecoverable


def test_memory_layout_embedded_corruption(tmp_path):
    root = tmp_path / "wc"
    _make_working_copy(root, "memory")
    state_path = root / ".gitcite" / "state.json"
    text = state_path.read_text(encoding="utf-8")
    # Corrupt one embedded payload: swap the first base64 chunk's case.
    import re

    match = re.search(r'"payload": "([A-Za-z0-9+/=]{8})', text)
    assert match
    chunk = match.group(1)
    state_path.write_text(text.replace(chunk, chunk.swapcase(), 1), encoding="utf-8")
    report = fsck_working_copy(root)
    assert not report.ok
    assert "state" in _categories(report, "error")


def test_citation_walk_parses_shared_history_once(tmp_path, monkeypatch):
    """Many refs over one history: each commit is parsed once per walk, not per ref."""
    from repro.vcs import fsck as fsck_module

    root = tmp_path / "wc"
    repo = _make_working_copy(root / "seed", "pack")
    for number in range(8):
        repo.write_file("/a.txt", f"alpha {number}\n")
        repo.commit(f"c{number + 2}", author_name="alice")
    tips = [info.oid for info in repo.log()]
    for number in range(40):
        repo.create_branch(f"topic-{number}", at=tips[number % len(tips)])
    save_repository(repo, root)

    parses: dict[bytes, int] = {}
    original = fsck_module.deserialize_object

    def counting(object_type, payload):
        if object_type == "commit":
            parses[payload] = parses.get(payload, 0) + 1
        return original(object_type, payload)

    monkeypatch.setattr(fsck_module, "deserialize_object", counting)
    report = fsck_working_copy(root)
    assert report.ok
    assert report.refs_checked == 41
    assert len(parses) == len(tips)
    # One parse for the connectivity walk and one for the citation walk,
    # however many of the 41 refs share each commit.
    assert max(parses.values()) <= 2
