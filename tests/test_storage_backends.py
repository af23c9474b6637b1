"""Tests for the pluggable object-storage subsystem (repro.vcs.storage).

The two backends must be oid-for-oid interchangeable: any object written
through one layout reads back identically through the other, transfers work
across heterogeneous backends, packs survive reopening, legacy loose copies
still read back, and ``repack()`` is idempotent.  The larger randomised interchangeability sweeps
are marked ``slow`` and excluded from the default (tier-1) run.
"""

from __future__ import annotations

import random
import zlib
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legacy_copies import build_reference, copy_legacy, fixture_path
from repro.errors import (
    CLIError,
    CorruptObjectError,
    InvalidObjectError,
    ObjectNotFoundError,
    StorageError,
)
from repro.cli.main import main as cli_main
from repro.utils.hashing import object_id
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import Blob, Commit, Signature, Tag, Tree, TreeEntry
from repro.vcs.remote import clone_repository, push
from repro.vcs.repository import Repository
from repro.vcs.storage import MemoryBackend, PackBackend, make_backend
from repro.vcs.storage.loose import decode_loose_object, loose_object_files
from repro.vcs.storage import pack as pack_module
from repro.vcs.storage.pack import DeltaWindow, apply_delta, delta_output_length, encode_delta
from repro.vcs.workingcopy import load_repository, reachable_from_refs, save_repository

BACKEND_KINDS = ("memory", "pack")


def _new_backend(kind: str, tmp_path, label: str = "store"):
    if kind == "memory":
        return MemoryBackend()
    return PackBackend(tmp_path / f"{label}-{kind}")


#: Fixed timestamp so repeated calls to the object builders are deterministic
#: (the autouse clock *steps* on every ``now_utc()`` call).
_STAMP = datetime(2020, 5, 17, 9, 30, 0, tzinfo=timezone.utc)


def _sample_objects():
    """A small population covering all four object types."""
    signature = Signature(name="alice", email="alice@example.org", timestamp=_STAMP)
    blobs = [Blob(f"content {i}\n".encode() * (i + 1)) for i in range(6)]
    tree = Tree(entries=tuple(
        TreeEntry(name=f"file{i}.txt", oid=blob.oid) for i, blob in enumerate(blobs)
    ))
    commit = Commit(
        tree_oid=tree.oid, parent_oids=(), author=signature, committer=signature,
        message="sample",
    )
    tag = Tag(
        object_oid=commit.oid, object_type="commit", name="v1", tagger=signature,
        message="release",
    )
    return [*blobs, tree, commit, tag]


@pytest.fixture(params=BACKEND_KINDS)
def store(request, tmp_path) -> ObjectStore:
    """An ObjectStore over each backend kind in turn."""
    return ObjectStore(_new_backend(request.param, tmp_path))


class TestBackendRoundTrip:
    def test_put_get_all_object_types(self, store):
        for obj in _sample_objects():
            oid = store.put(obj)
            assert store.get(oid) == obj
            assert store.get_type(oid) == obj.type_name
            assert oid in store

    def test_get_survives_cache_eviction(self, tmp_path):
        for kind in BACKEND_KINDS:
            small_cache = ObjectStore(_new_backend(kind, tmp_path, "tiny"), cache_size=2)
            objects = _sample_objects()
            oids = small_cache.put_many(objects)
            small_cache.flush()
            for oid, obj in zip(oids, objects):
                assert small_cache.get(oid) == obj

    def test_missing_object_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get("f" * 40)
        with pytest.raises(ObjectNotFoundError):
            store.get_type("f" * 40)

    def test_len_iter_and_object_ids_agree(self, store):
        oids = store.put_many(_sample_objects())
        assert len(store) == len(set(oids))
        assert sorted(store.iter_oids()) == sorted(set(oids))
        assert store.object_ids() == sorted(set(oids))

    def test_put_is_idempotent(self, store):
        blob = Blob(b"same bytes")
        assert store.put(blob) == store.put(blob)
        assert len(store) == 1

    def test_total_size_counts_payload_bytes(self, store):
        store.put(Blob(b"12345"))
        store.flush()
        assert store.total_size() >= 5


class TestInterchangeability:
    """The backends must be oid-for-oid interchangeable."""

    def test_same_objects_same_oids_across_backends(self, tmp_path):
        populations = {}
        for kind in BACKEND_KINDS:
            backend_store = ObjectStore(_new_backend(kind, tmp_path, "interop"))
            backend_store.put_many(_sample_objects())
            backend_store.flush()
            populations[kind] = {
                oid: backend_store.backend.read(oid) for oid in backend_store.iter_oids()
            }
        assert populations["pack"] == populations["memory"]

    @pytest.mark.parametrize("source_kind", BACKEND_KINDS)
    @pytest.mark.parametrize("destination_kind", BACKEND_KINDS)
    def test_copy_objects_across_heterogeneous_backends(
        self, tmp_path, source_kind, destination_kind
    ):
        source = ObjectStore(_new_backend(source_kind, tmp_path, "src"))
        destination = ObjectStore(_new_backend(destination_kind, tmp_path, "dst"))
        oids = source.put_many(_sample_objects())
        assert source.copy_objects_to(destination) == len(set(oids))
        assert source.copy_objects_to(destination) == 0  # idempotent
        destination.flush()
        for oid in oids:
            assert destination.get(oid) == source.get(oid)
        assert source.missing_from(destination) == []

    def test_copy_validates_before_mutating_across_backends(self, tmp_path):
        source = ObjectStore(_new_backend("memory", tmp_path, "vsrc"))
        destination = ObjectStore(_new_backend("pack", tmp_path, "vdst"))
        present = source.put(Blob(b"present"))
        missing = "0" * 40
        with pytest.raises(ObjectNotFoundError):
            source.copy_objects_to(destination, [present, missing])
        assert len(destination) == 0

    @pytest.mark.slow
    def test_randomised_population_is_interchangeable(self, tmp_path):
        """Hundreds of random objects: identical oid sets + payloads everywhere."""
        rng = random.Random(20260730)
        signature = Signature(name="bot", email="bot@example.org", timestamp=_STAMP)
        objects = []
        for _ in range(400):
            size = rng.randint(0, 4000)
            objects.append(Blob(bytes(rng.getrandbits(8) for _ in range(size))))
        for _ in range(40):
            sample = rng.sample(objects[:400], k=rng.randint(1, 12))
            objects.append(Tree(entries=tuple(
                TreeEntry(name=f"f{j}", oid=blob.oid) for j, blob in enumerate(sample)
            )))
        parent: tuple[str, ...] = ()
        for tree in [o for o in objects if isinstance(o, Tree)][:10]:
            commit = Commit(
                tree_oid=tree.oid, parent_oids=parent, author=signature,
                committer=signature, message="random commit",
            )
            objects.append(commit)
            parent = (commit.oid,)
        stores = {
            kind: ObjectStore(_new_backend(kind, tmp_path, "bulk")) for kind in BACKEND_KINDS
        }
        for kind_store in stores.values():
            kind_store.put_many(objects)
            kind_store.flush()
        oid_sets = {kind: set(s.iter_oids()) for kind, s in stores.items()}
        assert oid_sets["memory"] == oid_sets["pack"]
        for oid in sorted(oid_sets["memory"]):
            assert stores["pack"].backend.read(oid) == stores["memory"].backend.read(oid)


class TestPersistence:
    @pytest.mark.parametrize("kind", ("loose", "pack"))
    def test_reopen_sees_identical_objects(self, tmp_path, kind):
        """Packs reopen to what was written; the committed loose copy (written
        by the old loose writer) decodes to its reference objects."""
        if kind == "loose":
            reference = build_reference().store
            objects_root = fixture_path("loose") / ".gitcite" / "objects"
            decoded = {
                oid: decode_loose_object(path.read_bytes())
                for oid, path in loose_object_files(objects_root)
            }
            assert sorted(decoded) == reference.object_ids()
            for oid, record in decoded.items():
                assert record == reference.backend.read(oid)
            return
        first = ObjectStore(_new_backend(kind, tmp_path, "reopen"))
        oids = first.put_many(_sample_objects())
        first.close()
        root = first.backend.root
        reopened = ObjectStore(make_backend(kind, root))
        assert sorted(reopened.iter_oids()) == sorted(set(oids))
        for obj in _sample_objects():
            assert reopened.get(obj.oid) == obj

    def test_loose_scan_ignores_crash_leftover_tmp_files(self, tmp_path):
        """Regression: stray non-hex files must not become phantom oids."""
        directory = copy_legacy("loose", tmp_path / "leftovers")
        objects_root = directory / ".gitcite" / "objects"
        oid = build_reference().head_oid()
        # A crash between write_bytes and the atomic rename left a temp file.
        (objects_root / oid[:2] / f".tmp-{oid[2:]}-12345").write_bytes(b"partial")
        (objects_root / "no").mkdir()
        (objects_root / "no" / "t a valid name").write_bytes(b"junk")
        loaded = load_repository(directory)
        assert loaded.store.object_ids() == build_reference().store.object_ids()

    def test_loose_detects_corruption_on_read(self, tmp_path):
        directory = copy_legacy("loose", tmp_path / "corrupt")
        oid = build_reference().blob_oid_at("HEAD", "/docs/b.txt")
        path = directory / ".gitcite" / "objects" / oid[:2] / oid[2:]
        path.write_bytes(zlib.compress(b"blob 9\0different"))
        with pytest.raises(CLIError, match=oid):
            load_repository(directory)

    def test_pack_index_is_rebuilt_when_missing(self, tmp_path):
        backend = PackBackend(tmp_path / "noidx")
        store = ObjectStore(backend)
        oids = store.put_many(_sample_objects())
        store.close()
        for index_file in backend.root.glob("*.idx"):
            index_file.unlink()
        reopened = ObjectStore(PackBackend(backend.root))
        assert sorted(reopened.iter_oids()) == sorted(set(oids))
        for obj in _sample_objects():
            assert reopened.get(obj.oid) == obj

    def test_make_backend_specs(self, tmp_path):
        assert make_backend(None).kind == "memory"
        assert make_backend("memory").kind == "memory"
        assert make_backend(f"pack:{tmp_path / 'spec'}").kind == "pack"
        assert make_backend("pack", tmp_path / "spec2").kind == "pack"
        existing = MemoryBackend()
        assert make_backend(existing) is existing
        with pytest.raises(StorageError):
            make_backend("pack")  # no directory
        for retired_or_unknown in ("loose", "granite"):
            with pytest.raises(StorageError):
                make_backend(retired_or_unknown, tmp_path)


class TestPackSpecifics:
    def test_delta_codec_round_trips(self):
        base = b"line one\nline two\nline three\n" * 40
        target = base.replace(b"line two", b"line 2") + b"appended tail\n"
        delta = encode_delta(base, target)
        assert apply_delta(base, delta) == target

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.binary(max_size=600),
        target=st.binary(max_size=600),
        splices=st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)), max_size=4),
    )
    @example(  # a copy ends where the next block hit could extend backwards into it
        base=bytes(range(31)) + bytes([19]) + bytes(range(32, 64)),
        target=bytes(range(20)) + bytes(range(32, 64)),
        splices=[],
    )
    def test_delta_codec_round_trips_any_bytes(self, base, target, splices):
        # Splicing runs of the base into the target gives the encoder real
        # matches to find, at arbitrary offsets and overlaps.
        for start, length in splices:
            cut = start % (len(target) + 1)
            target = target[:cut] + base[start:start + length] + target[cut:]
        delta = encode_delta(base, target)
        assert apply_delta(base, delta) == target
        budgeted = encode_delta(base, target, max_literal=len(target) // 3)
        assert budgeted is None or apply_delta(base, budgeted) == target

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | st.lists(
        st.sampled_from([b"C", b"I", b" ", b"\n", b"-", b"0", b"3", b"x"]), max_size=24
    ).map(b"".join))
    @example(b"C 5\n")  # a copy without its length
    @example(b"I -5\n")  # a negative literal moved the cursor back forever
    @example(b"C 0 -3\n")
    @example(b"X 1\nx")
    def test_delta_decoders_are_total(self, delta):
        try:
            length = delta_output_length(delta)
        except ValueError:
            pass
        else:
            assert isinstance(length, int) and length >= 0
        try:
            apply_delta(b"0123456789", delta)
        except (ValueError, IndexError):
            pass

    def test_read_size_of_a_malformed_delta_is_corruption(self, tmp_path, monkeypatch):
        """A present but corrupt delta record is not an absent object."""
        monkeypatch.setattr(pack_module, "encode_delta", lambda *_: b"C 5\n")
        backend = PackBackend(tmp_path / "bad-delta")
        store = ObjectStore(backend)
        noise = random.Random(5).randbytes(2000)
        base, target = Blob(noise), Blob(noise + b"tail\n")
        store.put_many([base, target])
        store.flush()
        assert b"delta blob " + target.oid.encode() in next(backend.root.glob("*.pack")).read_bytes()
        for probe in (backend.read, backend.read_size):
            with pytest.raises(CorruptObjectError, match="malformed delta body"):
                probe(target.oid)
        reopened = ObjectStore(PackBackend(backend.root))
        with pytest.raises(CorruptObjectError, match="malformed delta body"):
            reopened.blob_size(target.oid)

    def test_delta_encoding_is_deterministic(self):
        rng = random.Random(7)
        base = bytes(rng.getrandbits(8) for _ in range(4000)) * 2
        target = base[1000:5000] + b"inserted" + base[:900] + base[6000:]
        first = encode_delta(base, target)
        assert encode_delta(bytes(base), bytes(target)) == first
        assert apply_delta(base, first) == target

    def test_delta_gives_up_past_the_literal_budget(self):
        rng = random.Random(11)
        base = bytes(rng.getrandbits(8) for _ in range(2000))
        unrelated = bytes(rng.getrandbits(8) for _ in range(2000))
        assert encode_delta(base, unrelated, max_literal=500) is None
        edited = base[:1000] + b"x" * 100 + base[1000:]
        delta = encode_delta(base, edited, max_literal=500)
        assert delta is not None and apply_delta(base, delta) == edited

    def test_scattered_edits_are_delta_compressed(self):
        rng = random.Random(3)
        lines = [f"value_{i} = {rng.getrandbits(64):016x}\n" for i in range(300)]
        base = "".join(lines).encode()
        for i in range(0, 300, 25):  # twelve edits spread over the file
            lines[i] = f"edited_{i} = {rng.getrandbits(64):016x}\n"
        target = "".join(lines).encode()
        window = DeltaWindow()
        window.encode(object_id("blob", base), "blob", base)
        header, body = window.encode(object_id("blob", target), "blob", target)
        assert header.startswith(b"delta blob ")
        assert len(body) < len(zlib.compress(target)) // 4
        assert apply_delta(base, zlib.decompress(body)) == target

    def test_similar_blobs_are_delta_compressed(self, tmp_path):
        backend = PackBackend(tmp_path / "delta")
        store = ObjectStore(backend)
        base_text = ("x = %d\n" * 400) % tuple(range(400))
        revisions = [
            Blob((base_text + f"# revision {i}\n").encode()) for i in range(6)
        ]
        store.put_many(revisions)
        store.flush()
        pack_path = next(backend.root.glob("*.pack"))
        content = pack_path.read_bytes()
        assert b"delta blob " in content
        loose_equivalent = sum(len(zlib.compress(blob.serialize())) for blob in revisions)
        assert pack_path.stat().st_size < loose_equivalent
        for blob in revisions:  # deltas must still read back exactly
            assert store.get(blob.oid) == blob

    def test_repack_is_idempotent(self, tmp_path):
        backend = PackBackend(tmp_path / "repack")
        store = ObjectStore(backend)
        store.put_many(_sample_objects()[:4])
        store.flush()
        store.put_many(_sample_objects()[4:])
        store.flush()
        assert backend.stats()["packs"] == 2
        before = {oid: backend.read(oid) for oid in backend.iter_oids()}
        first = backend.repack()
        assert first["packs_after"] == 1
        second = backend.repack()
        assert second["packs_after"] == 1
        assert second["objects_dropped"] == 0
        assert second["disk_bytes_after"] == first["disk_bytes_after"]
        assert {oid: backend.read(oid) for oid in backend.iter_oids()} == before

    def test_gc_drops_only_unreachable(self, tmp_path):
        backend = PackBackend(tmp_path / "gc")
        store = ObjectStore(backend)
        keep_blob = Blob(b"keep me")
        drop_blob = Blob(b"drop me")
        store.put_many([keep_blob, drop_blob])
        assert store.gc({keep_blob.oid}) == 1
        assert keep_blob.oid in store
        assert drop_blob.oid not in store
        assert store.get(keep_blob.oid) == keep_blob

    @pytest.mark.slow
    def test_repack_idempotent_over_random_population(self, tmp_path):
        rng = random.Random(7)
        backend = PackBackend(tmp_path / "bigrepack")
        store = ObjectStore(backend)
        for _ in range(12):  # several flushes -> several packs
            blobs = [
                Blob(bytes(rng.getrandbits(8) for _ in range(rng.randint(10, 2000))))
                for _ in range(25)
            ]
            store.put_many(blobs)
            store.flush()
        before = {oid: backend.read(oid) for oid in backend.iter_oids()}
        backend.repack()
        middle = {oid: backend.read(oid) for oid in backend.iter_oids()}
        backend.repack()
        after = {oid: backend.read(oid) for oid in backend.iter_oids()}
        assert before == middle == after
        assert backend.stats()["packs"] == 1


class TestMultiPackIndex:
    """The midx (PR 3): one merged fanout across all packs, cache-recoverable."""

    def _populate(self, root, batches=4, per_batch=5):
        backend = PackBackend(root)
        oids = []
        for batch in range(batches):
            for i in range(per_batch):
                payload = f"batch {batch} object {i}\n".encode() * (i + 1)
                oid = object_id("blob", payload)
                backend.write(oid, "blob", payload)
                oids.append(oid)
            backend.flush()
        backend.close()
        return oids

    def test_midx_written_on_flush_and_valid_on_reopen(self, tmp_path):
        root = tmp_path / "midx"
        oids = self._populate(root)
        assert (root / "multi-pack-index.midx").is_file()
        reopened = PackBackend(root)
        assert reopened.stats()["packs"] == 4
        assert reopened.stats()["midx"] is True
        assert sorted(reopened.iter_oids()) == sorted(oids)
        for oid in oids:
            assert reopened.read(oid)[1]
        reopened.close()

    def test_corrupt_midx_is_rebuilt(self, tmp_path):
        root = tmp_path / "corrupt"
        oids = self._populate(root)
        (root / "multi-pack-index.midx").write_bytes(b"garbage")
        reopened = PackBackend(root)
        for oid in oids:
            assert reopened.read(oid)[1]
        # The rebuild rewrote a valid midx file.
        assert (root / "multi-pack-index.midx").read_bytes().startswith(b"RMIDX1\n")
        reopened.close()

    def test_stale_midx_detected_when_pack_set_changes(self, tmp_path):
        root = tmp_path / "stale"
        oids = self._populate(root)
        # Simulate a pack added behind the midx's back (e.g. a crashed
        # flush from another process): copy an existing pack pair.
        new_payload = b"object that arrived behind the midx\n"
        new_oid = object_id("blob", new_payload)
        side = PackBackend(root / "side", use_midx=False)
        side.write(new_oid, "blob", new_payload)
        side.flush()
        side.close()
        for source in (root / "side").glob("pack-*"):
            (root / source.name).write_bytes(source.read_bytes())
        reopened = PackBackend(root)
        assert reopened.read(new_oid) == ("blob", new_payload)
        for oid in oids:
            assert reopened.read(oid)[1]
        reopened.close()

    def test_repack_refreshes_the_midx(self, tmp_path):
        root = tmp_path / "repackmidx"
        oids = self._populate(root)
        backend = PackBackend(root)
        backend.repack()
        assert backend.stats()["packs"] == 1
        assert sorted(backend.iter_oids()) == sorted(oids)
        backend.close()
        reopened = PackBackend(root)  # midx must match the new single pack
        assert reopened.stats()["midx"] is True
        for oid in oids:
            assert reopened.read(oid)[1]
        reopened.close()

    def test_without_midx_reads_still_work(self, tmp_path):
        root = tmp_path / "nomidx"
        oids = self._populate(root)
        backend = PackBackend(root, use_midx=False)
        assert backend.stats()["midx"] is False
        assert sorted(backend.iter_oids()) == sorted(oids)
        for oid in oids:
            assert backend.read(oid)[1]
        backend.close()

    def test_deltas_resolve_through_the_midx(self, tmp_path):
        backend = PackBackend(tmp_path / "deltamidx")
        store = ObjectStore(backend)
        base_text = ("y = %d\n" * 300) % tuple(range(300))
        revisions = [Blob((base_text + f"# rev {i}\n").encode()) for i in range(5)]
        store.put_many(revisions)
        store.flush()
        assert b"delta blob " in next(backend.root.glob("*.pack")).read_bytes()
        reopened = ObjectStore(PackBackend(tmp_path / "deltamidx"))
        for blob in revisions:
            assert reopened.get(blob.oid) == blob

    def test_handle_pool_eviction_keeps_reads_correct(self, tmp_path):
        root = tmp_path / "pool"
        oids = self._populate(root, batches=6, per_batch=4)
        backend = PackBackend(root, handle_limit=2)
        # Interleave reads across all six packs repeatedly: the pool must
        # evict and reopen handles without ever corrupting a read.
        for _ in range(3):
            for oid in oids:
                type_name, payload = backend.read(oid)
                assert object_id(type_name, payload) == oid
        assert backend.open_file_handles() <= 2
        backend.close()


class TestPrefixIndexInvalidation:
    """Regression: the sorted oid index must track *backend* writes, not puts."""

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_resolve_prefix_sees_raw_backend_writes(self, tmp_path, kind):
        store = ObjectStore(_new_backend(kind, tmp_path, "prefix"))
        first = store.put(Blob(b"object zero"))
        assert store.resolve_prefix(first[:8]) == first  # index built here
        late = Blob(b"added behind the facade's back")
        store.backend.write(late.oid, late.type_name, late.serialize())
        assert store.resolve_prefix(late.oid[:8]) == late.oid

    def test_resolve_prefix_sees_objects_copied_in(self, tmp_path):
        source = ObjectStore(MemoryBackend())
        destination = ObjectStore(_new_backend("pack", tmp_path, "copyprefix"))
        seed = destination.put(Blob(b"seed"))
        assert destination.resolve_prefix(seed[:8]) == seed  # index built here
        incoming = source.put(Blob(b"incoming object"))
        source.copy_objects_to(destination)
        assert destination.resolve_prefix(incoming[:8]) == incoming

    def test_resolve_prefix_still_rejects_short_and_ambiguous(self, store):
        store.put(Blob(b"a"))
        with pytest.raises(InvalidObjectError):
            store.resolve_prefix("ab")


class TestRepositoryIntegration:
    def _build(self, storage) -> Repository:
        repo = Repository.init("demo", "alice", storage=storage)
        repo.write_file("src/main.py", "print('hi')\n")
        repo.write_file("docs/guide.md", "# guide\n")
        repo.commit("initial", author_name="alice", timestamp=_STAMP)
        repo.write_file("src/main.py", "print('hi there')\n")
        repo.commit("edit", author_name="alice", timestamp=_STAMP)
        return repo

    def test_repositories_agree_across_backends(self, tmp_path):
        repos = {
            kind: self._build(_new_backend(kind, tmp_path, "repo")) for kind in BACKEND_KINDS
        }
        heads = {kind: repo.head_oid() for kind, repo in repos.items()}
        assert len(set(heads.values())) == 1
        snapshots = {kind: repo.snapshot() for kind, repo in repos.items()}
        assert snapshots["memory"] == snapshots["pack"]

    def test_unknown_ref_on_pack_backend_raises_ref_error(self, tmp_path):
        """Regression: non-hex ref probes must not blow up the fanout lookup."""
        from repro.errors import RefError

        repo = self._build(_new_backend("pack", tmp_path, "refprobe"))
        repo.store.flush()  # ensure at least one pack file exists
        for bogus in ("no-such-ref", "-badly/formed", "zz" * 20):
            with pytest.raises(RefError):
                repo.resolve(bogus)
        assert ("f" * 40) not in repo.store

    def test_clone_and_push_from_persistent_backend(self, tmp_path):
        origin = self._build(_new_backend("pack", tmp_path, "origin"))
        local = clone_repository(origin, owner="bob")
        assert local.head_oid() == origin.head_oid()
        local.write_file("new.txt", "new\n")
        local.commit("add new file", author_name="bob")
        push(local, origin)
        assert origin.head_oid() == local.head_oid()
        assert origin.read_file_at("HEAD", "/new.txt") == b"new\n"

    def test_reachable_from_refs_covers_tags_and_branches(self, tmp_path):
        repo = self._build(_new_backend("pack", tmp_path, "reach"))
        repo.tag("v1", message="first release")
        keep = reachable_from_refs(repo)
        assert repo.head_oid() in keep
        for oid in repo.store.iter_oids():
            assert oid in keep  # everything here is reachable


class TestWorkingCopyLifecycle:
    """The acceptance path: legacy working copy -> pack -> identical history."""

    def _working_copy(self, tmp_path):
        directory = tmp_path / "wc"
        directory.mkdir()
        (directory / "a.txt").write_text("alpha\n")
        (directory / "b.txt").write_text("beta\n")
        assert cli_main(["init", "-C", str(directory), "--owner", "alice"]) == 0
        assert cli_main(["enable", "-C", str(directory), "--title", "Demo"]) == 0
        assert cli_main(["add-cite", "-C", str(directory), "/a.txt",
                         "--title", "Alpha", "--commit"]) == 0
        return directory

    def test_loose_repack_preserves_oids_and_citations(self, tmp_path):
        from repro.citation.manager import CitationManager

        directory = copy_legacy("loose", tmp_path / "wc")
        before = load_repository(directory)
        before_oids = before.store.object_ids()
        before_log = [(c.oid, c.summary) for c in before.log()]
        before_cite = CitationManager(before).cite("/a.txt").citation
        assert cli_main(["storage", "repack", "-C", str(directory)]) == 0
        after = load_repository(directory)
        assert after.store.backend.kind == "pack"
        assert after.store.object_ids() == before_oids
        assert [(c.oid, c.summary) for c in after.log()] == before_log
        assert CitationManager(after).cite("/a.txt").citation == before_cite
        assert not (directory / ".gitcite" / "objects").exists()

    @pytest.mark.parametrize("source,target", [("memory", "pack"), ("loose", "pack")])
    def test_migrate_between_layouts(self, tmp_path, source, target):
        """A legacy copy's next save moves it to packs, oid for oid."""
        directory = copy_legacy(source, tmp_path / "wc")
        before = load_repository(directory)
        before_oids = before.store.object_ids()
        save_repository(before, directory)
        after = load_repository(directory)
        assert after.store.backend.kind == target
        assert after.store.object_ids() == before_oids
        import json as json_module

        state = json_module.loads((directory / ".gitcite" / "state.json").read_text())
        assert state["storage"] == target and "objects" not in state
        # The legacy object directory is gone.
        assert {p.name for p in (directory / ".gitcite").iterdir()} == {"state.json", "pack"}

    def test_gc_removes_unreachable_objects(self, tmp_path):
        directory = self._working_copy(tmp_path)
        repo = load_repository(directory)
        orphan = Blob(b"never referenced by any commit")
        repo.store.put(orphan)
        save_repository(repo, directory)
        assert orphan.oid in load_repository(directory).store
        assert cli_main(["storage", "gc", "-C", str(directory)]) == 0
        cleaned = load_repository(directory)
        assert orphan.oid not in cleaned.store
        assert cleaned.head_oid() == repo.head_oid()

    def test_resave_via_other_path_spelling_is_not_destructive(self, simple_repo, tmp_path, monkeypatch):
        """Regression: relative-vs-absolute directory must not self-migrate."""
        directory = tmp_path / "spelling"
        save_repository(simple_repo, directory)
        monkeypatch.chdir(tmp_path)
        loaded = load_repository("spelling")  # backend root is relative
        save_repository(loaded, directory.resolve())
        final = load_repository(directory)
        assert final.store.object_ids() == simple_repo.store.object_ids()
        assert final.head_oid() == simple_repo.head_oid()

    def test_save_always_writes_pack(self, simple_repo, tmp_path):
        directory = tmp_path / "explicit"
        save_repository(simple_repo, directory)
        assert (directory / ".gitcite" / "pack").is_dir()
        assert simple_repo.store.backend.kind == "pack"  # the live store moved too
        loaded = load_repository(directory)
        assert loaded.store.backend.kind == "pack"
        assert loaded.head_oid() == simple_repo.head_oid()

    @pytest.mark.parametrize("argv", [
        ["init", "--owner", "alice", "--storage", "pack"],
        ["storage", "migrate", "--to", "pack"],
    ])
    def test_no_layout_options_remain(self, tmp_path, argv):
        with pytest.raises(SystemExit):
            cli_main([*argv, "-C", str(tmp_path)])

    def test_repository_open_classmethod(self, tmp_path):
        directory = copy_legacy("loose", tmp_path / "open")
        opened = Repository.open(directory)
        assert opened.head_oid() == build_reference().head_oid()
        assert opened.store.backend.kind == "memory"  # converted by the next save


def test_oid_contract_is_layout_independent():
    """The id function itself never consults storage."""
    blob = Blob(b"layout independence")
    assert blob.oid == object_id("blob", b"layout independence")
