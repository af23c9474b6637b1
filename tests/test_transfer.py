"""Tests for the sync subsystem: negotiation, bundles, sessions, gc pins.

Covers the PR 5 tentpole (repro.vcs.transfer) and its satellites: gc-clean
clones, the pull unborn-HEAD fix, the ObjectStore pin/lease registry, the
``gitcite bundle`` commands, and the hypothesis property that a negotiated
sync transfers exactly the objects missing on the receiver across storage
backend pairs and repeated divergent push/pull rounds.  A second property
pins the generation-bounded negotiation and fast-forward check to full-walk
references on random commit DAGs.
"""

import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import BundleError, RemoteError
from repro.vcs.merge import is_ancestor_commit
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import MODE_FILE, Blob, Commit, Signature, Tree, TreeEntry
from repro.vcs.remote import (
    LocalRemote,
    clone_repository,
    fetch_branch,
    pull,
    push,
    reachable_objects,
)
from repro.vcs.repository import Repository
from repro.vcs.storage import make_backend
from repro.vcs.transfer import (
    advertise_refs,
    apply_bundle,
    common_tips,
    create_bundle,
    negotiate,
    read_bundle,
    update_refs_from_bundle,
    verify_bundle,
    write_bundle,
)
from repro.vcs.treeops import tree_closure


def make_repo(history=3, files_per_commit=4, name="origin", owner="alice", storage=None):
    repo = Repository.init(name, owner, storage=storage)
    for round_number in range(history):
        for slot in range(files_per_commit):
            repo.write_file(
                f"src/pkg{slot}/mod_{slot}.py",
                f"# revision {round_number} slot {slot}\n" + "body\n" * 20,
            )
        repo.commit(f"round {round_number}")
    return repo


def store_oids(repo):
    return set(repo.store.iter_oids())


# ---------------------------------------------------------------------------
# Frontier: negotiation and tree closures
# ---------------------------------------------------------------------------


class TestNegotiate:
    def test_full_negotiation_covers_reachable_set(self):
        repo = make_repo()
        tip = repo.head_oid()
        plan = negotiate(repo.store, [tip])
        assert set(plan.objects) == reachable_objects(repo.store, tip)
        assert plan.boundary == ()
        # Parents come before children in the commit order.
        positions = {oid: i for i, oid in enumerate(plan.new_commits)}
        for oid in plan.new_commits:
            for parent in repo.store.get_commit(oid).parent_oids:
                assert positions[parent] < positions[oid]

    def test_thin_negotiation_offers_only_new_objects(self):
        repo = make_repo(history=4)
        base = repo.head_oid()
        repo.write_file("src/pkg0/mod_0.py", "# touched\n")
        tip = repo.commit("touch one")
        plan = negotiate(repo.store, [tip], haves=[base])
        assert plan.boundary == (base,)
        assert plan.new_commits == (tip,)
        # One commit, the changed blob, and the dirty directory chain only.
        expected = reachable_objects(repo.store, tip) - reachable_objects(repo.store, base)
        assert set(plan.objects) == expected
        assert plan.objects_offered <= 5

    def test_unknown_haves_are_dropped(self):
        repo = make_repo()
        tip = repo.head_oid()
        plan = negotiate(repo.store, [tip], haves=["0" * 40, tip])
        assert plan.haves == (tip,)
        assert plan.objects == ()

    def test_unknown_want_raises(self):
        repo = make_repo()
        with pytest.raises(RemoteError):
            negotiate(repo.store, ["f" * 40])

    def test_want_that_is_not_a_commit_raises(self):
        repo = make_repo()
        blob_oid = repo.store.put(Blob(b"not a commit"))
        with pytest.raises(RemoteError):
            negotiate(repo.store, [blob_oid])

    def test_tree_closure_is_memoised_across_commits(self):
        repo = make_repo(history=3)
        tree_oids = [
            repo.store.get_commit(info.oid).tree_oid for info in repo.log()
        ]
        calls = {"n": 0}
        original_get_tree = repo.store.get_tree

        def counting_get_tree(oid):
            calls["n"] += 1
            return original_get_tree(oid)

        repo.store.get_tree = counting_get_tree
        cache = {}
        for tree_oid in tree_oids:
            tree_closure(repo.store, tree_oid, cache)
        # One get_tree per *distinct* tree across the whole history: shared
        # (unchanged) subtrees are served from the memo cache, never re-read.
        assert calls["n"] == len(cache)
        calls["n"] = 0
        for tree_oid in tree_oids:
            tree_closure(repo.store, tree_oid, cache)
        assert calls["n"] == 0  # fully memoised on revisit

    def test_common_tips_walks_back_from_an_ahead_receiver(self):
        origin = make_repo()
        local = clone_repository(origin)
        shared_tip = origin.head_oid()
        local.write_file("local-only.txt", "l")
        local.commit("local work")
        # The receiver (local) is ahead: its tip is unknown to origin, but
        # negotiation walks back to the shared commit instead of giving up.
        assert common_tips(origin.store, local) == [shared_tip]


# ---------------------------------------------------------------------------
# Bundle format
# ---------------------------------------------------------------------------


class TestBundleFormat:
    def _full_bundle(self, repo):
        tip = repo.head_oid()
        return create_bundle(
            repo.store, [tip], refs=advertise_refs(repo)
        ), tip

    def test_round_trip_preserves_objects_and_refs(self):
        repo = make_repo()
        data, tip = self._full_bundle(repo)
        bundle = read_bundle(data)
        assert bundle.branches == {"main": tip}
        assert bundle.head_branch == "main"
        objects = bundle.materialize()
        assert set(objects) == reachable_objects(repo.store, tip)
        for oid, (type_name, payload) in objects.items():
            assert repo.store.get_raw(oid) == (type_name, payload)

    def test_similar_blobs_are_delta_compressed(self):
        repo = Repository.init("deltas", "alice")
        # Low-redundancy body: zlib alone cannot shrink it much, so the
        # cross-blob delta is the only way to win.
        import hashlib as _hashlib

        body = "".join(
            _hashlib.sha256(str(i).encode()).hexdigest() + "\n" for i in range(200)
        )
        for i in range(6):
            repo.write_file(f"file_{i}.txt", body + f"tail {i}\n")
        repo.commit("similar blobs")
        data, _ = self._full_bundle(repo)
        bundle = read_bundle(data)
        kinds = {record.kind for record in bundle.records if record.type_name == "blob"}
        assert "delta" in kinds  # at least one blob rode as a delta
        assert bundle.materialize()  # and they all decode + re-hash cleanly

    def test_truncated_bundle_is_rejected(self):
        repo = make_repo()
        data, _ = self._full_bundle(repo)
        with pytest.raises(BundleError):
            read_bundle(data[: len(data) // 2])

    def test_bit_flip_fails_the_checksum(self):
        repo = make_repo()
        data, _ = self._full_bundle(repo)
        position = len(data) // 2
        corrupted = data[:position] + bytes([data[position] ^ 0xFF]) + data[position + 1:]
        with pytest.raises(BundleError, match="checksum"):
            read_bundle(corrupted)

    def test_bad_magic_rejected(self):
        with pytest.raises(BundleError, match="magic"):
            read_bundle(b"NOTABUNDLE\n")

    @staticmethod
    def _checksummed(body: bytes) -> bytes:
        import hashlib

        return body + f"checksum {hashlib.sha1(body).hexdigest()}\n".encode("ascii")

    def test_negative_record_size_rejected(self):
        # A negative csize would rewind the cursor and re-parse the same
        # header forever-ish; it must be rejected immediately.
        body = b"RBNDL1\nobjects 1\nfull blob " + b"a" * 40 + b" -18\n"
        with pytest.raises(BundleError, match="malformed object record"):
            read_bundle(self._checksummed(body))

    def test_implausible_object_count_rejected(self):
        # An attacker-chosen count must not drive the parse loop: anything
        # larger than the remaining body is rejected before the first record.
        body = b"RBNDL1\nobjects 2000000000\n"
        with pytest.raises(BundleError, match="implausible object count"):
            read_bundle(self._checksummed(body))

    def test_forged_record_fails_object_hash(self):
        # Rebuild a record under a wrong oid with a *valid* stream checksum:
        # the per-object re-hash must still catch it.
        repo = Repository.init("forge", "alice")
        repo.write_file("a.txt", "payload\n")
        repo.commit("c")
        good = repo.store.put(Blob(b"payload\n"))
        bad_oid = "f" * 40
        data = write_bundle(repo.store, [good])
        tampered = data.replace(good.encode("ascii"), bad_oid.encode("ascii"))
        import hashlib

        trailer = len("checksum ") + 40 + 1
        body = tampered[:-trailer]
        tampered = body + f"checksum {hashlib.sha1(body).hexdigest()}\n".encode("ascii")
        bundle = read_bundle(tampered)
        with pytest.raises(BundleError, match="hash"):
            bundle.materialize()


# ---------------------------------------------------------------------------
# Sessions: verified apply, atomicity, ref updates
# ---------------------------------------------------------------------------


class TestApplyBundle:
    def test_apply_installs_exactly_the_missing_objects(self):
        origin = make_repo()
        receiver = Repository.init("copy", "bob")
        before = store_oids(receiver)
        data = create_bundle(origin.store, [origin.head_oid()])
        result = apply_bundle(receiver.store, data)
        missing = reachable_objects(origin.store, origin.head_oid()) - before
        assert result.added_oids == frozenset(missing)
        assert result.objects_added == len(missing)
        # A second apply adds nothing.
        assert apply_bundle(receiver.store, data).objects_added == 0

    def test_corrupt_bundle_leaves_store_and_refs_untouched(self):
        origin = make_repo()
        receiver = Repository.init("copy", "bob")
        receiver.write_file("own.txt", "own")
        receiver.commit("own work")
        before_oids = store_oids(receiver)
        before_branches = receiver.refs.branches
        data = create_bundle(origin.store, [origin.head_oid()], refs=advertise_refs(origin))
        position = len(data) * 2 // 3
        corrupted = data[:position] + bytes([data[position] ^ 0x01]) + data[position + 1:]
        with pytest.raises(BundleError):
            apply_bundle(receiver.store, corrupted)
        with pytest.raises(BundleError):
            apply_bundle(receiver.store, data[:-30])
        assert store_oids(receiver) == before_oids
        assert receiver.refs.branches == before_branches

    def test_missing_prerequisite_rejected_before_any_write(self):
        origin = make_repo(history=3)
        base = origin.head_oid()
        origin.write_file("new.txt", "n")
        tip = origin.commit("tip")
        thin = create_bundle(origin.store, [tip], haves=[base])
        receiver = Repository.init("empty", "bob")
        before = store_oids(receiver)
        with pytest.raises(BundleError, match="prerequisite"):
            apply_bundle(receiver.store, thin)
        assert store_oids(receiver) == before

    def test_connectivity_check_catches_gaps(self):
        # Hand-build a bundle whose commit references a tree that is neither
        # in the bundle nor on the receiver.
        origin = make_repo()
        tip = origin.head_oid()
        data = write_bundle(origin.store, [tip])  # commit only, no trees/blobs
        receiver = Repository.init("empty", "bob")
        with pytest.raises(BundleError, match="neither in the bundle nor stored"):
            apply_bundle(receiver.store, data)
        assert len(receiver.store) == 0

    def test_verify_bundle_standalone_checks_hashes_only(self):
        origin = make_repo()
        data = write_bundle(origin.store, [origin.head_oid()])
        # Without a store, structural + hash verification passes even though
        # the bundle is not connected.
        assert verify_bundle(None, data)

    def test_update_refs_fast_forward_policy(self):
        origin = make_repo()
        local = clone_repository(origin)
        origin.write_file("ahead.txt", "a")
        new_tip = origin.commit("ahead")
        data = create_bundle(
            origin.store, [new_tip], haves=common_tips(origin.store, local),
            refs=advertise_refs(origin),
        )
        result = apply_bundle(local.store, data)
        updated = update_refs_from_bundle(local, result.bundle)
        assert updated == {"main": new_tip}
        assert local.head_oid() == new_tip  # current branch refreshed

    def test_update_refs_is_all_or_nothing(self):
        # A bundle carrying one perfectly applicable new branch AND one
        # non-fast-forward branch must change *no* refs when rejected.
        origin = make_repo()
        origin.create_branch("aa-extra")  # sorts before "main"
        local = clone_repository(origin)
        local.write_file("l.txt", "l")
        local.commit("diverge local")
        origin.checkout("aa-extra")
        origin.write_file("extra.txt", "e")
        origin.commit("extra work")
        origin.checkout("main")
        origin.write_file("r.txt", "r")
        origin.commit("diverge remote")
        wants = [origin.refs.branch_target("aa-extra"), origin.refs.branch_target("main")]
        data = create_bundle(
            origin.store, wants, haves=common_tips(origin.store, local),
            refs=advertise_refs(origin),
        )
        result = apply_bundle(local.store, data)
        branches_before = local.refs.branches
        with pytest.raises(RemoteError, match="non-fast-forward"):
            update_refs_from_bundle(local, result.bundle)
        # The applicable 'aa-extra' move was validated but not applied.
        assert local.refs.branches == branches_before

    def test_illegal_ref_name_in_bundle_rejected_before_any_move(self):
        # Ref names in a bundle are untrusted: an illegal one must fail the
        # validation phase as a BundleError with zero refs moved — never a
        # RefError escaping mid-apply with 'main' already updated.
        origin = make_repo()
        local = clone_repository(origin)
        origin.write_file("ahead.txt", "a")
        tip = origin.commit("ahead")
        data = write_bundle(
            origin.store,
            reachable_objects(origin.store, tip),
            branches={"main": tip, "zz~evil": tip},
        )
        result = apply_bundle(local.store, data)
        branches_before = local.refs.branches
        with pytest.raises(BundleError, match="illegal ref name"):
            update_refs_from_bundle(local, result.bundle)
        assert local.refs.branches == branches_before

    def test_tag_named_like_current_branch_does_not_checkout(self):
        # A *tag* called "main" arriving while branch main is unmoved must
        # not trigger a checkout — that would silently revert uncommitted
        # working-tree edits.
        origin = make_repo()
        local = clone_repository(origin)
        origin.tag("main")  # tag namespace, same name as the branch
        local.write_file("/dirty.txt", b"uncommitted edit")
        data = create_bundle(
            origin.store, [origin.head_oid()],
            haves=common_tips(origin.store, local), refs=advertise_refs(origin),
        )
        result = apply_bundle(local.store, data)
        updated = update_refs_from_bundle(local, result.bundle)
        assert updated == {"main": origin.head_oid()}  # the tag, reported once
        assert local.refs.tags == {"main": origin.head_oid()}
        assert local.read_file("/dirty.txt") == b"uncommitted edit"  # preserved

    def test_long_ref_names_round_trip(self):
        origin = make_repo()
        long_name = "release/" + "x" * 600  # legal: no length cap on ref names
        origin.create_branch(long_name)
        data = create_bundle(
            origin.store, [origin.head_oid()], refs=advertise_refs(origin)
        )
        bundle = read_bundle(data)
        assert long_name in bundle.branches

    def test_update_refs_rejects_non_fast_forward_without_force(self):
        origin = make_repo()
        local = clone_repository(origin)
        local.write_file("l.txt", "l")
        local.commit("diverge local")
        origin.write_file("r.txt", "r")
        diverged_tip = origin.commit("diverge remote")
        data = create_bundle(
            origin.store, [diverged_tip], haves=common_tips(origin.store, local),
            refs=advertise_refs(origin),
        )
        result = apply_bundle(local.store, data)
        local_tip = local.head_oid()
        with pytest.raises(RemoteError, match="non-fast-forward"):
            update_refs_from_bundle(local, result.bundle)
        assert local.head_oid() == local_tip
        updated = update_refs_from_bundle(local, result.bundle, force=True)
        assert updated["main"] == diverged_tip


# ---------------------------------------------------------------------------
# Satellites: gc-clean clone, unborn-HEAD pull, annotated tags
# ---------------------------------------------------------------------------


class TestCloneIsGcClean:
    """Clone contract in process; ``TestCloneIsGcCleanOverRest`` reruns it over REST."""

    def test_clone_leaves_dangling_objects_behind(self, remote_for):
        origin = make_repo()
        # Pre-gc garbage: a blob no commit references.
        dangling = origin.store.put(Blob(b"orphaned bytes the gc would drop\n"))
        clone = remote_for(origin).clone()
        assert dangling in origin.store
        assert dangling not in clone.store
        assert store_oids(clone) >= reachable_objects(origin.store, origin.head_oid())
        assert clone.snapshot() == origin.snapshot()

    def test_clone_carries_annotated_tags(self, remote_for):
        origin = make_repo()
        origin.tag("v1.0", message="first release")
        tag_objects = [
            oid for oid in origin.store.iter_oids()
            if origin.store.get_type(oid) == "tag"
        ]
        assert tag_objects
        clone = remote_for(origin).clone()
        for oid in tag_objects:
            assert oid in clone.store
        assert clone.refs.tags == origin.refs.tags

    def test_clone_of_empty_repository(self, remote_for):
        origin = Repository.init("empty", "alice")
        clone = remote_for(origin).clone()
        assert clone.head_oid() is None
        assert len(clone.store) == 0


class TestCloneIsGcCleanOverRest(TestCloneIsGcClean):
    @pytest.fixture
    def remote_for(self, rest_remote_for):
        return rest_remote_for


class TestPullUnbornHead:
    """Pull contract in process; ``TestPullUnbornHeadOverRest`` reruns it over REST."""

    def test_pull_into_unborn_head_on_other_branch_keeps_head(self, remote_for):
        origin = make_repo()
        local = Repository.init("local", "bob", default_branch="scratch")
        assert local.current_branch == "scratch" and local.head_oid() is None
        tip = remote_for(origin).pull(local, branch="main")
        # The branch arrives, but HEAD must stay on the user's unborn branch.
        assert local.refs.branch_target("main") == tip
        assert local.current_branch == "scratch"
        assert local.head_oid() is None

    def test_pull_into_unborn_head_on_same_branch_attaches(self, remote_for):
        origin = make_repo()
        local = Repository.init("local", "bob")  # unborn HEAD on main
        tip = remote_for(origin).pull(local, branch="main")
        assert local.current_branch == "main"
        assert local.head_oid() == tip
        assert local.snapshot() == origin.snapshot()


class TestPullUnbornHeadOverRest(TestPullUnbornHead):
    @pytest.fixture
    def remote_for(self, rest_remote_for):
        return rest_remote_for


# ---------------------------------------------------------------------------
# Satellite: the gc pin/lease registry
# ---------------------------------------------------------------------------


class TestGcLeases:
    def test_adopted_lazy_worktree_pins_donor_store(self):
        origin = make_repo()
        donor = clone_repository(origin)  # fresh checkout => fully lazy worktree
        assert donor.worktree.lazy_count() > 0
        borrower = Repository.init("borrower", "bob")
        borrower.worktree = donor.worktree  # adoption: detached lazy copy
        pinned = donor.store.pinned_oids()
        assert pinned  # the borrowed blob oids are pinned
        # A hostile gc (keep nothing) must refuse to drop the borrowed blobs.
        donor.store.gc(set())
        for path in list(borrower.worktree):
            assert borrower.worktree[path]  # faults still succeed

    def test_lease_released_after_full_materialisation(self):
        origin = make_repo()
        donor = clone_repository(origin)
        borrower = Repository.init("borrower", "bob")
        borrower.worktree = donor.worktree
        borrower.worktree.materialize_all()
        donor.worktree.materialize_all()
        assert donor.store.pinned_oids() == set()
        removed = donor.store.gc(set())
        assert removed == len(reachable_objects(origin.store, origin.head_oid()))

    def test_replaced_worktree_releases_its_lease(self):
        origin = make_repo()
        clone = clone_repository(origin)
        first_lease = clone.worktree.lease
        assert first_lease is not None and not first_lease.released
        clone.checkout("main")  # replaces the worktree wholesale
        assert first_lease.released

    def test_mutation_and_deletion_shrink_to_release(self):
        origin = make_repo(history=1, files_per_commit=2)
        clone = clone_repository(origin)
        assert clone.worktree.lease is not None
        paths = list(clone.worktree)
        clone.worktree[paths[0]] = b"severed"
        del clone.worktree[paths[1]]
        assert clone.worktree.lazy_count() == 0
        assert clone.worktree.lease is None

    def test_moving_every_lazy_entry_keeps_the_pin(self):
        # move_entries deletes every source before re-installing the lazy
        # destinations; the transiently empty lazy set must not strand the
        # surviving entries without a lease.
        origin = make_repo(history=1, files_per_commit=2)
        donor = clone_repository(origin)
        borrower = Repository.init("borrower", "bob")
        borrower.worktree = donor.worktree
        moves = {path: path + ".moved" for path in list(borrower.worktree)}
        borrower.worktree.move_entries(moves)
        assert borrower.worktree.lazy_count() == len(moves)
        assert borrower.worktree.lease is not None
        assert donor.store.pinned_oids()
        donor.store.gc(set())  # hostile gc: must keep the borrowed blobs
        for path in moves.values():
            assert borrower.worktree[path]

    def test_pin_api_direct(self):
        origin = make_repo()
        oid = origin.store.put(Blob(b"pinned garbage\n"))
        lease = origin.store.pin([oid])
        assert origin.store.gc(reachable_objects(origin.store, origin.head_oid())) == 0
        assert oid in origin.store
        lease.release()
        assert origin.store.gc(reachable_objects(origin.store, origin.head_oid())) == 1
        assert oid not in origin.store


# ---------------------------------------------------------------------------
# Exact-transfer property across backends and divergent rounds
# ---------------------------------------------------------------------------

_BACKEND_PAIRS = [("memory", "memory"), ("memory", "pack"), ("pack", "memory"), ("pack", "pack")]


def _make_backend_repo(kind, root, name, owner, default_branch="main"):
    storage = None if kind == "memory" else make_backend(kind, Path(root) / name)
    return Repository.init(name, owner, storage=storage, default_branch=default_branch)


def _assert_exact_sync(source, destination, wants):
    """Sync and assert the transfer is exactly the receiver's missing set."""
    expected_missing = set()
    for want in wants:
        expected_missing |= reachable_objects(source.store, want)
    expected_missing -= store_oids(destination)
    result = LocalRemote(source).fetch(destination, wants)
    assert result.added_oids == frozenset(expected_missing)
    assert result.objects_added == len(expected_missing)
    for want in wants:
        # Byte-identical tips: same oid, same raw record on both sides.
        assert source.store.get_raw(want) == destination.store.get_raw(want)
    return result


class TestExactTransferProperty:
    @pytest.mark.parametrize("source_kind,dest_kind", _BACKEND_PAIRS)
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_divergent_rounds_transfer_exactly_missing(self, source_kind, dest_kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            upstream = _make_backend_repo(source_kind, tmp, "up", "alice")
            upstream.write_file("seed.txt", "seed\n")
            upstream.commit("seed")
            downstream = _make_backend_repo(dest_kind, tmp, "down", "bob")
            pull(downstream, upstream, branch="main")
            downstream.checkout("feature", create_branch=True)

            paths = [f"dir{i % 3}/file{i}.txt" for i in range(6)]
            rounds = data.draw(st.integers(min_value=1, max_value=4))
            for round_number in range(rounds):
                # Both sides advance on their own branches (divergent repo
                # state, fast-forwardable branches).
                for repo, branch in ((upstream, "main"), (downstream, "feature")):
                    for path in data.draw(
                        st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)
                    ):
                        repo.write_file(path, f"{branch} r{round_number} {path}\n")
                    repo.commit(f"{branch} round {round_number}")

                # downstream pulls main; upstream fetches feature.
                _assert_exact_sync(upstream, downstream, [upstream.refs.branch_target("main")])
                downstream.refs.set_branch("main", upstream.refs.branch_target("main"))
                _assert_exact_sync(
                    downstream, upstream, [downstream.refs.branch_target("feature")]
                )
                # Repeating either sync immediately transfers nothing.
                repeat = LocalRemote(upstream).fetch(
                    downstream, [upstream.refs.branch_target("main")]
                )
                assert repeat.objects_added == 0

    @pytest.mark.parametrize("source_kind,dest_kind", _BACKEND_PAIRS)
    def test_push_pull_round_trip_across_backends(self, source_kind, dest_kind, tmp_path):
        origin = _make_backend_repo(source_kind, tmp_path, "origin", "alice")
        origin.write_file("a.txt", "a\n")
        origin.commit("initial")
        local = _make_backend_repo(dest_kind, tmp_path, "local", "bob")
        pull(local, origin, branch="main")
        assert local.snapshot() == origin.snapshot()
        local.write_file("b.txt", "b\n")
        tip = local.commit("feature")
        assert push(local, origin) == tip
        assert origin.head_oid() == tip
        assert origin.snapshot() == local.snapshot()


# ---------------------------------------------------------------------------
# fetch_branch still behaves (wire discipline preserved)
# ---------------------------------------------------------------------------


class TestFetchBranch:
    def test_incremental_fetch_offers_only_new_objects(self):
        origin = make_repo(history=5, files_per_commit=6)
        local = clone_repository(origin)
        origin.write_file("src/pkg0/mod_0.py", "# new revision\n")
        origin.commit("one more")
        before = store_oids(local)
        tip = fetch_branch(origin, local, "main")
        transferred = store_oids(local) - before
        # One commit + changed tree chain + one blob: a handful, not history.
        assert tip in transferred
        assert len(transferred) <= 5


# ---------------------------------------------------------------------------
# Generation-bounded walks against full-walk references
# ---------------------------------------------------------------------------


def _reference_ancestry(store, tips):
    """Every commit reachable from ``tips``: the walk to the root."""
    seen: set[str] = set()
    frontier = list(tips)
    while frontier:
        oid = frontier.pop()
        if oid not in seen:
            seen.add(oid)
            frontier.extend(store.get_commit(oid).parent_oids)
    return seen


def _reference_plan(store, wants, haves):
    """``(new_commits, boundary, objects)`` excluding the haves' whole history."""
    wants = list(dict.fromkeys(wants))
    common = _reference_ancestry(store, [oid for oid in dict.fromkeys(haves) if oid in store])
    new_commits: list[str] = []
    state: dict[str, int] = {}
    stack = list(wants)
    while stack:
        oid = stack[-1]
        if oid in common or state.get(oid) == 1:
            stack.pop()
        elif state.get(oid) == 0:
            state[oid] = 1
            new_commits.append(oid)
            stack.pop()
        else:
            state[oid] = 0
            for parent in store.get_commit(oid).parent_oids:
                if parent not in common and state.get(parent) != 1:
                    stack.append(parent)
    boundary: list[str] = []
    for oid in new_commits:
        for parent in store.get_commit(oid).parent_oids:
            if parent in common and parent not in boundary:
                boundary.append(parent)
    known: set[str] = set()
    for oid in boundary:
        known |= tree_closure(store, store.get_commit(oid).tree_oid, {})
    objects: list[str] = []
    for oid in new_commits:
        fresh = tree_closure(store, store.get_commit(oid).tree_oid, {}) - known
        objects.append(oid)
        objects.extend(sorted(fresh))
        known |= fresh
    return tuple(new_commits), tuple(boundary), tuple(objects)


@st.composite
def _commit_dags(draw):
    """Parent index lists of a random DAG: merges, octopus merges, several roots."""
    size = draw(st.integers(min_value=1, max_value=28))
    parents: list[tuple[int, ...]] = [()]
    for number in range(1, size):
        count = min(number, draw(st.sampled_from([0, 1, 1, 1, 1, 2, 2, 3])))
        parents.append(tuple(draw(st.lists(
            st.integers(min_value=0, max_value=number - 1),
            min_size=count, max_size=count, unique=True,
        ))))
    return parents


_DAG_STAMP = datetime(2020, 1, 1, tzinfo=timezone.utc)


def _store_dag(parents) -> tuple[ObjectStore, list[str]]:
    """Store one commit per index; files are shared, changed and added across commits."""
    signature = Signature(name="alice", email="alice@example.org", timestamp=_DAG_STAMP)
    store = ObjectStore()
    oids: list[str] = []
    for number, parent_indexes in enumerate(parents):
        blobs = [Blob(f"shared {number // 4}\n".encode()), Blob(f"own {number}\n".encode())]
        tree = Tree(entries=(
            TreeEntry(name="shared.txt", mode=MODE_FILE, oid=blobs[0].oid),
            TreeEntry(name=f"own{number % 3}.txt", mode=MODE_FILE, oid=blobs[1].oid),
        ))
        commit = Commit(
            tree_oid=tree.oid,
            parent_oids=tuple(oids[index] for index in parent_indexes),
            author=signature,
            committer=signature,
            message=f"commit {number}",
        )
        store.put_many([*blobs, tree, commit])
        oids.append(commit.oid)
    return store, oids


class TestGenerationBoundedWalks:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_negotiation_matches_the_full_walk(self, data):
        parents = data.draw(_commit_dags())
        store, oids = _store_dag(parents)
        indexes = st.integers(min_value=0, max_value=len(oids) - 1)
        wants = [oids[i] for i in data.draw(st.lists(indexes, min_size=1, max_size=4))]
        haves = [oids[i] for i in data.draw(st.lists(indexes, max_size=4))]
        haves += data.draw(st.lists(st.sampled_from(["0" * 40, "f" * 40]), max_size=2))
        descendants = [oid for oid in oids if wants[0] in _reference_ancestry(store, [oid])]
        haves += data.draw(st.lists(st.sampled_from(descendants), max_size=2))
        haves = data.draw(st.permutations(haves))

        plan = negotiate(store, wants, haves)
        new_commits, boundary, objects = _reference_plan(store, wants, haves)
        assert (plan.new_commits, plan.boundary, plan.objects) == (new_commits, boundary, objects)
        assert create_bundle(store, wants, haves) == write_bundle(
            store, objects, prerequisites=boundary
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ancestry_and_generations_match_the_definitions(self, data):
        parents = data.draw(_commit_dags())
        store, oids = _store_dag(parents)
        indexes = st.integers(min_value=0, max_value=len(oids) - 1)
        for a, b in data.draw(st.lists(st.tuples(indexes, indexes), min_size=1, max_size=12)):
            expected = oids[a] in _reference_ancestry(store, [oids[b]])
            assert is_ancestor_commit(store, oids[a], oids[b]) == expected
            assert is_ancestor_commit(store, oids[b], oids[a]) == (
                oids[b] in _reference_ancestry(store, [oids[a]])
            )
        for oid, parent_indexes in zip(oids, parents):
            assert store.commit_generation(oid) == 1 + max(
                (store.commit_generation(oids[index]) for index in parent_indexes), default=0
            )

    def test_gc_drops_generations_and_a_repush_negotiates_exactly(self):
        origin = make_repo(history=4)
        origin.checkout("side", create_branch=True)
        for number in range(3):
            origin.write_file("side.txt", f"side {number}\n")
            origin.commit(f"side {number}")
        side_tip = origin.head_oid()
        local = clone_repository(origin)
        origin.checkout("main")
        main_tip = origin.head_oid()
        # Warm the generation memo over both branches, then collect ``side``.
        assert is_ancestor_commit(origin.store, main_tip, side_tip)
        origin.delete_branch("side")
        assert origin.store.gc(reachable_objects(origin.store, main_tip)) > 0
        assert side_tip not in origin.store
        assert side_tip not in origin.store._generations

        missing = reachable_objects(local.store, side_tip) - store_oids(origin)
        plan = negotiate(local.store, [side_tip], haves=[main_tip])
        assert set(plan.objects) == missing
        result = LocalRemote(origin).receive_pack(
            create_bundle(local.store, [side_tip], haves=[main_tip],
                          refs=advertise_refs(local)),
            force=False,
        )
        assert result["objects_added"] == len(missing)
        assert origin.refs.branch_target("side") == side_tip
        replanned = negotiate(origin.store, [side_tip], haves=[main_tip])
        assert replanned.new_commits == plan.new_commits
        assert replanned.boundary == (main_tip,)
        assert set(replanned.objects) == missing
        assert origin.store.commit_generation(side_tip) == local.store.commit_generation(side_tip)
