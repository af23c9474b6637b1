"""Sync sessions: negotiate → bundle → verified apply, plus ref updates.

This is the orchestration layer the repo-to-repo operations (push, pull,
fetch, clone), the hub's wire endpoints and the ``gitcite bundle`` commands
all share.  The contract that matters is *atomicity at the receiver*: a
bundle is checksum-verified, every object re-hashed and the whole incoming
graph connectivity-checked **before** a single byte lands in the receiving
store — a corrupt, truncated or inapplicable bundle raises
:class:`~repro.errors.BundleError` and leaves both the store and the refs
exactly as they were.

Ref movement is deliberately separate from object transfer
(:func:`update_refs_from_bundle`): receivers decide their own fast-forward
policy after the objects are safely in place, which is also why a rejected
non-fast-forward push can never leave dangling half-updated branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults
from repro.errors import BundleError, RefError, RemoteError
from repro.vcs.object_store import ObjectStore
from repro.vcs.objects import deserialize_object
from repro.vcs.transfer.bundle import Bundle, BundleWriter, read_bundle
from repro.vcs.transfer.frontier import RefAdvertisement, negotiate

__all__ = [
    "ApplyResult",
    "plan_bundle",
    "create_bundle",
    "apply_bundle",
    "verify_bundle",
    "update_refs_from_bundle",
]


@dataclass(frozen=True)
class ApplyResult:
    """What applying a bundle did to the receiving store."""

    bundle: Bundle
    #: How many objects the bundle carried (the wire transfer size).
    objects_total: int
    #: How many of them were actually missing and got written.
    objects_added: int
    #: Exactly the ids that were written (the exact-transfer property tests
    #: assert this equals the receiver's missing set).
    added_oids: frozenset

    def report(self, updated: dict[str, str]) -> dict:
        """The receive-pack reply: the refs moved plus this apply's object counts."""
        return {"updated": updated, "objects_in_bundle": self.objects_total,
                "objects_added": self.objects_added}


def plan_bundle(
    store: ObjectStore,
    wants,
    haves=(),
    refs: RefAdvertisement | None = None,
    closure_cache: dict | None = None,
):
    """Negotiate a transfer and prepare its writer without serialising yet.

    Returns ``(plan, writer)`` so callers that want to report the plan's
    statistics (the CLI, benchmarks) need not re-parse the stream they just
    wrote.  With empty ``haves`` the bundle is self-contained (a clone);
    otherwise it is thin — its prerequisites record the boundary commits the
    receiver must already have.  ``refs`` (usually the sender's
    advertisement) records the branch/tag tips whose history the bundle
    carries, restricted to tips that are actually among the wanted commits.
    Annotated tag objects hang off no commit-graph edge, so the negotiation
    cannot reach them; they ride along with the tag records naming them.
    """
    plan = negotiate(store, wants, haves, closure_cache=closure_cache)
    branches: dict = {}
    tags: dict = {}
    head_branch = None
    if refs is not None:
        wanted = set(plan.wants)
        branches = {name: oid for name, oid in refs.branches.items() if oid in wanted}
        tags = {name: oid for name, oid in refs.tags.items() if oid in wanted}
        if refs.head_branch in branches:
            head_branch = refs.head_branch
    writer = BundleWriter(
        store,
        prerequisites=plan.boundary,
        branches=branches,
        tags=tags,
        head_branch=head_branch,
    )
    writer.add(plan.objects)
    if tags:
        writer.add(_annotated_tags(store, tags, set(plan.objects)))
    return plan, writer


def _annotated_tags(store: ObjectStore, tags: dict, planned: set) -> list[str]:
    """The stored tag objects naming one of ``tags`` at its target (a store scan)."""
    named = set(tags.items())
    found = []
    for oid in store.iter_oids():
        # Planned objects are commits, trees and blobs: skip them by
        # membership before paying a type probe.
        if oid in planned or store.get_type(oid) != "tag":
            continue
        tag = store.get_tag(oid)
        if (tag.name, tag.object_oid) in named:
            found.append(oid)
    return sorted(found)


def create_bundle(
    store: ObjectStore,
    wants,
    haves=(),
    refs: RefAdvertisement | None = None,
    closure_cache: dict | None = None,
) -> bytes:
    """Negotiate and serialise a bundle for ``wants`` thin against ``haves``."""
    _, writer = plan_bundle(store, wants, haves=haves, refs=refs, closure_cache=closure_cache)
    return writer.getvalue()


def _check_connectivity(
    store: ObjectStore, objects: dict[str, tuple[str, bytes]], bundle: Bundle
) -> None:
    """Every reference an incoming object makes must resolve.

    A referenced id must be in the incoming set or already in the receiving
    store — otherwise applying the bundle would create commits whose trees
    (or trees whose entries) dangle, which is exactly the partially-updated
    state the verify-then-write discipline exists to prevent.
    """

    def present(oid: str) -> bool:
        return oid in objects or oid in store

    for oid, (type_name, payload) in objects.items():
        if type_name == "blob":
            continue
        obj = deserialize_object(type_name, payload)
        if type_name == "commit":
            if not present(obj.tree_oid):
                raise BundleError(f"commit {oid}: tree {obj.tree_oid} is neither in the bundle nor stored")
            for parent in obj.parent_oids:
                if not present(parent):
                    raise BundleError(f"commit {oid}: parent {parent} is neither in the bundle nor stored")
        elif type_name == "tree":
            for entry in obj.entries:
                if not present(entry.oid):
                    raise BundleError(f"tree {oid}: entry {entry.name!r} points at missing {entry.oid}")
        elif type_name == "tag":
            if not present(obj.object_oid):
                raise BundleError(f"tag {oid}: target {obj.object_oid} is neither in the bundle nor stored")


def verify_bundle(store: ObjectStore | None, data) -> dict[str, tuple[str, bytes]]:
    """Fully verify a bundle without writing anything; returns its objects.

    Checks, in order: stream checksum (via :func:`read_bundle` when ``data``
    is raw bytes), per-object hash integrity, and — when a receiving store
    is given — prerequisite presence plus graph connectivity.  Raises
    :class:`BundleError` on the first violation.
    """
    bundle = data if isinstance(data, Bundle) else read_bundle(data)
    objects = bundle.materialize()
    if store is not None:
        for prerequisite in bundle.prerequisites:
            if prerequisite not in store:
                raise BundleError(
                    f"bundle requires prerequisite commit {prerequisite} "
                    "which this repository does not have"
                )
        _check_connectivity(store, objects, bundle)
    return objects


def apply_bundle(store: ObjectStore, data) -> ApplyResult:
    """Verify a bundle end to end, then install its missing objects.

    Verification (checksum, object hashes, prerequisites, connectivity)
    completes before the first write, so failure leaves the store untouched.
    Objects the store already has are skipped — the written set is exactly
    the receiver's missing objects — and the write goes through the
    backend's batched raw path.
    """
    bundle = data if isinstance(data, Bundle) else read_bundle(data)
    # Idempotency fast path: a re-sent bundle whose every object the store
    # already holds (the retry of a push whose first attempt landed but
    # whose response was lost) is a no-op success — no re-materialisation,
    # no writes, nothing to double-apply.  Record identity is enough: each
    # record names its oid, and an oid already present was verified when it
    # first landed.
    if all(record.oid in store for record in bundle.records):
        return ApplyResult(
            bundle=bundle,
            objects_total=bundle.object_count,
            objects_added=0,
            added_oids=frozenset(),
        )
    objects = verify_bundle(store, bundle)
    missing = [oid for oid in objects if oid not in store]
    # The window between full verification and the first write — a crash
    # armed here models dying with the bundle accepted but not yet applied.
    faults.fire("bundle.apply")
    added = store.put_raw_many(
        (oid, objects[oid][0], objects[oid][1]) for oid in missing
    )
    return ApplyResult(
        bundle=bundle,
        objects_total=len(objects),
        objects_added=added,
        added_oids=frozenset(missing),
    )


#: How often a ref-update transaction re-validates before giving up.  Each
#: retry means another writer committed between our validation and our lock
#: acquisition; the bound only exists to turn a livelock bug into an error.
_REF_CAS_MAX_ATTEMPTS = 64


def update_refs_from_bundle(repo, bundle: Bundle, force: bool = False) -> dict[str, str]:
    """Move the receiver's refs to the tips a (already applied) bundle carries.

    Branch updates are fast-forward-only unless ``force``.  Tags are only
    created, never moved (a conflicting tag raises unless ``force``).  The
    update is all-or-nothing: every move is validated *before* the first ref
    changes, so one rejected branch cannot leave the others half-applied.
    Only refs move, as in a bare repository: nothing is checked out.
    Returns ``{ref name: new oid}`` for everything that changed.

    Concurrency: the update is an optimistic compare-and-swap transaction
    against :attr:`~repro.vcs.refs.RefStore.version`.  Validation (ancestry
    walks, object presence — the expensive part) runs without any lock
    against a version snapshot; the moves are committed under the ref
    store's lock only if no other writer committed in between, otherwise
    validation restarts against the new tips.  Two pushes racing the same
    branch therefore resolve exactly like sequential pushes: one wins, the
    other re-validates and is accepted (still fast-forward) or rejected
    (diverged) — an *acknowledged* update can never be silently overwritten.
    """
    from repro.vcs.merge import is_ancestor_commit
    from repro.vcs.refs import validate_ref_name

    def checked_name(name: str) -> str:
        # Bundle headers are untrusted input: an illegal name must fail the
        # validation phase as a BundleError, never blow up mid-apply.
        try:
            return validate_ref_name(name)
        except RefError as exc:
            raise BundleError(f"bundle carries an illegal ref name: {name!r}") from exc

    for _attempt in range(_REF_CAS_MAX_ATTEMPTS):
        snapshot = repo.refs.version
        branch_moves: dict[str, str] = {}
        for name, oid in sorted(bundle.branches.items()):
            checked_name(name)
            if oid not in repo.store:
                raise BundleError(f"bundle names branch {name!r} at {oid}, which was not transferred")
            if repo.refs.has_branch(name):
                current = repo.refs.branch_target(name)
                if current == oid:
                    continue
                if not force and not is_ancestor_commit(repo.store, current, oid):
                    raise RemoteError(
                        f"refusing non-fast-forward update of branch {name!r} "
                        "(fetch and merge first, or force)"
                    )
            branch_moves[name] = oid
        tag_deletes: list[str] = []
        tag_moves: dict[str, str] = {}
        for name, oid in sorted(bundle.tags.items()):
            checked_name(name)
            existing = repo.refs.tags.get(name)
            if existing == oid:
                continue
            if existing is not None:
                if not force:
                    raise RemoteError(f"refusing to move existing tag {name!r}")
                tag_deletes.append(name)
            if oid not in repo.store:
                raise BundleError(f"bundle names tag {name!r} at {oid}, which was not transferred")
            tag_moves[name] = oid

        with repo.refs.lock:
            if repo.refs.version != snapshot:
                continue  # another writer committed; re-validate against the new tips
            updated: dict[str, str] = {}
            for name, oid in branch_moves.items():
                repo.refs.set_branch(name, oid)
                updated[name] = oid
            for name in tag_deletes:
                repo.refs.delete_tag(name)
            for name, oid in tag_moves.items():
                repo.refs.set_tag(name, oid)
                # A tag sharing a moved branch's name must not clobber the
                # branch entry in the report (namespaces are separate).
                updated.setdefault(name, oid)
        return updated
    raise RemoteError(
        "ref update starved: the ref store kept changing during "
        f"{_REF_CAS_MAX_ATTEMPTS} validation attempts"
    )
