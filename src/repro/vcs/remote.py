"""Repository-to-repository transfer: clone, fork, fetch, pull and push.

Objects are content-addressed, so moving history between repositories means
moving the objects the receiver lacks and then updating a reference.
:class:`Remote` writes each operation once over three transport primitives,
the hub's ``git/*`` endpoints: :meth:`~Remote.refs` (the ref advertisement),
:meth:`~Remote.upload_pack` (a bundle of the wanted history, thin against
the haves) and :meth:`~Remote.receive_pack` (verify and apply a pushed
bundle, then move the branch it names by compare-and-swap).
:class:`LocalRemote` implements them in process over a
:class:`~repro.vcs.repository.Repository`; :class:`repro.hub.sync.HubRemote`
implements them over REST.

``push`` enforces fast-forward updates unless forced, mirroring how the
GitCite local tool publishes the updated ``citation.cite`` back to the
hosting platform (Section 3: "the Git command is used to push the local copy
... to the remote repository").  ``fork`` copies a repository's history into
a *new* repository owned by another user — the substrate operation underlying
ForkCite.  Clones carry graph-reachable objects plus the annotated tag
objects of the tags they copy, so pre-gc garbage stays behind.
"""

from __future__ import annotations

from repro.errors import RemoteError
from repro.vcs.merge import commit_ancestors, is_ancestor_commit
from repro.vcs.object_store import ObjectStore
from repro.vcs.repository import Repository
from repro.vcs.transfer import (
    ApplyResult,
    RefAdvertisement,
    advertise_refs,
    apply_bundle,
    common_tips,
    create_bundle,
    update_refs_from_bundle,
)
from repro.vcs.treeops import tree_closure

__all__ = [
    "Remote",
    "LocalRemote",
    "clone_repository",
    "fork_repository",
    "push",
    "pull",
    "fetch_branch",
    "reachable_objects",
]


def reachable_objects(store: ObjectStore, commit_oid: str) -> set[str]:
    """Return every object id reachable from ``commit_oid`` (commits, trees, blobs).

    Tree closures are memoised per tree oid, so a deep history whose commits
    share most subtrees is walked in O(distinct trees), not O(commits × tree).
    """
    cache: dict = {}
    reachable: set[str] = set()
    for ancestor in commit_ancestors(store, commit_oid):
        reachable.add(ancestor)
        reachable |= tree_closure(store, store.commit_tree(ancestor), cache)
    return reachable


def _held_tips(store: ObjectStore, advert: RefAdvertisement) -> list[str]:
    """The advertised commits ``store`` holds: the remote has their whole history."""
    return [tip for tip in sorted(advert.tips())
            if tip in store and store.get_type(tip) == "commit"]


class Remote:
    """Clone, fetch, pull and push against one remote repository.

    Subclasses supply the transport: :meth:`refs`, :meth:`upload_pack`,
    :meth:`receive_pack` and :meth:`_identity`.
    """

    def refs(self) -> RefAdvertisement:
        """The remote's current ref advertisement."""
        raise NotImplementedError

    def upload_pack(self, wants, haves) -> bytes:
        """A bundle of the history behind ``wants``, thin against ``haves``."""
        raise NotImplementedError

    def receive_pack(self, bundle_data: bytes, force: bool) -> dict:
        """Apply a pushed bundle and move the refs it names; return the report."""
        raise NotImplementedError

    def _identity(self) -> tuple[str, str, str]:
        """``(name, owner, description)`` of the remote repository."""
        raise NotImplementedError

    def _haves(self, local: Repository, advert: RefAdvertisement) -> list[str]:
        """The commits ``local`` offers as a fetch's haves."""
        return _held_tips(local.store, advert)

    def fetch(self, local: Repository, wants=None,
              advert: RefAdvertisement | None = None) -> ApplyResult | None:
        """Transfer the remote history for ``wants`` into ``local``'s store.

        ``wants`` defaults to everything the remote advertises; ``advert`` is
        an advertisement the caller already holds (one is read otherwise).
        No local ref moves.  The haves are the advertised tips ``local``
        already holds: the remote provably has their whole history, and its
        generation-bounded negotiation only walks the part of it near the
        wants.  Returns the apply result, or ``None`` when there was nothing
        to want.
        """
        if advert is None:
            advert = self.refs()
        wanted = sorted(set(advert.tips() if wants is None else wants))
        if not wanted:
            return None
        return apply_bundle(local.store, self.upload_pack(wanted, self._haves(local, advert)))

    def fetch_branch(self, local: Repository, branch: str) -> str:
        """Fetch one remote branch's objects; return its tip without moving refs."""
        advert = self.refs()
        tip = advert.branches.get(branch)
        if tip is None:
            raise RemoteError(f"remote repository has no branch {branch!r}")
        self.fetch(local, [tip], advert)
        return tip

    def pull(self, local: Repository, branch: str | None = None) -> str:
        """Fetch ``branch`` and fast-forward the local branch onto it.

        Diverged histories are not merged automatically (the citation-aware
        MergeCite should decide how to merge); a :class:`RemoteError` is
        raised instead.
        """
        branch = branch or local.current_branch or local.refs.default_branch
        tip = self.fetch_branch(local, branch)
        if local.refs.has_branch(branch):
            local_tip = local.refs.branch_target(branch)
            if local_tip == tip:
                return tip
            if not is_ancestor_commit(local.store, local_tip, tip):
                raise RemoteError(
                    f"pull cannot fast-forward branch {branch!r}: local and remote histories "
                    "diverged; use MergeCite to merge them"
                )
        local.refs.set_branch(branch, tip)
        # Only move HEAD when it already points at this branch.  Pulling
        # branch X into a repository whose unborn HEAD sits on a *different*
        # branch must not silently re-attach HEAD to X — that would discard
        # the user's chosen starting branch.
        if local.current_branch == branch:
            local.checkout(branch)
        return tip

    def push(self, local: Repository, branch: str | None = None, force: bool = False) -> dict:
        """Push one local branch; return the receiver's report.

        The bundle is thin against the remote's advertised tips that the
        local store holds and carries *only* the pushed branch as a ref
        record, so the receiver moves exactly one ref — fast-forward only
        unless ``force``.  Safe to retry: if an identical attempt landed but
        its response was lost, the receiver's idempotent apply adds zero
        objects and the report shows ``objects_added: 0``.
        """
        branch = branch or local.current_branch or local.refs.default_branch
        if not local.refs.has_branch(branch):
            raise RemoteError(f"local repository has no branch {branch!r}")
        tip = local.refs.branch_target(branch)
        haves = _held_tips(local.store, self.refs())
        data = create_bundle(local.store, [tip], haves=haves, refs=RefAdvertisement.of_branch(branch, tip))
        return self.receive_pack(data, force)

    def clone(self, name: str | None = None, owner: str | None = None) -> Repository:
        """Materialise a full local copy of the remote repository.

        Every advertised branch and tag is fetched and recreated; HEAD is
        attached to the remote's HEAD branch (or left detached at its oid).
        """
        remote_name, remote_owner, description = self._identity()
        advert = self.refs()
        clone = Repository(
            name=name or remote_name,
            owner=owner or remote_owner,
            default_branch=advert.default_branch,
            description=description,
        )
        self.fetch(clone, advert=advert)
        for ref_name, oid in sorted(advert.branches.items()):
            clone.refs.set_branch(ref_name, oid)
        for ref_name, oid in sorted(advert.tags.items()):
            clone.refs.set_tag(ref_name, oid)
        if advert.head_branch and clone.refs.has_branch(advert.head_branch):
            clone.checkout(advert.head_branch)
        elif advert.head_oid:
            clone.checkout(advert.head_oid)
        return clone


class LocalRemote(Remote):
    """A remote that is an in-process :class:`Repository`.

    The primitives make the calls the hub's ``git/*`` endpoints make, so an
    in-process push lands through the same verified apply and ref
    compare-and-swap transaction as a served one.
    """

    def __init__(self, repo: Repository) -> None:
        self.repo = repo

    def refs(self) -> RefAdvertisement:
        # Under the ref lock: one consistent snapshot, even mid-push.
        with self.repo.refs.lock:
            return advertise_refs(self.repo)

    def upload_pack(self, wants, haves) -> bytes:
        return create_bundle(self.repo.store, wants, haves=haves, refs=advertise_refs(self.repo))

    def receive_pack(self, bundle_data: bytes, force: bool) -> dict:
        result = apply_bundle(self.repo.store, bundle_data)
        return result.report(update_refs_from_bundle(self.repo, result.bundle, force=force))

    def _identity(self) -> tuple[str, str, str]:
        return self.repo.name, self.repo.owner, self.repo.description

    def _haves(self, local: Repository, advert: RefAdvertisement) -> list[str]:
        # In process the remote's store can be probed directly, so a local
        # clone that is *ahead* still offers its closest shared commits.
        return common_tips(self.repo.store, local)


def clone_repository(
    source: Repository,
    name: str | None = None,
    owner: str | None = None,
) -> Repository:
    """Create a copy of ``source`` (all branches, tags and *reachable* objects).

    The clone keeps the source's owner by default — this is "downloading a
    copy of the project repository with Git" from Section 3, the state in
    which the local executable tool operates.
    """
    return LocalRemote(source).clone(name=name, owner=owner)


def fork_repository(source: Repository, new_owner: str, new_name: str | None = None) -> Repository:
    """Fork ``source`` into a new repository owned by ``new_owner``.

    The full reachable history is preserved; only the ownership (and
    optionally the name) changes.  The citation layer's ForkCite wraps this
    and records fork provenance in the new root citation.
    """
    if not new_owner:
        raise RemoteError("a fork must have an owner")
    return LocalRemote(source).clone(name=new_name, owner=new_owner)


def fetch_branch(source: Repository, destination: Repository, branch: str) -> str:
    """Transfer the objects of ``branch`` from ``source`` into ``destination``.

    The branch reference itself is *not* moved in the destination; the commit
    id is returned so the caller can merge or fast-forward explicitly.
    """
    return LocalRemote(source).fetch_branch(destination, branch)


def push(
    local: Repository,
    remote: Repository,
    branch: str | None = None,
    force: bool = False,
) -> str:
    """Push a branch from ``local`` to ``remote`` and return the new tip.

    Non-fast-forward updates are rejected with :class:`RemoteError` unless
    ``force`` is given, exactly like ``git push``.
    """
    branch = branch or local.current_branch or local.refs.default_branch
    LocalRemote(remote).push(local, branch, force=force)
    return local.refs.branch_target(branch)


def pull(local: Repository, remote: Repository, branch: str | None = None) -> str:
    """Fetch ``branch`` from ``remote`` and fast-forward the local branch."""
    return LocalRemote(remote).pull(local, branch)
