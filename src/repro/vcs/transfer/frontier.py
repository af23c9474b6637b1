"""Have/want negotiation: ref advertisement and the reachability frontier walk.

The seed transferred history by flattening *every* tree of *every* ancestor
commit and offering the full object set on each push/pull/fetch — O(history)
wire planning no matter how little changed.  This module is the O(new) half
of the sync subsystem:

* :func:`advertise_refs` — the ref advertisement a repository publishes
  (branches, tags, HEAD), the "haves" a receiver offers and the "wants" a
  sender resolves against;
* :func:`common_tips` — the multi-round negotiation used between in-process
  repositories: walk back from the receiver's tips until commits the source
  also knows are found, so a receiver that is *ahead* of the source still
  produces useful haves instead of an empty set;
* :func:`negotiate` — the frontier walk itself: starting from the wanted
  commits, descend the commit graph and stop at the common ancestors implied
  by the haves.  The objects of each new commit are collected through
  :func:`~repro.vcs.treeops.tree_closure` with one shared memo cache keyed by
  tree oid, so an unchanged subtree is never re-flattened — planning a push
  of one commit on a deep history touches the changed subtrees plus one
  closure of the boundary tree, not every tree of every ancestor.

Every commit-graph walk here reads commits through
:meth:`~repro.vcs.object_store.ObjectStore.commit_parents` and
:meth:`~repro.vcs.object_store.ObjectStore.commit_tree`, the store's
never-evicted commit-parent index, so walking a history longer than the
parsed-object cache costs dict lookups, not a re-parse of every commit on
every walk.

The resulting :class:`SyncPlan` is what the bundle writer serialises and what
the benchmarks count: ``plan.objects`` is exactly the transfer offer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RemoteError
from repro.vcs.object_store import ObjectStore
from repro.vcs.treeops import tree_closure

__all__ = ["RefAdvertisement", "SyncPlan", "advertise_refs", "common_tips", "negotiate"]


@dataclass(frozen=True)
class RefAdvertisement:
    """What a repository tells the world about its refs (the wire `git/refs`)."""

    branches: dict
    tags: dict
    default_branch: str
    head_branch: str | None
    head_oid: str | None

    def tips(self) -> set[str]:
        """Every advertised commit id (branch tips, tag targets, detached HEAD)."""
        tips = set(self.branches.values()) | set(self.tags.values())
        if self.head_oid:
            tips.add(self.head_oid)
        return tips

    def to_dict(self) -> dict:
        return {
            "default_branch": self.default_branch,
            "head": {"branch": self.head_branch, "sha": self.head_oid},
            "branches": [
                {"name": name, "sha": oid} for name, oid in sorted(self.branches.items())
            ],
            "tags": [{"name": name, "sha": oid} for name, oid in sorted(self.tags.items())],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RefAdvertisement":
        head = payload.get("head") or {}
        return cls(
            branches={entry["name"]: entry["sha"] for entry in payload.get("branches", [])},
            tags={entry["name"]: entry["sha"] for entry in payload.get("tags", [])},
            default_branch=payload.get("default_branch", "main"),
            head_branch=head.get("branch"),
            head_oid=head.get("sha"),
        )


@dataclass(frozen=True)
class SyncPlan:
    """The outcome of a negotiation: what moves and what both sides share."""

    #: The commit ids the receiver asked for.
    wants: tuple[str, ...]
    #: The advertised haves the source actually knows (unknown ones dropped).
    haves: tuple[str, ...]
    #: Commits to transfer, oldest first (parents before children).
    new_commits: tuple[str, ...]
    #: Common commits adjacent to the new range (the thin-bundle prerequisites).
    boundary: tuple[str, ...]
    #: Every object id to transfer: commits, trees and blobs, in send order.
    objects: tuple[str, ...]

    @property
    def objects_offered(self) -> int:
        """How many objects this plan puts on the wire (the benchmark metric)."""
        return len(self.objects)


def advertise_refs(repo) -> RefAdvertisement:
    """Build the ref advertisement of a repository (its ``refs`` snapshot)."""
    refs = repo.refs
    return RefAdvertisement(
        branches=dict(refs.branches),
        tags=dict(refs.tags),
        default_branch=refs.default_branch,
        head_branch=refs.head_branch,
        head_oid=refs.head_commit(),
    )


def common_tips(source_store: ObjectStore, receiver) -> list[str]:
    """The closest receiver commits the source also has (multi-round haves).

    Walks the receiver's commit graph backwards from its advertised tips and
    stops each line of descent at the first commit present in
    ``source_store``.  A receiver that is ahead of the source (local commits
    the source never saw) therefore still advertises the shared base instead
    of tips the source would have to discard — the cost is bounded by the
    receiver-only commits plus one membership probe per boundary commit.
    """
    known: list[str] = []
    seen: set[str] = set()
    frontier = sorted(advertise_refs(receiver).tips())
    store = receiver.store
    while frontier:
        oid = frontier.pop()
        if oid in seen:
            continue
        seen.add(oid)
        if oid in source_store:
            known.append(oid)
            continue
        if oid in store and store.get_type(oid) == "commit":
            frontier.extend(store.commit_parents(oid))
    return sorted(known)


def _shared_ancestors(store: ObjectStore, tips: list[str]) -> set[str]:
    """All commit ids reachable from ``tips``, one shared walk (no tree reads)."""
    seen: set[str] = set()
    frontier = list(tips)
    while frontier:
        oid = frontier.pop()
        if oid in seen:
            continue
        seen.add(oid)
        frontier.extend(
            parent for parent in store.commit_parents(oid) if parent not in seen
        )
    return seen


def _new_commits_topological(
    store: ObjectStore, wants: list[str], common: set[str]
) -> list[str]:
    """Commits reachable from ``wants`` but not common, parents before children."""
    ordered: list[str] = []
    state: dict[str, int] = {}  # 0 = entered, 1 = emitted
    stack = list(wants)
    while stack:
        oid = stack[-1]
        if oid in common or state.get(oid) == 1:
            stack.pop()
            continue
        if state.get(oid) == 0:
            state[oid] = 1
            ordered.append(oid)
            stack.pop()
            continue
        state[oid] = 0
        for parent in store.commit_parents(oid):
            if parent not in common and state.get(parent) != 1:
                stack.append(parent)
    return ordered


def negotiate(
    store: ObjectStore,
    wants,
    haves=(),
    closure_cache: dict[str, frozenset[str]] | None = None,
) -> SyncPlan:
    """Plan a transfer: which objects must move for the receiver to own ``wants``.

    ``wants`` must name commits present in ``store`` (a missing want raises
    :class:`RemoteError`); ``haves`` are the receiver's advertised commits and
    may freely include ids the source has never seen — they are dropped, like
    a real ``git fetch`` negotiation does.  The commit walk stops at the
    common ancestors, and each new commit contributes its memoised tree
    closure minus everything the boundary trees (and earlier new commits)
    already cover, so the offer is O(changed) objects.
    """
    cache = {} if closure_cache is None else closure_cache
    want_list: list[str] = []
    for want in wants:
        if want in want_list:
            continue
        if want not in store or store.get_type(want) != "commit":
            raise RemoteError(f"cannot negotiate: unknown want {want!r}")
        want_list.append(want)

    have_list: list[str] = []
    for have in haves:
        if have in have_list:
            continue
        if have in store and store.get_type(have) == "commit":
            have_list.append(have)

    common = _shared_ancestors(store, have_list)
    new_commits = _new_commits_topological(store, want_list, common)

    boundary: list[str] = []
    for oid in new_commits:
        for parent in store.commit_parents(oid):
            if parent in common and parent not in boundary:
                boundary.append(parent)

    known: set[str] = set()
    for oid in boundary:
        known |= tree_closure(store, store.commit_tree(oid), cache)

    objects: list[str] = []
    sent: set[str] = set()
    for oid in new_commits:
        objects.append(oid)
        closure = tree_closure(store, store.commit_tree(oid), cache)
        fresh = closure - known - sent
        objects.extend(sorted(fresh))
        sent |= fresh

    return SyncPlan(
        wants=tuple(want_list),
        haves=tuple(have_list),
        new_commits=tuple(new_commits),
        boundary=tuple(boundary),
        objects=tuple(objects),
    )
