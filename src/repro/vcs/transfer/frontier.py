"""Have/want negotiation: ref advertisement and the reachability frontier walk.

The seed transferred history by flattening *every* tree of *every* ancestor
commit and offering the full object set on each push/pull/fetch — O(history)
wire planning no matter how little changed.  This module is the O(new) half
of the sync subsystem:

* :func:`advertise_refs` — the ref advertisement a repository publishes
  (branches, tags, HEAD), the "haves" a receiver offers and the "wants" a
  sender resolves against;
* :func:`common_tips` — the multi-round negotiation an in-process fetch
  uses: walk back from the receiver's tips until commits the source holds
  are found, so a receiver that is *ahead* of the source still produces
  useful haves instead of an empty set;
* :func:`negotiate` — the frontier walk itself: one two-colour walk from the
  wants and the haves, in decreasing generation order, finds the new
  commits and the common commits adjacent to them, and stops as soon as no
  queued commit can still turn out new.  The objects of each new commit are
  collected through :func:`~repro.vcs.treeops.tree_closure` with one shared
  memo cache keyed by tree oid, so an unchanged subtree is never
  re-flattened — planning a push of one commit on a deep history touches a
  handful of commits, the changed subtrees and one closure of the boundary
  tree, not every ancestor.

Every commit-graph walk here reads commits through
:meth:`~repro.vcs.object_store.ObjectStore.commit_parents`,
:meth:`~repro.vcs.object_store.ObjectStore.commit_tree` and
:meth:`~repro.vcs.object_store.ObjectStore.commit_generation`, the store's
never-evicted commit-parent index and generation memo.  The first walk on a
store computes the generations of the histories it touches once; after that
a walk costs the commits between the wants and the haves, not the history
below them.

The resulting :class:`SyncPlan` is what the bundle writer serialises and what
the benchmarks count: ``plan.objects`` is exactly the transfer offer.
"""

from __future__ import annotations

import heapq
from collections.abc import Container
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

    @classmethod
    def of_branch(cls, name: str, oid: str) -> "RefAdvertisement":
        """Name only branch ``name`` at ``oid``: the ref record of a push."""
        return cls(branches={name: oid}, tags={}, default_branch=name, head_branch=None, head_oid=None)

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


def common_tips(known: Container[str], receiver) -> list[str]:
    """The closest receiver commits the sender holds (multi-round haves).

    ``known`` is any container of commits the sender holds — in process,
    the sender's object store.  Walks the receiver's commit graph backwards
    from its advertised tips and stops each line of descent at the first
    commit in ``known``.  A receiver that is ahead of the sender (local
    commits the sender never saw) therefore still offers the shared base
    instead of tips the sender would have to discard — the cost is bounded
    by the receiver-only commits plus one membership probe per boundary
    commit.
    """
    haves: list[str] = []
    seen: set[str] = set()
    frontier = sorted(advertise_refs(receiver).tips())
    store = receiver.store
    while frontier:
        oid = frontier.pop()
        if oid in seen:
            continue
        seen.add(oid)
        if oid in known:
            haves.append(oid)
            continue
        if oid in store and store.get_type(oid) == "commit":
            frontier.extend(store.commit_parents(oid))
    return sorted(haves)


_OURS = 1  # reachable from a want
_THEIRS = 2  # reachable from a have


def _common_frontier(store: ObjectStore, wants: list[str], haves: list[str]) -> set[str]:
    """The haves' ancestors that the walk from ``wants`` can meet.

    A two-colour walk in decreasing generation order: wants are flagged
    OURS, haves THEIRS, and each popped commit passes its flags to its
    parents.  Every child of a commit has a larger generation, so when a
    commit is popped every walked path from a have has already reached it
    and its THEIRS flag is final.  The walk stops once no queued commit is
    OURS-only — every new commit has then been popped, and each of their
    parents is either popped or queued with its final flags.  The returned
    set (everything flagged THEIRS) is a subset of the haves' history that
    holds every common commit a walk from the wants can step onto, so
    excluding it yields the same new commits and boundary as excluding the
    haves' whole history.
    """
    flags: dict[str, int] = {}
    heap: list[tuple[int, str]] = []
    ours_only = 0

    def mark(oid: str, flag: int) -> None:
        nonlocal ours_only
        old = flags.get(oid)
        if old is None:
            flags[oid] = flag
            heapq.heappush(heap, (-store.commit_generation(oid), oid))
            ours_only += flag == _OURS
        elif old | flag != old:
            # Only queued commits gain flags: a popped commit's children,
            # the only commits that mark it, were all popped before it.
            flags[oid] = old | flag
            ours_only -= old == _OURS

    for oid in wants:
        mark(oid, _OURS)
    for oid in haves:
        mark(oid, _THEIRS)
    while ours_only:
        _, oid = heapq.heappop(heap)
        flag = flags[oid]
        ours_only -= flag == _OURS
        for parent in store.commit_parents(oid):
            mark(parent, flag)
    return {oid for oid, flag in flags.items() if flag & _THEIRS}


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
    a real ``git fetch`` negotiation does.  The commit walk is bounded by
    generation numbers: it visits the new commits and the haves' commits
    down to the generation of the new commits' parents, never the history
    below, and yields the same plan as excluding the haves' whole history
    would.
    Each new commit contributes its memoised tree closure minus everything
    the boundary trees (and earlier new commits) already cover, so the
    offer is O(changed) objects.
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

    common = _common_frontier(store, want_list, have_list)
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
