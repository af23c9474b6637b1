"""The :class:`Repository` facade.

A repository bundles the object store, the reference store, a staging index
and an in-memory working tree, and exposes the day-to-day operations the
citation layer and the CLI are built on: write/move/remove files, stage,
commit, branch, checkout, log, diff, and merge.

The working tree is an in-memory mapping from canonical repository path to
file bytes — since PR 3 a :class:`~repro.vcs.worktree_state.WorktreeState`,
which keeps a sorted path index (single-file writes, directory queries and
moves are bisect probes, not scans) and a per-path blob-fingerprint cache
(``add``/``status`` hash only the files that actually changed, so a commit
that touched one file is O(changed), not O(worktree)).
:mod:`repro.vcs.worktree` can materialise it on disk (and read a disk
directory back in) for the command-line tool; everything else — tests,
benchmarks, the hosting-platform simulator — stays in memory, which keeps the
reproduction fast and hermetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Mapping, Optional

from repro.errors import CheckoutError, MergeConflictError, MergeError, RefError, VCSError
from repro.utils.paths import ROOT, ancestors, is_ancestor, join_path, normalize_path, relative_to
from repro.utils.sortedkeys import descendant_slice
from repro.utils.timeutil import now_utc
from repro.vcs.diff import TreeDiff, diff_trees
from repro.vcs.index import StagingIndex
from repro.vcs.merge import MergeResult, find_merge_base, merge_trees
from repro.vcs.object_store import ObjectStore
from repro.vcs.storage import BackendSpec
from repro.vcs.objects import MODE_DIRECTORY, MODE_FILE, Blob, Commit, Signature, Tag
from repro.vcs.refs import DEFAULT_BRANCH, RefStore
from repro.vcs.treeops import flatten_files, flatten_tree, lookup_path
from repro.vcs.worktree_state import WorktreeState

__all__ = ["Repository", "CommitInfo", "PreparedMerge", "MergeOutcome", "WorktreeStatus"]


@dataclass(frozen=True)
class CommitInfo:
    """A commit together with its id (what ``log`` returns)."""

    oid: str
    commit: Commit

    @property
    def summary(self) -> str:
        return self.commit.summary

    @property
    def timestamp(self) -> datetime:
        return self.commit.committer.timestamp


@dataclass(frozen=True)
class PreparedMerge:
    """The inputs and raw result of a three-way merge, before committing.

    The citation layer uses this to run Git's rules on ordinary files while
    handling ``citation.cite`` itself (Section 3 of the paper).
    """

    base_oid: Optional[str]
    ours_oid: str
    theirs_oid: str
    base_tree_oid: Optional[str]
    ours_tree_oid: str
    theirs_tree_oid: str
    result: MergeResult
    fast_forward: bool


@dataclass(frozen=True)
class MergeOutcome:
    """What a completed merge produced."""

    commit_oid: str
    fast_forward: bool
    conflicts_resolved: tuple[str, ...] = ()


@dataclass(frozen=True)
class WorktreeStatus:
    """Differences between HEAD, the index and the working tree."""

    staged: tuple[str, ...]
    modified: tuple[str, ...]
    deleted: tuple[str, ...]
    untracked: tuple[str, ...]

    @property
    def is_clean(self) -> bool:
        return not (self.staged or self.modified or self.deleted or self.untracked)


class Repository:
    """An in-memory version-controlled project repository."""

    def __init__(
        self,
        name: str,
        owner: str,
        default_branch: str = DEFAULT_BRANCH,
        description: str = "",
        storage: BackendSpec = None,
    ) -> None:
        if not name:
            raise VCSError("repository name must not be empty")
        if not owner:
            raise VCSError("repository owner must not be empty")
        self.name = name
        self.owner = owner
        self.description = description
        self.store = ObjectStore(backend=storage)
        self.refs = RefStore(default_branch=default_branch)
        self.index = StagingIndex()
        self._worktree = WorktreeState()
        # Callables invoked at the start of commit(), before staging.  The
        # citation layer registers its flush here so deferred (batched)
        # citation.cite writes can never be missed by a snapshot, even when
        # callers commit through the repository directly.
        self._pre_commit_hooks: list = []
        # Callables invoked after the working tree is replaced wholesale
        # (checkout / fast-forward merge), so holders of deferred
        # worktree-derived state can discard it instead of flushing it over
        # a different version.  The generation counter lets holders of
        # *clean* caches detect replacement lazily without registering
        # anything (no reference pinning).
        self._worktree_reload_hooks: list = []
        self._worktree_generation = 0
        self.default_author = Signature(
            name=owner, email=f"{owner.lower().replace(' ', '.')}@example.org", timestamp=now_utc()
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def init(
        cls,
        name: str,
        owner: str,
        default_branch: str = DEFAULT_BRANCH,
        description: str = "",
        storage: BackendSpec = None,
    ) -> "Repository":
        """Create an empty repository (no commits yet).

        ``storage`` selects the object-store layout: ``None``/``"memory"``
        (default), ``"pack:<dir>"``, or a constructed
        :class:`~repro.vcs.storage.ObjectBackend` instance.
        """
        return cls(
            name=name,
            owner=owner,
            default_branch=default_branch,
            description=description,
            storage=storage,
        )

    @classmethod
    def open(cls, directory) -> "Repository":
        """Open a gitcite working copy saved on disk.

        Delegates to :func:`repro.vcs.workingcopy.load_repository`: a pack
        copy opens its pack store, and a legacy ``memory`` or ``loose`` copy
        loads into memory until its next save converts it to packs.
        """
        from repro.vcs.workingcopy import load_repository

        return load_repository(directory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Repository({self.owner}/{self.name}, head={self.head_oid()!r})"

    @property
    def full_name(self) -> str:
        """The ``owner/name`` slug used by the hosting platform."""
        return f"{self.owner}/{self.name}"

    def register_pre_commit_hook(self, hook) -> None:
        """Run ``hook()`` at the start of every :meth:`commit` (idempotent)."""
        if hook not in self._pre_commit_hooks:
            self._pre_commit_hooks.append(hook)

    def unregister_pre_commit_hook(self, hook) -> None:
        """Remove a previously registered pre-commit hook (missing is fine)."""
        try:
            self._pre_commit_hooks.remove(hook)
        except ValueError:
            pass

    def register_worktree_reload_hook(self, hook) -> None:
        """Run ``hook()`` whenever the working tree is replaced (idempotent)."""
        if hook not in self._worktree_reload_hooks:
            self._worktree_reload_hooks.append(hook)

    def unregister_worktree_reload_hook(self, hook) -> None:
        """Remove a previously registered reload hook (missing is fine)."""
        try:
            self._worktree_reload_hooks.remove(hook)
        except ValueError:
            pass

    def make_signature(self, name: str | None = None, email: str | None = None,
                       timestamp: datetime | None = None) -> Signature:
        """Build a signature, falling back to the repository's default author."""
        base = self.default_author
        resolved_name = name if name is not None else base.name
        resolved_email = email if email is not None else (
            base.email if name is None else f"{resolved_name.lower().replace(' ', '.')}@example.org"
        )
        return Signature(
            name=resolved_name,
            email=resolved_email,
            timestamp=timestamp if timestamp is not None else now_utc(),
        )

    # ------------------------------------------------------------------
    # Working-tree operations
    # ------------------------------------------------------------------

    @property
    def worktree(self) -> WorktreeState:
        """The working tree: a mapping from canonical path to file bytes."""
        return self._worktree

    @worktree.setter
    def worktree(self, mapping) -> None:
        # Wholesale replacement (merge, tests): any plain mapping is adopted
        # by rebuilding the indexes in one pass.  An adopted WorktreeState is
        # *detached* (bytes shared, bookkeeping copied) and must drop its
        # known-stored flags — they assert blob membership in *some* store,
        # not necessarily this repository's — or add() would skip puts and
        # commit a tree referencing missing blobs.  Detaching keeps this
        # repository's staging from re-marking flags on state the donor
        # repository still uses; content fingerprints are store-independent
        # and stay valid, and unmaterialised entries keep faulting from the
        # donor's store (the content-addressed bytes are identical).
        previous = self._worktree
        if isinstance(mapping, WorktreeState):
            self._worktree = mapping.detached_copy()
            self._worktree.forget_stored()
        else:
            self._worktree = WorktreeState(mapping)
        if isinstance(previous, WorktreeState) and previous is not mapping:
            previous.release_lease()

    def write_file(self, path: str, data: bytes | str) -> str:
        """Create or overwrite a file in the working tree; returns its canonical path.

        The file/directory invariant check is O(depth + log n) against the
        worktree's sorted path index — never a scan over every file.
        """
        canonical = normalize_path(path)
        if canonical == ROOT:
            raise VCSError("cannot write a file at the repository root path '/'")
        self._worktree.check_can_create(canonical, error=VCSError)
        payload = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        self._worktree[canonical] = payload
        return canonical

    def write_files(self, files: Mapping[str, bytes | str]) -> list[str]:
        """Create or overwrite many working-tree files in one batch.

        Equivalent to :meth:`write_file` per entry but validated in one pass:
        ancestor conflicts are O(depth) set probes, descendant conflicts one
        bisect range probe per new path against the worktree's index and the
        incoming set — O(m (d + log n + log m)) for the batch.  Nothing is
        written unless the entire batch is conflict-free.  Returns the
        canonical paths written, sorted.
        """
        incoming: dict[str, bytes] = {}
        for path, data in files.items():
            canonical = normalize_path(path)
            if canonical == ROOT:
                raise VCSError("cannot write a file at the repository root path '/'")
            incoming[canonical] = (
                data.encode("utf-8") if isinstance(data, str) else bytes(data)
            )
        # The worktree invariant: no path may be an ancestor of another.
        incoming_sorted = sorted(incoming)
        worktree = self._worktree
        for canonical in incoming_sorted:
            for ancestor in ancestors(canonical):
                if ancestor != ROOT and (ancestor in worktree or ancestor in incoming):
                    raise VCSError(
                        f"{ancestor!r} is a file; cannot create {canonical!r} beneath it"
                    )
            contained = worktree.first_descendant(canonical)
            lower, upper = descendant_slice(incoming_sorted, canonical)
            if lower < upper and (contained is None or incoming_sorted[lower] < contained):
                contained = incoming_sorted[lower]
            if contained is not None:
                raise VCSError(f"{canonical!r} is a directory (contains {contained!r})")
        worktree.bulk_update(incoming)
        return incoming_sorted

    def read_file(self, path: str) -> bytes:
        """Return the working-tree content of ``path``."""
        canonical = normalize_path(path)
        try:
            return self.worktree[canonical]
        except KeyError:
            raise VCSError(f"no such file in the working tree: {canonical!r}") from None

    def file_text(self, path: str, encoding: str = "utf-8") -> str:
        return self.read_file(path).decode(encoding)

    def file_exists(self, path: str) -> bool:
        return normalize_path(path) in self.worktree

    def file_size(self, path: str) -> int:
        """Byte length of a working-tree file without materialising it.

        A lazily checked-out entry answers through the object store's size
        probe (header-only on disk layouts); its bytes stay unread.
        """
        canonical = normalize_path(path)
        if canonical not in self._worktree:
            raise VCSError(f"no such file in the working tree: {canonical!r}")
        return self._worktree.size_of(canonical)

    def directory_exists(self, path: str) -> bool:
        canonical = normalize_path(path)
        if canonical == ROOT:
            return True
        return self._worktree.has_directory(canonical)

    def remove_file(self, path: str) -> None:
        canonical = normalize_path(path)
        if canonical not in self.worktree:
            raise VCSError(f"no such file in the working tree: {canonical!r}")
        del self._worktree[canonical]
        self.index.discard(canonical)

    def remove_directory(self, path: str) -> list[str]:
        """Remove every file under ``path``; returns the removed paths."""
        canonical = normalize_path(path)
        victims = self._worktree.files_under(canonical)
        if not victims:
            raise VCSError(f"no such directory in the working tree: {canonical!r}")
        for victim in victims:
            del self._worktree[victim]
            self.index.discard(victim)
        return victims

    def move_file(self, source: str, destination: str) -> None:
        """Move/rename a single file in the working tree.

        The destination is validated against the worktree *minus the source*
        (the move vacates it) before anything mutates, so a conflicting move
        leaves the tree unchanged.
        """
        src = normalize_path(source)
        if src not in self.worktree:
            raise VCSError(f"no such file in the working tree: {src!r}")
        dst = normalize_path(destination)
        if dst == ROOT:
            raise VCSError("cannot write a file at the repository root path '/'")
        if dst != src:
            for ancestor in ancestors(dst):
                if ancestor != ROOT and ancestor != src and ancestor in self._worktree:
                    raise VCSError(
                        f"{ancestor!r} is a file; cannot create {dst!r} beneath it"
                    )
            contained = self._first_surviving_descendant(dst, src)
            if contained is not None:
                raise VCSError(f"{dst!r} is a directory (contains {contained!r})")
            self._worktree.move_entry(src, dst)
        self.index.discard(src)

    def move_directory(self, source: str, destination: str) -> dict[str, str]:
        """Move/rename a directory; returns ``{old path: new path}`` for its files.

        The move is atomic: the *entire* destination set is validated against
        the surviving worktree before any path is touched, so a conflicting
        move raises without leaving the tree half-moved.
        """
        src = normalize_path(source)
        dst = normalize_path(destination)
        victims = self._worktree.files_under(src, include_base=False)
        if not victims:
            raise VCSError(f"no such directory in the working tree: {src!r}")
        moves = {old: join_path(dst, relative_to(old, src)) for old in victims}
        if dst == src:
            for old_path in victims:
                self.index.discard(old_path)
            return moves
        # The destinations preserve the victims' relative structure, so they
        # cannot conflict among themselves; validate each against the paths
        # that survive the move (everything outside the source subtree).
        destination_set = set(moves.values())
        for new_path in moves.values():
            for ancestor in ancestors(new_path):
                if ancestor == ROOT or ancestor in destination_set:
                    continue
                if ancestor in self._worktree and not is_ancestor(src, ancestor):
                    raise VCSError(
                        f"{ancestor!r} is a file; cannot create {new_path!r} beneath it"
                    )
            contained = self._first_surviving_descendant(new_path, src)
            if contained is not None and contained not in destination_set:
                raise VCSError(f"{new_path!r} is a directory (contains {contained!r})")
        self._worktree.move_entries(moves)
        for old_path in moves:
            self.index.discard(old_path)
        return moves

    def _first_surviving_descendant(self, path: str, vacated: str) -> str | None:
        """A worktree file strictly beneath ``path`` that is *not* at or
        beneath ``vacated`` (paths being moved away do not count as
        conflicts)."""
        for candidate in self._worktree.files_under(path, include_base=False):
            if not is_ancestor(vacated, candidate, strict=False):
                return candidate
        return None

    def list_files(self, under: str = ROOT) -> list[str]:
        """Return the working-tree file paths under ``under`` (sorted)."""
        return self._worktree.files_under(normalize_path(under))

    def list_directories(self, under: str = ROOT) -> list[str]:
        """Return every (implicit) directory path in the working tree."""
        return self._worktree.directories(normalize_path(under))

    # ------------------------------------------------------------------
    # Staging and committing
    # ------------------------------------------------------------------

    def _run_pre_commit_hooks(self) -> None:
        for hook in tuple(self._pre_commit_hooks):
            hook()

    def _stage_oid(self, path: str) -> str:
        """The blob oid of a worktree file, stored if not already.

        Clean paths (fingerprint cached and known stored) cost two dict
        probes; only dirty paths construct, hash and :meth:`ObjectStore.put`
        a blob — which is what makes ``add``/``commit`` O(changed).
        """
        worktree = self._worktree
        if worktree.is_stored(path):
            return worktree.fingerprint(path)
        oid = self.store.put(Blob(worktree[path]))
        worktree.mark_stored(path, oid)
        return oid

    def add(self, paths: Iterable[str] | None = None) -> list[str]:
        """Stage working-tree files (all of them when ``paths`` is ``None``)."""
        # Staging expresses intent to snapshot: deferred-state holders flush
        # first so the index never captures stale bytes (this also covers
        # commit(auto_add=False) after a manual add).
        self._run_pre_commit_hooks()
        if paths is None:
            # Entries that are lazy but not known stored (an adopted
            # worktree after forget_stored) all need their bytes to
            # re-store below; fault them through one batched read instead
            # of per-path get_blob calls.  A no-op for ordinary lazy
            # checkouts (everything stored).
            self._worktree.materialize_unstored()
            # Mirror the worktree wholesale (recording deletions too).  The
            # worktree already enforces the file/directory invariants, so the
            # per-path conflict checks of stage() are unnecessary here, and
            # its fingerprint cache means only dirty blobs are hashed.
            targets = self._worktree.sorted_paths()
            self.index.replace(
                {path: (self._stage_oid(path), MODE_FILE) for path in targets},
                assume_canonical=True,
            )
            return targets
        else:
            targets = []
            seen: set[str] = set()
            for path in paths:
                canonical = normalize_path(path)
                if canonical in self.worktree:
                    if canonical not in seen:
                        seen.add(canonical)
                        targets.append(canonical)
                elif self.directory_exists(canonical):
                    for member in self._worktree.files_under(canonical, include_base=False):
                        # Overlapping arguments (add(["a", "a/b"])) must not
                        # stage the shared files twice.
                        if member not in seen:
                            seen.add(member)
                            targets.append(member)
                    # Staging a directory records its deletions too, like
                    # add(None) and like git: tracked files that vanished
                    # from the working tree beneath it are unstaged, not
                    # silently carried into the next commit.
                    for staged_path in self.index.paths_under(canonical):
                        if staged_path not in self.worktree:
                            self.index.discard(staged_path)
                else:
                    # Path was deleted from the working tree: unstage it —
                    # including staged entries beneath it, for a directory
                    # whose files *all* vanished (no worktree file survives
                    # under it, so every staged descendant is stale).
                    self.index.discard(canonical)
                    for staged_path in self.index.paths_under(canonical):
                        self.index.discard(staged_path)
        staged: list[str] = []
        for path in targets:
            oid = self._stage_oid(path)
            self.index.discard(path)
            self.index.stage(path, oid)
            staged.append(path)
        return staged

    def commit(
        self,
        message: str,
        author: Signature | None = None,
        author_name: str | None = None,
        author_email: str | None = None,
        timestamp: datetime | None = None,
        allow_empty: bool = False,
        auto_add: bool = True,
    ) -> str:
        """Create a commit from the current working tree and return its id.

        By default (``auto_add=True``) the whole working tree is staged first,
        which matches how the GitCite tools operate: every citation operation
        rewrites ``citation.cite`` and the next commit snapshots it.
        """
        self._run_pre_commit_hooks()
        if auto_add:
            self.add()
        if author is None:
            author = self.make_signature(author_name, author_email, timestamp)
        elif timestamp is not None and author.timestamp != timestamp:
            author = Signature(name=author.name, email=author.email, timestamp=timestamp)
        tree_oid = self.index.write_tree(self.store)
        parent = self.head_oid()
        parents: tuple[str, ...] = (parent,) if parent else ()
        if parent and not allow_empty:
            parent_tree = self.store.get_commit(parent).tree_oid
            if parent_tree == tree_oid:
                raise VCSError("nothing to commit (working tree matches HEAD); use allow_empty=True")
        oid = self._write_commit(message, tree_oid, parents, author)
        if not self.refs.branches and not self.refs.is_detached:
            # First commit: create the default branch at this commit.
            self.refs.set_branch(self.refs.head_branch or self.refs.default_branch, oid)
        else:
            self.refs.advance_head(oid)
        return oid

    def commit_edit(self, branch: str, path: str, data: bytes | str | None, message: str,
                    author_name: str | None = None, timestamp: datetime | None = None) -> str:
        """Commit one file edit (``data=None`` deletes) onto ``branch``; returns its id.

        The tip's tree is edited in a scratch :class:`StagingIndex` (only the
        edited path's ancestors re-hash) and the branch moves by compare-and-swap
        against that tip.  The worktree and the index are left alone, as in a
        bare repository, and no pre-commit hooks run.  An unchanged tree raises
        :class:`VCSError`, as in :meth:`commit`.
        """
        canonical = normalize_path(path)
        parent = self.refs.branch_target(branch)
        parent_tree = self.store.commit_tree(parent)
        index = StagingIndex()
        index.read_tree(self.store, parent_tree)
        if data is None:
            index.unstage(canonical)
        else:
            payload = data.encode("utf-8") if isinstance(data, str) else bytes(data)
            index.stage(canonical, self.store.put(Blob(payload)))
        tree_oid = index.write_tree(self.store)
        if tree_oid == parent_tree:
            raise VCSError(f"nothing to commit ({canonical!r} is unchanged on {branch!r})")
        author = self.make_signature(author_name, timestamp=timestamp)
        oid = self._write_commit(message, tree_oid, (parent,), author)
        if not self.refs.compare_and_swap_branch(branch, parent, oid):
            raise RefError(f"branch {branch!r} moved while the edit was being committed")
        return oid

    def _write_commit(self, message: str, tree_oid: str, parents: tuple[str, ...], author: Signature) -> str:
        """Store a commit object (moving no ref) and return its id."""
        commit = Commit(
            tree_oid=tree_oid,
            parent_oids=parents,
            author=author,
            committer=author,
            message=message,
        )
        return self.store.put(commit)

    # ------------------------------------------------------------------
    # References and history
    # ------------------------------------------------------------------

    def head_oid(self) -> Optional[str]:
        return self.refs.head_commit()

    def head_commit(self) -> Optional[Commit]:
        oid = self.head_oid()
        return self.store.get_commit(oid) if oid else None

    @property
    def current_branch(self) -> Optional[str]:
        return self.refs.head_branch

    def branches(self) -> dict[str, str]:
        return self.refs.branches

    def create_branch(self, name: str, at: str | None = None) -> str:
        """Create a branch at ``at`` (default: HEAD) and return its commit id."""
        target = self.resolve(at) if at else self.head_oid()
        if target is None:
            raise RefError("cannot create a branch in a repository with no commits")
        if self.refs.has_branch(name):
            raise RefError(f"branch already exists: {name!r}")
        self.refs.set_branch(name, target)
        return target

    def delete_branch(self, name: str) -> None:
        self.refs.delete_branch(name)

    def tag(self, name: str, at: str | None = None, message: str = "",
            tagger: Signature | None = None) -> str:
        """Create a tag; annotated when ``message`` is non-empty."""
        target = self.resolve(at) if at else self.head_oid()
        if target is None:
            raise RefError("cannot tag a repository with no commits")
        if message:
            tag = Tag(
                object_oid=target,
                object_type="commit",
                name=name,
                tagger=tagger or self.make_signature(),
                message=message,
            )
            self.store.put(tag)
        self.refs.set_tag(name, target)
        return target

    def resolve(self, ref: str) -> str:
        """Resolve a branch/tag/``HEAD``/object-id (full or abbreviated) to a commit id."""
        try:
            return self.refs.resolve(ref)
        except RefError:
            pass
        if ref in self.store and self.store.get_type(ref) == "commit":
            return ref
        try:
            full = self.store.resolve_prefix(ref)
        except VCSError:
            raise RefError(f"cannot resolve reference: {ref!r}") from None
        if self.store.get_type(full) != "commit":
            raise RefError(f"reference {ref!r} does not name a commit")
        return full

    def checkout(self, ref: str, create_branch: bool = False) -> str:
        """Switch HEAD (and the working tree) to ``ref``; returns the commit id."""
        if create_branch:
            self.create_branch(ref)
        if self.refs.has_branch(ref):
            target = self.refs.branch_target(ref)
            self.refs.attach_head(ref)
        else:
            try:
                target = self.resolve(ref)
            except RefError as exc:
                raise CheckoutError(str(exc)) from exc
            self.refs.detach_head(target)
        self._load_worktree(target)
        return target

    @property
    def worktree_generation(self) -> int:
        """Bumped every time the working tree is replaced wholesale."""
        return self._worktree_generation

    def _notify_worktree_reload(self) -> None:
        self._worktree_generation += 1
        for hook in tuple(self._worktree_reload_hooks):
            hook()

    def _load_worktree(self, commit_oid: str) -> None:
        commit = self.store.get_commit(commit_oid)
        # One tree walk shared between the worktree and the index.  Blob oids
        # come straight from the tree, so every fingerprint is primed as
        # known-stored, and the entries are installed *lazily*: no blob is
        # read until its path is actually accessed — checkout and the
        # add/status/commit that follow it perform zero blob reads on a
        # clean tree.  Bytes the outgoing worktree had already materialised
        # (same oid) are carried over, so branch switching re-reads only
        # blobs that changed since they were last loaded.
        flat = flatten_tree(self.store, commit.tree_oid)
        previous = self._worktree
        state = WorktreeState()
        state.load_committed_lazy(
            (
                (path, oid)
                for path, (oid, mode) in flat.items()
                if mode != MODE_DIRECTORY
            ),
            self.store,
            carry_from=previous if isinstance(previous, WorktreeState) else None,
        )
        self._worktree = state
        if isinstance(previous, WorktreeState):
            # The outgoing worktree no longer backs this repository; its gc
            # pin is returned now rather than at garbage-collection time
            # (adopted copies hold their own lease, so borrowers stay safe).
            previous.release_lease()
        self.index.read_flat(self.store, flat)
        self._notify_worktree_reload()

    def log(self, ref: str = "HEAD", limit: int | None = None) -> list[CommitInfo]:
        """Return the history reachable from ``ref``, newest first."""
        try:
            start = self.resolve(ref)
        except RefError:
            return []
        seen: set[str] = set()
        ordered: list[CommitInfo] = []
        frontier = [start]
        while frontier:
            # Pick the frontier commit with the latest committer timestamp, which
            # yields a reverse-chronological interleaving of merged branches.
            frontier.sort(key=lambda oid: self.store.get_commit(oid).committer.timestamp)
            oid = frontier.pop()
            if oid in seen:
                continue
            seen.add(oid)
            commit = self.store.get_commit(oid)
            ordered.append(CommitInfo(oid=oid, commit=commit))
            frontier.extend(p for p in commit.parent_oids if p not in seen)
            if limit is not None and len(ordered) >= limit:
                break
        return ordered

    # ------------------------------------------------------------------
    # Snapshots and diffs
    # ------------------------------------------------------------------

    def tree_oid_of(self, ref: str) -> str:
        return self.store.get_commit(self.resolve(ref)).tree_oid

    def snapshot(self, ref: str = "HEAD") -> dict[str, bytes]:
        """Return ``{path: content}`` for every file in the given version."""
        tree_oid = self.tree_oid_of(ref)
        files = flatten_files(self.store, tree_oid)
        return {path: self.store.get_blob(oid).data for path, (oid, _) in files.items()}

    def blob_oid_at(self, ref: str, path: str) -> str:
        """Return the blob oid of a file as of the given version.

        The content-addressed oid identifies the file's bytes without
        reading them — callers that memoise parses key on it.
        """
        tree_oid = self.tree_oid_of(ref)
        resolved = lookup_path(self.store, tree_oid, path)
        if resolved is None:
            raise VCSError(f"no such file in {ref!r}: {path!r}")
        oid, mode = resolved
        if mode == MODE_DIRECTORY:
            raise VCSError(f"path is a directory in {ref!r}: {path!r}")
        return oid

    def read_file_at(self, ref: str, path: str) -> bytes:
        """Return a file's content as of the given version."""
        return self.store.get_blob(self.blob_oid_at(ref, path)).data

    def path_exists_at(self, ref: str, path: str) -> bool:
        tree_oid = self.tree_oid_of(ref)
        return lookup_path(self.store, tree_oid, path) is not None

    def diff(self, old_ref: str, new_ref: str, detect_renames: bool = True) -> TreeDiff:
        """Diff two versions of the repository."""
        return diff_trees(
            self.store,
            self.tree_oid_of(old_ref),
            self.tree_oid_of(new_ref),
            detect_renames=detect_renames,
        )

    def status(self) -> WorktreeStatus:
        """Compare HEAD, the index and the working tree."""
        head = self.head_oid()
        head_files: dict[str, tuple[str, str]] = {}
        if head:
            head_files = flatten_files(self.store, self.store.get_commit(head).tree_oid)
        staged: list[str] = []
        for path, (oid, _) in self.index.entries().items():
            if path not in head_files or head_files[path][0] != oid:
                staged.append(path)
        modified: list[str] = []
        deleted: list[str] = []
        untracked: list[str] = []
        tracked = set(head_files) | set(self.index.entries())
        for path in self._worktree:
            if path not in tracked:
                untracked.append(path)
                continue
            reference = self.index.get(path) or head_files.get(path)
            if reference is None:
                untracked.append(path)
            elif self._worktree.fingerprint(path) != reference[0]:
                # The fingerprint cache means a clean worktree re-hashes
                # nothing here, no matter how often status runs.
                modified.append(path)
        for path in tracked:
            if path not in self.worktree:
                deleted.append(path)
        return WorktreeStatus(
            staged=tuple(sorted(staged)),
            modified=tuple(sorted(modified)),
            deleted=tuple(sorted(deleted)),
            untracked=tuple(sorted(untracked)),
        )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def prepare_merge(self, other_ref: str, ours_ref: str = "HEAD") -> PreparedMerge:
        """Compute the three-way merge of ``other_ref`` into ``ours_ref`` without committing."""
        ours_oid = self.resolve(ours_ref)
        theirs_oid = self.resolve(other_ref)
        base_oid = find_merge_base(self.store, ours_oid, theirs_oid)
        ours_tree = self.store.get_commit(ours_oid).tree_oid
        theirs_tree = self.store.get_commit(theirs_oid).tree_oid
        base_tree = self.store.get_commit(base_oid).tree_oid if base_oid else None
        fast_forward = base_oid == ours_oid
        result = merge_trees(self.store, base_tree, ours_tree, theirs_tree)
        return PreparedMerge(
            base_oid=base_oid,
            ours_oid=ours_oid,
            theirs_oid=theirs_oid,
            base_tree_oid=base_tree,
            ours_tree_oid=ours_tree,
            theirs_tree_oid=theirs_tree,
            result=result,
            fast_forward=fast_forward,
        )

    def merge(
        self,
        other_ref: str,
        message: str | None = None,
        author: Signature | None = None,
        timestamp: datetime | None = None,
        resolutions: Mapping[str, bytes] | None = None,
        extra_files: Mapping[str, bytes] | None = None,
        allow_fast_forward: bool = True,
        allow_unrelated: bool = False,
    ) -> MergeOutcome:
        """Merge ``other_ref`` into the current branch.

        ``resolutions`` supplies content for conflicted paths (a missing entry
        for a conflict raises :class:`MergeConflictError`).  ``extra_files``
        lets the citation layer inject the merged ``citation.cite`` content
        into the merge commit, as MergeCite requires.
        """
        prepared = self.prepare_merge(other_ref)
        if prepared.base_oid is None and not allow_unrelated:
            raise MergeError(
                f"refusing to merge unrelated histories: {other_ref!r} shares no ancestor with HEAD"
            )
        if prepared.theirs_oid == prepared.ours_oid or (
            prepared.base_oid == prepared.theirs_oid
        ):
            # Other branch is already contained in ours: nothing to do.
            return MergeOutcome(commit_oid=prepared.ours_oid, fast_forward=True)

        author = author or self.make_signature(timestamp=timestamp)
        if timestamp is not None and author.timestamp != timestamp:
            author = Signature(name=author.name, email=author.email, timestamp=timestamp)

        if prepared.fast_forward and allow_fast_forward and not extra_files:
            self.refs.advance_head(prepared.theirs_oid)
            self._load_worktree(prepared.theirs_oid)
            return MergeOutcome(commit_oid=prepared.theirs_oid, fast_forward=True)

        files = dict(prepared.result.files)
        unresolved = list(prepared.result.conflicts)
        resolved: list[str] = []
        if resolutions:
            for path, content in resolutions.items():
                canonical = normalize_path(path)
                files[canonical] = content
                if canonical in unresolved:
                    unresolved.remove(canonical)
                    resolved.append(canonical)
        if unresolved:
            raise MergeConflictError(unresolved)
        if extra_files:
            for path, content in extra_files.items():
                files[normalize_path(path)] = content

        # Build the merged tree and commit with both parents.  Replacing the
        # worktree wholesale invalidates deferred worktree-derived state,
        # exactly like a checkout.  Paths whose merged bytes were taken
        # verbatim from an existing blob arrive with their fingerprints
        # primed as known-stored, so the add() below hashes and stores only
        # content the merge actually produced.
        overridden: set[str] = set()
        if resolutions:
            overridden.update(normalize_path(path) for path in resolutions)
        if extra_files:
            overridden.update(normalize_path(path) for path in extra_files)
        state = WorktreeState(files)
        for path, oid in prepared.result.taken_oids.items():
            if path not in overridden and path in state:
                state.mark_stored(path, oid)
        self._worktree.release_lease()
        self._worktree = state
        self._notify_worktree_reload()
        self.add()
        tree_oid = self.index.write_tree(self.store)
        message = message or f"Merge {other_ref} into {self.current_branch or 'HEAD'}"
        commit_oid = self._write_commit(
            message, tree_oid, (prepared.ours_oid, prepared.theirs_oid), author
        )
        self.refs.advance_head(commit_oid)
        return MergeOutcome(
            commit_oid=commit_oid,
            fast_forward=False,
            conflicts_resolved=tuple(sorted(resolved)),
        )
