"""The citation manager: GitCite's local executable tool as a library.

A :class:`CitationManager` binds the pure citation model (functions,
operators, merge/copy/fork algorithms) to one
:class:`~repro.vcs.repository.Repository`.  It owns the ``citation.cite``
file of the working tree and keeps it up to date as a *side-effect* of the
operations the user performs, exactly as Section 3 prescribes: users never
edit the file directly; AddCite/DelCite/ModifyCite, renames, CopyCite,
MergeCite and ForkCite all rewrite it, and the next commit snapshots it.

The manager is the API surface the CLI (:mod:`repro.cli`), the examples and
the benchmark harness are built on.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, Mapping, Optional

from repro.errors import CitationConflictError, CitationFileError, MergeConflictError, VCSError
from repro.citation.citefile import (
    CITATION_FILE_NAME,
    CITATION_FILE_PATH,
    ParseCache,
    dump_citation_bytes,
    load_citation_bytes,
)
from repro.citation.conflict import ConflictStrategy
from repro.citation.consistency import ConsistencyReport, check_consistency, repair
from repro.citation.copy import CopyCiteResult, copy_citations
from repro.citation.fork import fork_citation, rewrite_fork_root
from repro.citation.function import CitationFunction, ResolvedCitation
from repro.citation.merge import MergeCiteResult, merge_citation_functions
from repro.citation.operators import (
    AddCite,
    DelCite,
    GenCite,
    ModifyCite,
    OperationLog,
    apply_operation,
)
from repro.citation.record import Citation
from repro.citation.rename import propagate_renames
from repro.utils.hashing import short_id
from repro.utils.paths import ROOT, is_ancestor, normalize_path, path_parent
from repro.utils.timeutil import now_utc
from repro.vcs.objects import Signature
from repro.vcs.remote import fork_repository
from repro.vcs.repository import Repository
from repro.vcs.treeops import lookup_path
from repro.vcs.worktree_state import WorktreeState

__all__ = ["CitationManager", "MergeCiteOutcome", "CopyCiteOutcome"]


@dataclass(frozen=True)
class MergeCiteOutcome:
    """The result of a MergeCite: the merge commit plus the citation merge details."""

    commit_oid: str
    citation_result: MergeCiteResult
    file_conflicts_resolved: tuple[str, ...]


@dataclass(frozen=True)
class CopyCiteOutcome:
    """The result of a CopyCite: which files were copied and how citations migrated."""

    copied_files: tuple[str, ...]
    citation_result: CopyCiteResult
    source: str
    destination: str


class CitationManager:
    """Manage the citation function of a repository's working tree.

    Persistence is write-through by default: every operator rewrites
    ``citation.cite`` immediately, exactly as the paper's local tool does.
    Bulk workloads can suspend that with :meth:`batch` (or ``autosave=False``
    plus explicit :meth:`flush`), which defers serialisation until the batch
    exits — the final file bytes are identical to the write-through ones.

    Committed versions' citation functions are memoised by the blob oid of
    their ``citation.cite``.  The store is content-addressed, so a cached
    parse can never go stale; repeated ``cite(path, ref)``, MergeCite and
    consistency checks stop re-parsing the same bytes.
    """

    def __init__(
        self, repo: Repository, url_base: str = "https://github.com", autosave: bool = True
    ) -> None:
        self.repo = repo
        self.url_base = url_base.rstrip("/")
        self.log = OperationLog()
        self._function: Optional[CitationFunction] = None
        self.autosave = autosave
        self._batch_depth = 0
        self._dirty = False
        self._deferred_disk_state: Optional[bytes] = None
        self._function_generation = repo.worktree_generation
        self._parsed = ParseCache()

    # ------------------------------------------------------------------
    # Citation file plumbing
    # ------------------------------------------------------------------

    @property
    def repository_url(self) -> str:
        """The URL recorded in generated citations for this repository."""
        return f"{self.url_base}/{self.repo.owner}/{self.repo.name}"

    def default_root_citation(
        self,
        authors: tuple[str, ...] | list[str] | None = None,
        timestamp: Optional[datetime] = None,
        commit_id: Optional[str] = None,
        **extra_fields,
    ) -> Citation:
        """Build the default root citation from repository metadata.

        The commit id and date describe the version being cited; they default
        to the current HEAD (or, for a repository with no commits yet, to the
        supplied/ current timestamp and a placeholder id that
        :meth:`refresh_root_citation` later replaces).
        """
        head = self.repo.head_oid()
        head_commit = self.repo.head_commit()
        when = timestamp or (head_commit.committer.timestamp if head_commit else now_utc())
        title = extra_fields.pop("title", self.repo.description or None)
        return Citation(
            repo_name=self.repo.name,
            owner=self.repo.owner,
            committed_date=when,
            commit_id=commit_id or (short_id(head) if head else "0000000"),
            url=self.repository_url,
            authors=tuple(authors) if authors else (self.repo.owner,),
            title=title,
            **extra_fields,
        )

    @property
    def is_enabled(self) -> bool:
        """Whether the working tree currently carries a ``citation.cite`` file."""
        return self.repo.file_exists(CITATION_FILE_PATH)

    def init_citations(
        self,
        root_citation: Optional[Citation] = None,
        overwrite: bool = False,
    ) -> CitationFunction:
        """Citation-enable the working tree by creating ``citation.cite``.

        The file initially contains only the mandatory root citation ("All
        versions have a default citation attached to the root", Section 2).
        """
        if self.is_enabled and not overwrite:
            raise CitationFileError(
                "repository is already citation-enabled; pass overwrite=True to reset it"
            )
        function = self._install_function(
            CitationFunction.with_root(root_citation or self.default_root_citation())
        )
        self._save()
        return function

    def citation_function(self) -> CitationFunction:
        """The citation function of the current working tree (cached)."""
        if (
            self._function is not None
            and not self._dirty
            and self._function_generation != self.repo.worktree_generation
        ):
            # The working tree was replaced (checkout / merge) since the
            # cache was filled; deferred state would have been discarded by
            # the reload hook, so a clean cache is simply re-read.
            self._function = None
        if self._function is None:
            if not self.is_enabled:
                raise CitationFileError(
                    f"repository {self.repo.full_name} has no {CITATION_FILE_NAME}; "
                    "run init_citations() (or the retrofit tool) first"
                )
            worktree = self.repo.worktree
            if isinstance(worktree, WorktreeState) and worktree.is_stored(CITATION_FILE_PATH):
                # Clean checkout-primed file: parse through the blob-oid
                # cache instead of materialising the working-tree bytes — a
                # lazily checked-out citation.cite stays unread, and
                # switching back to an already-parsed version costs a copy,
                # not a parse.
                blob_oid = worktree.fingerprint(CITATION_FILE_PATH)
                self._install_function(
                    self._parse_cached(blob_oid, self.repo.store).copy()
                )
            else:
                self._install_function(
                    load_citation_bytes(self.repo.read_file(CITATION_FILE_PATH))
                )
        return self._function

    def _install_function(self, function: CitationFunction) -> CitationFunction:
        self._function = function
        self._function_generation = self.repo.worktree_generation
        return function

    def reload(self) -> CitationFunction:
        """Drop the cache and re-read ``citation.cite`` from the working tree.

        Unflushed in-memory changes (``autosave=False`` or an open
        :meth:`batch`) are discarded, matching the method's contract of
        reflecting what is actually on disk.
        """
        self._function = None
        self._clear_dirty()
        return self.citation_function()

    def _save(self) -> None:
        """Persist the in-memory citation function (deferred inside a batch)."""
        if self._function is None:
            return
        if self._batch_depth > 0 or not self.autosave:
            if not self._dirty:
                self._dirty = True
                # While deferred state exists, any commit — even one issued
                # directly on the repository — must flush it first, and any
                # checkout must discard it (it describes the previous
                # worktree).  Both hooks live exactly as long as the
                # dirtiness does.
                self.repo.register_pre_commit_hook(self.flush)
                self.repo.register_worktree_reload_hook(self._discard_deferred)
            # Remember what the on-disk file looked like at the latest
            # deferred operation: a *raw* rewrite arriving after it must win
            # over the deferral, exactly as it would under write-through.
            self._deferred_disk_state = self.repo.worktree.get(CITATION_FILE_PATH)
            return
        self._write_citation_file()

    def _write_citation_file(self) -> None:
        """Write the in-memory citation function back to the working tree."""
        if self._function is None:
            return
        self.repo.write_file(CITATION_FILE_PATH, dump_citation_bytes(self._function))
        self._clear_dirty()

    def _clear_dirty(self) -> None:
        if self._dirty:
            self._dirty = False
            self.repo.unregister_pre_commit_hook(self.flush)
            self.repo.unregister_worktree_reload_hook(self._discard_deferred)

    def _discard_deferred(self) -> None:
        """Drop deferred state when the working tree is replaced wholesale.

        Matches write-through semantics: those writes would have landed in
        the *previous* worktree and been discarded by the checkout; they
        must never flush over a different version's ``citation.cite``.
        """
        self._function = None
        self._clear_dirty()

    def flush(self) -> None:
        """Write any deferred citation changes to the working tree now.

        If ``citation.cite`` was rewritten underneath the deferral (a raw
        ``repo.write_file``), the later write wins and the deferred state is
        discarded — the ordering write-through persistence would produce.
        """
        if not self._dirty:
            return
        current = self.repo.worktree.get(CITATION_FILE_PATH)
        if current is not self._deferred_disk_state and current != self._deferred_disk_state:
            self._discard_deferred()
            return
        self._write_citation_file()

    @contextmanager
    def batch(self) -> Iterator["CitationManager"]:
        """Defer ``citation.cite`` writes until the outermost batch exits.

        Operators inside the batch mutate only the in-memory function; one
        serialisation happens on exit (even on error, so the file reflects
        the operations that did succeed — exactly the state write-through
        persistence would have left behind).  Batches nest; :meth:`commit`
        inside a batch still flushes first, since a commit must snapshot the
        current function.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self.flush()

    def _function_at(self, ref: str) -> CitationFunction:
        """The parsed citation function at ``ref`` — shared cache instance.

        Callers must treat the result as read-only; mutating it would corrupt
        the cache.  Public callers go through :meth:`citation_function_at`,
        which returns a copy.
        """
        try:
            blob_oid = self.repo.blob_oid_at(ref, CITATION_FILE_PATH)
        except VCSError as exc:
            raise CitationFileError(
                f"version {ref!r} of {self.repo.full_name} has no {CITATION_FILE_NAME}"
            ) from exc
        return self._parse_cached(blob_oid, self.repo.store)

    def _parse_cached(self, blob_oid: str, store) -> CitationFunction:
        """Parse the ``citation.cite`` blob, memoised by its content oid.

        Content addressing makes the key universal: blobs from *any* store
        (e.g. a CopyCite source repository) share one cache entry per
        distinct content.
        """
        return self._parsed.get(blob_oid, lambda: load_citation_bytes(store.get_blob(blob_oid).data))

    def citation_function_at(self, ref: str) -> CitationFunction:
        """The citation function stored in a committed version."""
        return self._function_at(ref).copy()

    # ------------------------------------------------------------------
    # The user-facing operators (AddCite / DelCite / ModifyCite / GenCite)
    # ------------------------------------------------------------------

    def add_cite(self, path: str, citation: Citation) -> None:
        """Attach a citation to a path of the working tree (AddCite)."""
        is_directory = self._is_directory(path)
        result = apply_operation(
            self.citation_function(),
            AddCite(path=path, citation=citation, is_directory=is_directory),
        )
        self.log.record(result)
        self._save()

    def del_cite(self, path: str) -> None:
        """Remove the explicit citation of a path (DelCite)."""
        result = apply_operation(self.citation_function(), DelCite(path=path))
        self.log.record(result)
        self._save()

    def modify_cite(self, path: str, citation: Citation) -> None:
        """Replace the explicit citation of a path (ModifyCite)."""
        result = apply_operation(self.citation_function(), ModifyCite(path=path, citation=citation))
        self.log.record(result)
        self._save()

    def gen_cite(self, path: str) -> ResolvedCitation:
        """Generate the citation of a path from the working tree (GenCite)."""
        result = apply_operation(self.citation_function(), GenCite(path=path))
        self.log.record(result)
        assert result.resolved is not None
        return result.resolved

    def cite(self, path: str, ref: Optional[str] = None) -> ResolvedCitation:
        """Evaluate ``Cite(V,P)(path)`` for the working tree or a committed version."""
        if ref is None:
            return self.citation_function().resolve(path)
        return self._function_at(ref).resolve(path)

    def cite_chain(self, path: str, ref: Optional[str] = None) -> list[ResolvedCitation]:
        """The alternative all-ancestors interpretation of ``Cite`` (Section 2)."""
        function = self.citation_function() if ref is None else self._function_at(ref)
        return function.resolve_chain(path)

    def refresh_root_citation(self, timestamp: Optional[datetime] = None) -> Citation:
        """Re-point the root citation at the current HEAD commit.

        Typically called after a release commit so that subsequently generated
        citations reference the released version's commit id and date.
        """
        head = self.repo.head_oid()
        if head is None:
            raise CitationFileError("cannot refresh the root citation: the repository has no commits")
        head_commit = self.repo.store.get_commit(head)
        function = self.citation_function()
        updated = function.root_citation().with_changes(
            commit_id=short_id(head),
            committed_date=timestamp or head_commit.committer.timestamp,
        )
        function.put(ROOT, updated, is_directory=True)
        self._save()
        return updated

    # ------------------------------------------------------------------
    # File operations that must keep the citation function consistent
    # ------------------------------------------------------------------

    def write_file(self, path: str, data: bytes | str) -> str:
        """Write a file through the manager (no citation side-effects needed).

        A raw write that targets ``citation.cite`` itself drops the cached
        in-memory function (and any deferred, unflushed state), so the next
        read reflects the bytes just written instead of a stale parse.
        """
        canonical = self.repo.write_file(path, data)
        if canonical == CITATION_FILE_PATH:
            self._function = None
            self._clear_dirty()
        return canonical

    def move_file(self, source: str, destination: str) -> None:
        """Move/rename a file and carry its citation to the new path."""
        self.repo.move_file(source, destination)
        propagate_renames(self.citation_function(), {normalize_path(source): normalize_path(destination)})
        self._save()

    def move_directory(self, source: str, destination: str) -> dict[str, str]:
        """Move/rename a directory and re-root the citations underneath it."""
        moves = self.repo.move_directory(source, destination)
        function = self.citation_function()
        function.rename_prefix(normalize_path(source), normalize_path(destination))
        self._save()
        return moves

    def remove_file(self, path: str) -> None:
        """Delete a file and drop its (now orphaned) citation entry, if any."""
        self.repo.remove_file(path)
        self.citation_function().discard(path)
        self._save()

    def remove_directory(self, path: str) -> list[str]:
        """Delete a directory and drop every citation entry underneath it."""
        removed = self.repo.remove_directory(path)
        function = self.citation_function()
        canonical = normalize_path(path)
        for entry in function.entries_under(canonical, include_prefix=True):
            if entry.path != ROOT:
                function.discard(entry.path)
        self._save()
        return removed

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------

    def commit(
        self,
        message: Optional[str] = None,
        author: Optional[Signature] = None,
        author_name: Optional[str] = None,
        timestamp: Optional[datetime] = None,
        allow_empty: bool = False,
    ) -> str:
        """Commit the working tree (including the maintained ``citation.cite``)."""
        self._save()
        self.flush()  # a commit must snapshot the current function, batched or not
        resolved_message = message or self.log.summary()
        oid = self.repo.commit(
            resolved_message,
            author=author,
            author_name=author_name,
            timestamp=timestamp,
            allow_empty=allow_empty,
        )
        self.log.clear()
        return oid

    # ------------------------------------------------------------------
    # CopyCite
    # ------------------------------------------------------------------

    def copy_cite(
        self,
        source_repo: Repository,
        source_path: str,
        destination_path: str,
        source_ref: str = "HEAD",
    ) -> CopyCiteOutcome:
        """Copy a directory from another repository version and migrate citations.

        The files of ``source_path`` in ``source_ref`` of ``source_repo`` are
        copied into the local working tree under ``destination_path``; the
        source version's citations for that subtree are added to the local
        ``citation.cite`` with their keys re-rooted (Section 3, CopyCite).
        """
        source_root = normalize_path(source_path)
        destination_root = normalize_path(destination_path)
        snapshot = source_repo.snapshot(source_ref)
        selected = {
            path: data
            for path, data in snapshot.items()
            if path == source_root or is_ancestor(source_root, path)
        }
        if not selected:
            raise VCSError(
                f"{source_repo.full_name}@{source_ref} has no directory {source_root!r} to copy"
            )
        copied: list[str] = []
        for path, data in sorted(selected.items()):
            if path == source_root:
                # Copying a single file: keep its name under the destination.
                target = destination_root
            else:
                suffix = path[len(source_root):].lstrip("/")
                target = normalize_path(f"{destination_root}/{suffix}")
            if target == CITATION_FILE_PATH:
                continue
            self.repo.write_file(target, data)
            copied.append(target)

        try:
            source_blob_oid = source_repo.blob_oid_at(source_ref, CITATION_FILE_PATH)
            # Read-only use: copy_citations mutates only the destination.
            # Memoised by content oid, so repeated CopyCite from the same
            # source version parses its citation.cite once.
            source_function = self._parse_cached(source_blob_oid, source_repo.store)
        except (VCSError, CitationFileError):
            # No (or unparseable) source citation file: degrade to a plain
            # file copy, as the seed behaviour did.
            source_function = None

        if source_function is not None:
            citation_result = copy_citations(
                source_function, source_root, self.citation_function(), destination_root
            )
        else:
            citation_result = CopyCiteResult()
        self._save()
        return CopyCiteOutcome(
            copied_files=tuple(copied),
            citation_result=citation_result,
            source=f"{source_repo.full_name}:{source_root}@{source_ref}",
            destination=destination_root,
        )

    # ------------------------------------------------------------------
    # MergeCite
    # ------------------------------------------------------------------

    def merge_cite(
        self,
        other_ref: str,
        strategy: Optional[ConflictStrategy] = None,
        message: Optional[str] = None,
        author: Optional[Signature] = None,
        timestamp: Optional[datetime] = None,
        file_resolutions: Optional[Mapping[str, bytes]] = None,
    ) -> MergeCiteOutcome:
        """Merge another branch, merging citation functions the GitCite way.

        Ordinary files are merged with the substrate's Git-style three-way
        rules (content conflicts must be settled through
        ``file_resolutions``); ``citation.cite`` is *never* content-merged —
        the two citation functions are united, entries for paths dropped by
        the file merge are deleted, and value conflicts go through
        ``strategy`` (unresolved ones raise :class:`CitationConflictError`).
        """
        prepared = self.repo.prepare_merge(other_ref)
        if prepared.theirs_oid == prepared.ours_oid or prepared.base_oid == prepared.theirs_oid:
            # Nothing to merge; the citation function is already current.
            return MergeCiteOutcome(
                commit_oid=prepared.ours_oid,
                citation_result=MergeCiteResult(function=self.citation_function().copy()),
                file_conflicts_resolved=(),
            )

        # Shared cache instances: merge_citation_functions reads but never
        # mutates its inputs, so no defensive copies are needed here.
        ours_function = self._function_at("HEAD")
        theirs_function = self._function_at(other_ref)
        base_function: Optional[CitationFunction] = None
        if prepared.base_oid is not None:
            try:
                base_function = self._function_at(prepared.base_oid)
            except CitationFileError:
                base_function = None

        # Which paths survive the Git file merge (plus their directories).
        merged_file_paths = {
            path for path in prepared.result.files if path != CITATION_FILE_PATH
        }
        if file_resolutions:
            merged_file_paths.update(normalize_path(p) for p in file_resolutions)
        surviving = set(merged_file_paths)
        for path in merged_file_paths:
            parent = path_parent(path)
            while parent != ROOT:
                surviving.add(parent)
                parent = path_parent(parent)

        citation_result = merge_citation_functions(
            ours=ours_function,
            theirs=theirs_function,
            base=base_function,
            surviving_paths=surviving,
            strategy=strategy,
        )
        if citation_result.has_unresolved:
            raise CitationConflictError([c.path for c in citation_result.unresolved])

        # File-level conflicts on citation.cite are irrelevant (we overwrite it),
        # so they are auto-resolved with the merged citation file's bytes.
        resolutions: dict[str, bytes] = {}
        if file_resolutions:
            resolutions.update({normalize_path(p): v for p, v in file_resolutions.items()})
        merged_bytes = dump_citation_bytes(citation_result.function)
        resolutions.setdefault(CITATION_FILE_PATH, merged_bytes)

        try:
            outcome = self.repo.merge(
                other_ref,
                message=message or f"MergeCite {other_ref}",
                author=author,
                timestamp=timestamp,
                resolutions=resolutions,
                extra_files={CITATION_FILE_PATH: merged_bytes},
                allow_fast_forward=False,
            )
        except MergeConflictError as exc:
            raise MergeConflictError(
                [path for path in exc.conflicts if path != CITATION_FILE_PATH]
            ) from exc

        self._install_function(citation_result.function)
        self._save()
        return MergeCiteOutcome(
            commit_oid=outcome.commit_oid,
            citation_result=citation_result,
            file_conflicts_resolved=outcome.conflicts_resolved,
        )

    # ------------------------------------------------------------------
    # ForkCite
    # ------------------------------------------------------------------

    def fork_cite(
        self,
        new_owner: str,
        new_name: Optional[str] = None,
        timestamp: Optional[datetime] = None,
        commit_fork_metadata: bool = True,
    ) -> "CitationManager":
        """Fork the repository, carrying all citations, and return the fork's manager.

        The fork's history (and therefore every version's ``citation.cite``)
        is identical to the original.  When ``commit_fork_metadata`` is true a
        follow-up commit records the fork's own root citation (new owner and
        URL, original authors preserved, provenance in ``forkedFrom``).
        """
        forked_repo = fork_repository(self.repo, new_owner=new_owner, new_name=new_name)
        fork_manager = CitationManager(forked_repo, url_base=self.url_base)
        if not fork_manager.is_enabled or not commit_fork_metadata:
            return fork_manager
        when = timestamp or now_utc()
        original_root = fork_manager.citation_function().root_citation()
        new_root = fork_citation(
            original_root,
            new_owner=new_owner,
            new_repo_name=forked_repo.name,
            new_url=f"{self.url_base}/{new_owner}/{forked_repo.name}",
            forked_at=when,
            fork_commit_id=short_id(forked_repo.head_oid()) if forked_repo.head_oid() else None,
        )
        fork_manager._install_function(
            rewrite_fork_root(fork_manager.citation_function(), new_root)
        )
        fork_manager._save()
        fork_manager.commit(
            message=f"ForkCite from {self.repo.full_name}",
            author_name=new_owner,
            timestamp=when,
        )
        return fork_manager

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------

    def _worktree_paths(self) -> tuple[set[str], set[str]]:
        # Both queries come straight off the indexed worktree's maintained
        # path/directory indexes — no per-call re-derivation.  Note that a
        # checkout replaces the WorktreeState *object* (the indexes travel
        # with the content), so worktree-derived state must be re-read per
        # call or tracked via ``Repository.worktree_generation``, exactly as
        # this manager's function cache does — never by holding a reference
        # to ``repo.worktree`` across operations.
        files = set(self.repo.worktree)
        files.discard(CITATION_FILE_PATH)
        directories = set(self.repo.list_directories())
        directories.discard(ROOT)
        return files, directories

    def validate(self) -> ConsistencyReport:
        """Check the working tree's citation function against its files."""
        files, directories = self._worktree_paths()
        return check_consistency(self.citation_function(), files, directories)

    def repair(self) -> ConsistencyReport:
        """Apply the unambiguous consistency repairs to the working tree's function."""
        files, directories = self._worktree_paths()
        report = repair(
            self.citation_function(), files, directories, root_citation=self.default_root_citation()
        )
        self._save()
        return report

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _is_directory(self, path: str) -> bool:
        canonical = normalize_path(path)
        if canonical == ROOT:
            return True
        if self.repo.file_exists(canonical):
            return False
        if self.repo.directory_exists(canonical):
            return True
        # Fall back to the committed tree (the path may only exist in HEAD).
        head = self.repo.head_oid()
        if head is not None:
            tree_oid = self.repo.store.get_commit(head).tree_oid
            resolved = lookup_path(self.repo.store, tree_oid, canonical)
            if resolved is not None:
                return resolved[1] == "040000"
        raise VCSError(f"path does not exist in the working tree: {canonical!r}")
