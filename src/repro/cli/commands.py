"""Implementations of the ``gitcite`` subcommands.

Each command is a plain function taking the parsed :mod:`argparse` namespace
and returning a process exit status.  Commands never print tracebacks for
expected failures: library exceptions derived from
:class:`~repro.errors.ReproError` are rendered as one-line error messages by
the driver in :mod:`repro.cli.main`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import CLIError
from repro.citation.citefile import CITATION_FILE_PATH
from repro.citation.conflict import strategy_by_name
from repro.citation.manager import CitationManager
from repro.citation.record import Citation
from repro.citation.retro import retrofit
from repro.formats import render
from repro.utils import atomicio
from repro.utils.jsonutil import stable_loads
from repro.utils.timeutil import now_utc, parse_timestamp
from repro.vcs.repository import Repository
from repro.vcs.workingcopy import is_working_copy, load_repository, save_checkout, save_repository
from repro.vcs.worktree import import_worktree

__all__ = [
    "cmd_init",
    "cmd_enable",
    "cmd_status",
    "cmd_log",
    "cmd_commit",
    "cmd_branch",
    "cmd_checkout",
    "cmd_add_cite",
    "cmd_del_cite",
    "cmd_modify_cite",
    "cmd_gen_cite",
    "cmd_export",
    "cmd_copy_cite",
    "cmd_merge_cite",
    "cmd_fork_cite",
    "cmd_retro_cite",
    "cmd_validate",
    "cmd_show_citations",
    "cmd_move",
]


def _print(message: str = "") -> None:
    sys.stdout.write(message + "\n")


def _load(args: argparse.Namespace) -> tuple[Repository, CitationManager]:
    repo = load_repository(args.directory)
    return repo, CitationManager(repo)


def _print_kept(paths: list[str]) -> None:
    for path in paths:
        _print(f"  kept local changes: {path}")


def _save(repo: Repository, directory: str | Path) -> None:
    """Save the working copy, naming the files left alone for local edits."""
    _print_kept(save_repository(repo, directory))


def _citation_from_args(args: argparse.Namespace, manager: CitationManager) -> Citation:
    """Build a citation record from ``--from-json`` or the individual flags."""
    if getattr(args, "from_json", None):
        try:
            payload = stable_loads(Path(args.from_json).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CLIError(f"{args.from_json} is not valid JSON: {exc}") from exc
        return Citation.from_dict(payload)
    base = manager.default_root_citation()
    overrides = {}
    if getattr(args, "authors", None):
        overrides["authors"] = tuple(args.authors)
    if getattr(args, "title", None):
        overrides["title"] = args.title
    if getattr(args, "doi", None):
        overrides["doi"] = args.doi
    if getattr(args, "version", None):
        overrides["version"] = args.version
    if getattr(args, "url", None):
        overrides["url"] = args.url
    if getattr(args, "date", None):
        overrides["committed_date"] = parse_timestamp(args.date)
    return base.with_changes(**overrides) if overrides else base


# ---------------------------------------------------------------------------
# Working-copy management
# ---------------------------------------------------------------------------


def cmd_init(args: argparse.Namespace) -> int:
    """Create a gitcite working copy in a directory of existing files."""
    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    if is_working_copy(directory):
        raise CLIError(f"{directory} is already a gitcite working copy")
    repo = Repository.init(
        name=args.name or directory.resolve().name,
        owner=args.owner,
        description=args.description or "",
    )
    imported = import_worktree(repo, directory)
    if imported or args.allow_empty:
        repo.commit(args.message or "Initial commit", author_name=args.owner, timestamp=now_utc())
    _save(repo, directory)
    _print(f"Initialised gitcite repository {repo.full_name} with {len(imported)} file(s)")
    return 0


def cmd_enable(args: argparse.Namespace) -> int:
    """Citation-enable the working copy (create citation.cite with a root citation)."""
    repo, manager = _load(args)
    citation = _citation_from_args(args, manager)
    manager.init_citations(citation, overwrite=args.overwrite)
    manager.commit("Enable citations", timestamp=now_utc())
    _save(repo, args.directory)
    _print(f"Created {CITATION_FILE_PATH[1:]} with root citation for {repo.full_name}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show branch, HEAD, citation status and pending changes."""
    repo, manager = _load(args)
    head = repo.head_oid()
    _print(f"Repository : {repo.full_name}")
    _print(f"Branch     : {repo.current_branch or '(detached)'}")
    _print(f"HEAD       : {head[:7] if head else '(no commits)'}")
    _print(f"Citations  : {'enabled' if manager.is_enabled else 'not enabled'}")
    if manager.is_enabled:
        _print(f"Cited paths: {len(manager.citation_function())}")
    status = repo.status()
    for label, paths in (
        ("modified", status.modified),
        ("deleted", status.deleted),
        ("untracked", status.untracked),
    ):
        for path in paths:
            _print(f"  {label}: {path}")
    if status.is_clean:
        _print("Working tree clean")
    return 0


def cmd_log(args: argparse.Namespace) -> int:
    """Show the commit history of the current branch."""
    repo, _ = _load(args)
    for info in repo.log(limit=args.limit):
        _print(f"{info.oid[:7]}  {info.commit.author.name:<20}  {info.summary}")
    return 0


def cmd_commit(args: argparse.Namespace) -> int:
    """Commit the working tree (including the maintained citation file)."""
    repo, manager = _load(args)
    oid = manager.commit(args.message, author_name=args.author, timestamp=now_utc())
    _save(repo, args.directory)
    _print(f"[{repo.current_branch}] {oid[:7]} {args.message or ''}".rstrip())
    return 0


def cmd_branch(args: argparse.Namespace) -> int:
    """List branches, or create one."""
    repo, _ = _load(args)
    if args.name:
        repo.create_branch(args.name)
        _save(repo, args.directory)
        _print(f"Created branch {args.name}")
        return 0
    for name, oid in sorted(repo.branches().items()):
        marker = "*" if name == repo.current_branch else " "
        _print(f"{marker} {name} {oid[:7]}")
    return 0


def cmd_checkout(args: argparse.Namespace) -> int:
    """Switch to a branch or version (moves the files on disk that differ)."""
    repo, _ = _load(args)
    files_head = repo.head_oid()
    oid = repo.checkout(args.ref, create_branch=args.create)
    _print_kept(save_checkout(repo, args.directory, files_head))
    _print(f"Checked out {args.ref} at {oid[:7]}")
    return 0


def cmd_move(args: argparse.Namespace) -> int:
    """Move/rename a file or directory, carrying its citations."""
    repo, manager = _load(args)
    if repo.file_exists(args.source):
        manager.move_file(args.source, args.destination)
    else:
        manager.move_directory(args.source, args.destination)
    _save(repo, args.directory)
    _print(f"Moved {args.source} -> {args.destination} (citations updated)")
    return 0


# ---------------------------------------------------------------------------
# Citation operators
# ---------------------------------------------------------------------------


def cmd_add_cite(args: argparse.Namespace) -> int:
    """AddCite: attach a citation to a path."""
    repo, manager = _load(args)
    manager.add_cite(args.path, _citation_from_args(args, manager))
    if args.commit:
        manager.commit(f"AddCite {args.path}", timestamp=now_utc())
    _save(repo, args.directory)
    _print(f"Attached citation to {args.path}")
    return 0


def cmd_del_cite(args: argparse.Namespace) -> int:
    """DelCite: remove the explicit citation of a path."""
    repo, manager = _load(args)
    manager.del_cite(args.path)
    if args.commit:
        manager.commit(f"DelCite {args.path}", timestamp=now_utc())
    _save(repo, args.directory)
    _print(f"Removed citation from {args.path}")
    return 0


def cmd_modify_cite(args: argparse.Namespace) -> int:
    """ModifyCite: replace the citation of a path."""
    repo, manager = _load(args)
    manager.modify_cite(args.path, _citation_from_args(args, manager))
    if args.commit:
        manager.commit(f"ModifyCite {args.path}", timestamp=now_utc())
    _save(repo, args.directory)
    _print(f"Modified citation of {args.path}")
    return 0


def cmd_gen_cite(args: argparse.Namespace) -> int:
    """GenCite: print the citation of a path (closest-ancestor resolution)."""
    _, manager = _load(args)
    resolved = manager.cite(args.path, ref=args.ref)
    _print(render(resolved.citation, args.format, cited_path=args.path).rstrip("\n"))
    if args.show_source:
        origin = "explicitly attached" if resolved.is_explicit else f"inherited from {resolved.source_path}"
        _print(f"# {origin}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Export a citation in a bibliographic format (optionally to a file)."""
    _, manager = _load(args)
    resolved = manager.cite(args.path, ref=args.ref)
    text = render(resolved.citation, args.format, cited_path=args.path)
    if args.output:
        atomicio.atomic_write_text(Path(args.output), text, durable=True)
        _print(f"Wrote {args.format} citation for {args.path} to {args.output}")
    else:
        _print(text.rstrip("\n"))
    return 0


def cmd_show_citations(args: argparse.Namespace) -> int:
    """List every explicit citation entry of the working tree."""
    _, manager = _load(args)
    for entry in manager.citation_function():
        kind = "dir " if entry.is_directory else "file"
        authors = ", ".join(entry.citation.authors)
        _print(f"{kind}  {entry.path:<40} {entry.citation.owner}/{entry.citation.repo_name} [{authors}]")
    return 0


# ---------------------------------------------------------------------------
# Citation-extended Git operations
# ---------------------------------------------------------------------------


def cmd_copy_cite(args: argparse.Namespace) -> int:
    """CopyCite: copy a directory (and its citations) from another working copy."""
    repo, manager = _load(args)
    source_repo = load_repository(args.source_directory)
    outcome = manager.copy_cite(
        source_repo, args.source_path, args.destination_path, source_ref=args.source_ref
    )
    if args.commit:
        manager.commit(
            f"CopyCite {args.source_path} from {source_repo.full_name}", timestamp=now_utc()
        )
    _save(repo, args.directory)
    _print(
        f"Copied {len(outcome.copied_files)} file(s) from {outcome.source}; "
        f"migrated {outcome.citation_result.migrated_count} citation entr(y/ies)"
    )
    return 0


def cmd_merge_cite(args: argparse.Namespace) -> int:
    """MergeCite: merge a branch, merging citation files the GitCite way."""
    repo, manager = _load(args)
    strategy = strategy_by_name(args.strategy)
    files_head = repo.head_oid()
    outcome = manager.merge_cite(args.branch, strategy=strategy, message=args.message)
    # The merge replaces the worktree with the merged tree, dropping
    # untracked files: move only what differs between the two commits.
    _print_kept(save_checkout(repo, args.directory, files_head))
    result = outcome.citation_result
    _print(
        f"Merged {args.branch} into {repo.current_branch} at {outcome.commit_oid[:7]} "
        f"({len(result.conflicts)} citation conflict(s), {result.auto_resolved_count} resolved, "
        f"{len(result.dropped_paths)} entr(y/ies) dropped)"
    )
    return 0


def cmd_fork_cite(args: argparse.Namespace) -> int:
    """ForkCite: fork the working copy into a new directory under a new owner."""
    repo, manager = _load(args)
    fork_manager = manager.fork_cite(args.owner, new_name=args.name)
    destination = Path(args.destination)
    if destination.exists() and any(destination.iterdir()):
        raise CLIError(f"destination {destination} exists and is not empty")
    _save(fork_manager.repo, destination)
    _print(
        f"Forked {repo.full_name} -> {fork_manager.repo.full_name} at {destination} "
        "(citations carried over)"
    )
    return 0


def cmd_retro_cite(args: argparse.Namespace) -> int:
    """Retro-cite: mine history and citation-enable an existing repository."""
    repo, _ = _load(args)
    report = retrofit(repo, granularity=args.granularity, url=args.url)
    _save(repo, args.directory)
    _print(
        f"Retroactively cited {repo.full_name}: {report.entries_created} entr(y/ies) at "
        f"{args.granularity} granularity from {report.commits_scanned} commit(s); "
        f"contributors: {', '.join(report.contributors) or repo.owner}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Check (and optionally repair) citation-function consistency."""
    repo, manager = _load(args)
    report = manager.repair() if args.repair else manager.validate()
    if args.repair:
        _save(repo, args.directory)
    if report.is_consistent:
        _print("Citation function is consistent with the working tree")
        return 0
    for violation in report.violations:
        _print(f"{violation.kind}: {violation.path} — {violation.detail}")
    if args.repair:
        _print(f"Repaired {len(report.violations)} violation(s)")
        return 0
    return 1
