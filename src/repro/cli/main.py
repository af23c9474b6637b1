"""Argument parsing and dispatch for the ``gitcite`` command-line tool."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import CLIError, ReproError
from repro.citation.conflict import available_strategies
from repro.formats import available_formats
from repro.cli import analyze, bundle, commands, fsck, serve, storage

__all__ = ["build_parser", "main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-C",
        "--directory",
        default=".",
        help="working-copy directory to operate on (default: current directory)",
    )


def _add_citation_fields(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--author", dest="authors", action="append",
                        help="author to credit (repeatable)")
    parser.add_argument("--title", help="title of the cited component")
    parser.add_argument("--doi", help="DOI to record in the citation")
    parser.add_argument("--version", help="version label to record")
    parser.add_argument("--url", help="URL to record (defaults to the repository URL)")
    parser.add_argument("--date", help="committed date to record (YYYY-MM-DDTHH:MM:SSZ)")
    parser.add_argument("--from-json", help="read the full citation record from a JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gitcite",
        description=(
            "GitCite: manage software citations in version-controlled project repositories. "
            "Implements AddCite/DelCite/ModifyCite/GenCite plus the citation-extended "
            "Git operations CopyCite, MergeCite and ForkCite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a gitcite working copy from a directory of files")
    _add_common(p)
    p.add_argument("--owner", required=True, help="repository owner (account name)")
    p.add_argument("--name", help="repository name (default: directory name)")
    p.add_argument("--description", help="repository description")
    p.add_argument("--message", help="initial commit message")
    p.add_argument("--allow-empty", action="store_true", help="commit even if the directory is empty")
    p.set_defaults(func=commands.cmd_init)

    p = sub.add_parser("enable", help="citation-enable the repository (create citation.cite)")
    _add_common(p)
    _add_citation_fields(p)
    p.add_argument("--overwrite", action="store_true", help="replace an existing citation.cite")
    p.set_defaults(func=commands.cmd_enable)

    p = sub.add_parser("status", help="show branch, HEAD and citation status")
    _add_common(p)
    p.set_defaults(func=commands.cmd_status)

    p = sub.add_parser("log", help="show commit history")
    _add_common(p)
    p.add_argument("--limit", type=int, default=None, help="maximum number of commits to show")
    p.set_defaults(func=commands.cmd_log)

    p = sub.add_parser("commit", help="commit the working tree (citation.cite included)")
    _add_common(p)
    p.add_argument("-m", "--message", required=True, help="commit message")
    p.add_argument("--author", help="author name")
    p.set_defaults(func=commands.cmd_commit)

    p = sub.add_parser("branch", help="list or create branches")
    _add_common(p)
    p.add_argument("name", nargs="?", help="branch name to create (omit to list)")
    p.set_defaults(func=commands.cmd_branch)

    p = sub.add_parser("checkout", help="switch to a branch or version")
    _add_common(p)
    p.add_argument("ref", help="branch, tag or commit id")
    p.add_argument("-b", "--create", action="store_true", help="create the branch first")
    p.set_defaults(func=commands.cmd_checkout)

    p = sub.add_parser("mv", help="move/rename a file or directory, carrying citations")
    _add_common(p)
    p.add_argument("source")
    p.add_argument("destination")
    p.set_defaults(func=commands.cmd_move)

    p = sub.add_parser("add-cite", help="AddCite: attach a citation to a path")
    _add_common(p)
    p.add_argument("path", help="repository path of the file or directory")
    _add_citation_fields(p)
    p.add_argument("--commit", action="store_true", help="commit immediately")
    p.set_defaults(func=commands.cmd_add_cite)

    p = sub.add_parser("del-cite", help="DelCite: remove the explicit citation of a path")
    _add_common(p)
    p.add_argument("path")
    p.add_argument("--commit", action="store_true", help="commit immediately")
    p.set_defaults(func=commands.cmd_del_cite)

    p = sub.add_parser("modify-cite", help="ModifyCite: replace the citation of a path")
    _add_common(p)
    p.add_argument("path")
    _add_citation_fields(p)
    p.add_argument("--commit", action="store_true", help="commit immediately")
    p.set_defaults(func=commands.cmd_modify_cite)

    p = sub.add_parser("gen-cite", help="GenCite: print the citation of a path")
    _add_common(p)
    p.add_argument("path")
    p.add_argument("--ref", help="cite a specific version instead of the working tree")
    p.add_argument("--format", default="text", choices=available_formats())
    p.add_argument("--show-source", action="store_true",
                   help="also print whether the citation was inherited from an ancestor")
    p.set_defaults(func=commands.cmd_gen_cite)

    p = sub.add_parser("export", help="export a citation in a bibliographic format")
    _add_common(p)
    p.add_argument("path")
    p.add_argument("--ref", help="cite a specific version instead of the working tree")
    p.add_argument("--format", default="bibtex", choices=available_formats())
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=commands.cmd_export)

    p = sub.add_parser("citations", help="list every explicit citation entry")
    _add_common(p)
    p.set_defaults(func=commands.cmd_show_citations)

    p = sub.add_parser("copy-cite", help="CopyCite: copy a directory and its citations from another working copy")
    _add_common(p)
    p.add_argument("source_directory", help="path of the source gitcite working copy")
    p.add_argument("source_path", help="directory inside the source repository to copy")
    p.add_argument("destination_path", help="destination directory inside this repository")
    p.add_argument("--source-ref", default="HEAD", help="source version to copy from")
    p.add_argument("--commit", action="store_true", help="commit immediately")
    p.set_defaults(func=commands.cmd_copy_cite)

    p = sub.add_parser("merge-cite", help="MergeCite: merge a branch, merging citation files")
    _add_common(p)
    p.add_argument("branch", help="branch to merge into the current branch")
    p.add_argument("--strategy", default="theirs", choices=available_strategies(),
                   help="conflict-resolution strategy for citation conflicts")
    p.add_argument("-m", "--message", help="merge commit message")
    p.set_defaults(func=commands.cmd_merge_cite)

    p = sub.add_parser("fork-cite", help="ForkCite: fork into a new working copy under a new owner")
    _add_common(p)
    p.add_argument("destination", help="directory for the forked working copy")
    p.add_argument("--owner", required=True, help="owner of the fork")
    p.add_argument("--name", help="name of the fork (default: same name)")
    p.set_defaults(func=commands.cmd_fork_cite)

    p = sub.add_parser("retro-cite", help="mine history and citation-enable an existing repository")
    _add_common(p)
    p.add_argument("--granularity", default="directory", choices=("root", "directory", "file"))
    p.add_argument("--url", help="repository URL to record in the root citation")
    p.set_defaults(func=commands.cmd_retro_cite)

    p = sub.add_parser("validate", help="check citation-function consistency")
    _add_common(p)
    p.add_argument("--repair", action="store_true", help="apply unambiguous repairs")
    p.set_defaults(func=commands.cmd_validate)

    p = sub.add_parser("fsck", help="verify store integrity (objects, indexes, refs, citations)")
    _add_common(p)
    p.add_argument("--repair", action="store_true",
                   help="quarantine corrupt objects/packs, salvage what verifies, rebuild indexes")
    p.set_defaults(func=fsck.cmd_fsck)

    p = sub.add_parser(
        "serve",
        help="host the working copy over HTTP (REST API incl. the git sync endpoints)",
    )
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1", help="interface to bind (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8943,
                   help="TCP port to listen on (0 = ephemeral; default: 8943)")
    p.add_argument("--no-rate-limit", action="store_true",
                   help="disable the GitHub-style request quotas")
    p.add_argument("--write-behind", action="store_true",
                   help="batch journal fsyncs instead of syncing every acknowledged "
                        "push (higher throughput, bounded loss window on kill -9)")
    p.add_argument("--flush-every", type=int, default=8,
                   help="write-behind mode: fsync the journal every N records (default: 8)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="concurrent requests before shedding with retryable 503 (default: 64)")
    p.add_argument("--max-body-mb", type=int, default=64,
                   help="largest request body accepted, in MiB (default: 64)")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="socket timeout (also the keep-alive idle limit) and per-request "
                        "deadline, seconds (default: 30)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to wait for in-flight requests at shutdown (default: 10)")
    p.set_defaults(func=serve.cmd_serve)

    p = sub.add_parser(
        "analyze",
        help="run the static invariant rules (layering, locks, durability, ...) over this tree",
    )
    p.add_argument("--root", help="repository root to analyze (default: this installation's tree)")
    p.add_argument("--rule", dest="rules", action="append",
                   help="rule id to run (repeatable; default: all rules)")
    p.add_argument("--baseline", action="store_true",
                   help="accept the current findings into tools/analysis_baseline.json")
    p.add_argument("--list-rules", action="store_true", help="list the registered rules and exit")
    p.set_defaults(func=analyze.cmd_analyze)

    p = sub.add_parser("storage", help="object-store maintenance (repack / gc)")
    storage_sub = p.add_subparsers(dest="storage_command", required=True)

    sp = storage_sub.add_parser(
        "repack",
        help="rewrite the object store as one delta-compressed pack file "
             "(a legacy memory/loose working copy is converted to packs first)",
    )
    _add_common(sp)
    sp.set_defaults(func=storage.cmd_storage_repack)

    sp = storage_sub.add_parser("gc", help="drop objects unreachable from any branch, tag or HEAD")
    _add_common(sp)
    sp.set_defaults(func=storage.cmd_storage_gc)

    p = sub.add_parser("bundle", help="create, verify or apply transfer bundle files")
    bundle_sub = p.add_subparsers(dest="bundle_command", required=True)

    sp = bundle_sub.add_parser(
        "create",
        help="write the repository history (or selected refs) as a bundle file",
    )
    _add_common(sp)
    sp.add_argument("file", help="bundle file to write")
    sp.add_argument("--ref", dest="refs", action="append",
                    help="branch/tag/commit to bundle (repeatable; default: all refs)")
    sp.add_argument("--basis", dest="basis", action="append",
                    help="assume the receiver has this ref (repeatable; makes a thin bundle)")
    sp.set_defaults(func=bundle.cmd_bundle_create)

    sp = bundle_sub.add_parser(
        "verify",
        help="check a bundle file (checksum, object hashes, applicability)",
    )
    _add_common(sp)
    sp.add_argument("file", help="bundle file to verify")
    sp.set_defaults(func=bundle.cmd_bundle_verify)

    sp = bundle_sub.add_parser(
        "unbundle",
        help="apply a bundle file to the working copy (fast-forward refs)",
    )
    _add_common(sp)
    sp.add_argument("file", help="bundle file to apply")
    sp.add_argument("--force", action="store_true",
                    help="allow non-fast-forward branch updates and tag moves")
    sp.set_defaults(func=bundle.cmd_bundle_unbundle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``gitcite`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        sys.stderr.write(f"gitcite: error: {exc}\n")
        return exc.exit_code
    except ReproError as exc:
        sys.stderr.write(f"gitcite: error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
