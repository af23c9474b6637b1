"""The ``gitcite bundle`` subcommands: create / verify / unbundle.

A bundle file is the sync subsystem's wire payload written to disk
(:mod:`repro.vcs.transfer.bundle`): a self-contained, checksummed,
delta-compressed object stream plus the branch/tag tips it carries.  It is
the offline counterpart of push/fetch — create one from a working copy,
move it however you like, verify it anywhere, and unbundle it into another
working copy with the same fast-forward discipline a push obeys.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import BundleError, CLIError, RefError, RemoteError
from repro.utils import atomicio
from repro.vcs.transfer import (
    advertise_refs,
    apply_bundle,
    plan_bundle,
    read_bundle,
    update_refs_from_bundle,
    verify_bundle,
)
from repro.vcs.workingcopy import is_working_copy, load_repository, save_checkout

__all__ = ["cmd_bundle_create", "cmd_bundle_verify", "cmd_bundle_unbundle"]


def _print(message: str = "") -> None:
    sys.stdout.write(message + "\n")


def cmd_bundle_create(args: argparse.Namespace) -> int:
    """Write the working copy's history (or selected refs) as a bundle file.

    With ``--basis`` the bundle is *thin*: it assumes the receiver already
    has the basis commits and carries only what is newer — the negotiated
    push payload, reified as a file.
    """
    repo = load_repository(args.directory)
    advertisement = advertise_refs(repo)
    if args.refs:
        wants = []
        for ref in args.refs:
            try:
                wants.append(repo.resolve(ref))
            except RefError as exc:
                raise CLIError(str(exc)) from exc
    else:
        wants = sorted(advertisement.tips())
    if not wants:
        raise CLIError("nothing to bundle: the repository has no commits")
    haves = []
    for ref in args.basis or ():
        try:
            haves.append(repo.resolve(ref))
        except RefError as exc:
            raise CLIError(str(exc)) from exc
    plan, writer = plan_bundle(repo.store, wants, haves=haves, refs=advertisement)
    data = writer.getvalue()
    try:
        atomicio.atomic_write_bytes(Path(args.file), data, durable=True)
    except OSError as exc:
        raise CLIError(f"cannot write bundle file: {exc}") from exc
    thin = f", thin against {len(plan.boundary)} prerequisite(s)" if haves else ""
    _print(
        f"Wrote {args.file}: {writer.object_count} object(s), "
        f"{len(writer.branches)} branch(es), {len(writer.tags)} tag(s), "
        f"{len(data)} bytes{thin}"
    )
    return 0


def cmd_bundle_verify(args: argparse.Namespace) -> int:
    """Verify a bundle file: checksum, object hashes, and — inside a working
    copy — prerequisites and connectivity against the local store."""
    try:
        data = Path(args.file).read_bytes()
    except OSError as exc:
        raise CLIError(f"cannot read bundle file: {exc}") from exc
    store = None
    if is_working_copy(args.directory):
        store = load_repository(args.directory).store
    try:
        bundle = read_bundle(data)
        verify_bundle(store, bundle)
    except BundleError as exc:
        raise CLIError(f"bundle verification failed: {exc}") from exc
    scope = "against the local object store" if store is not None else "standalone (no working copy)"
    _print(
        f"{args.file} is valid {scope}: {bundle.object_count} object(s), "
        f"{len(bundle.prerequisites)} prerequisite(s), "
        f"branches: {', '.join(sorted(bundle.branches)) or '(none)'}"
    )
    return 0


def cmd_bundle_unbundle(args: argparse.Namespace) -> int:
    """Apply a bundle file to the working copy and update the refs it names.

    Branch updates are fast-forward-only unless ``--force``; a corrupt or
    inapplicable bundle changes nothing.
    """
    repo = load_repository(args.directory)
    try:
        data = Path(args.file).read_bytes()
    except OSError as exc:
        raise CLIError(f"cannot read bundle file: {exc}") from exc
    head = repo.head_oid()
    try:
        result = apply_bundle(repo.store, data)
        updated = update_refs_from_bundle(repo, result.bundle, force=args.force)
    except RemoteError as exc:
        # RemoteError covers both corrupt bundles (BundleError) and
        # non-fast-forward ref rejections — one consistent error shape.
        raise CLIError(f"bundle rejected: {exc}") from exc
    if repo.current_branch and repo.head_oid() != head:
        repo.checkout(repo.current_branch)  # the refs moved bare; check the branch out
    for path in save_checkout(repo, args.directory, head):
        _print(f"  kept local changes: {path}")
    moved = ", ".join(f"{name} -> {oid[:7]}" for name, oid in sorted(updated.items()))
    _print(
        f"Unbundled {args.file}: {result.objects_added} new object(s) of "
        f"{result.objects_total}; refs updated: {moved or '(none)'}"
    )
    return 0
