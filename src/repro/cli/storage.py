"""``gitcite storage`` maintenance commands (repack / gc / migrate).

The working-copy persistence these commands drive lives in
:mod:`repro.vcs.workingcopy`.
"""

from __future__ import annotations

import argparse
import sys

from repro.vcs.workingcopy import load_repository, reachable_from_refs, save_repository, switch_storage

__all__ = ["cmd_storage_repack", "cmd_storage_gc", "cmd_storage_migrate"]


def _print(message: str = "") -> None:
    sys.stdout.write(message + "\n")


def cmd_storage_repack(args: argparse.Namespace) -> int:
    """Repack the object store into a single optimised pack file.

    A working copy on the ``memory`` or ``loose`` layout is converted to the
    ``pack`` layout first (that *is* what packing loose objects means), then
    all packs are rewritten as one with delta compression re-run.
    """
    repo = load_repository(args.directory)
    if repo.store.backend.kind != "pack":
        switch_storage(repo, args.directory, "pack")  # writes the state file
    repo.store.flush()
    report = repo.store.backend.repack()
    _print(
        f"Repacked {report['objects_after']} object(s): "
        f"{report['packs_before']} pack(s) -> {report['packs_after']}, "
        f"{report['disk_bytes_before']} -> {report['disk_bytes_after']} bytes on disk"
    )
    return 0


def cmd_storage_gc(args: argparse.Namespace) -> int:
    """Drop every object unreachable from any branch, tag or HEAD."""
    repo = load_repository(args.directory)
    keep = reachable_from_refs(repo)
    removed = repo.store.gc(keep)
    save_repository(repo, args.directory, export_files=False)
    _print(f"Removed {removed} unreachable object(s); {len(repo.store)} kept")
    return 0


def cmd_storage_migrate(args: argparse.Namespace) -> int:
    """Switch the working copy to a different storage layout in place."""
    repo = load_repository(args.directory)
    source_kind = repo.store.backend.kind
    moved = switch_storage(repo, args.directory, args.to)
    if source_kind != args.to:
        _print(f"Migrated {moved} object(s) from {source_kind!r} to {args.to!r} storage")
    else:
        _print(f"Already on {args.to!r} storage; nothing to migrate")
    return 0
