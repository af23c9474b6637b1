"""``gitcite storage`` maintenance commands (repack / gc).

The working-copy persistence these commands drive lives in
:mod:`repro.vcs.workingcopy`.
"""

from __future__ import annotations

import argparse
import sys

from repro.vcs.workingcopy import load_repository, reachable_from_refs, save_repository

__all__ = ["cmd_storage_repack", "cmd_storage_gc"]


def _print(message: str = "") -> None:
    sys.stdout.write(message + "\n")


def cmd_storage_repack(args: argparse.Namespace) -> int:
    """Repack the object store into a single optimised pack file.

    A legacy ``memory`` or ``loose`` working copy is saved (converted to
    packs) first, then all packs are rewritten as one with delta compression
    re-run.
    """
    repo = load_repository(args.directory)
    if repo.store.backend.kind != "pack":
        save_repository(repo, args.directory)
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
    save_repository(repo, args.directory)
    _print(f"Removed {removed} unreachable object(s); {len(repo.store)} kept")
    return 0
