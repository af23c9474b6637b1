"""Committed working copies in the two layouts older releases wrote.

``tests/data/legacy-memory/`` embeds every object base64-encoded in
``state.json``; ``tests/data/legacy-loose/`` keeps one zlib-compressed file
per object under ``.gitcite/objects/ab/cdef…``.  Both hold the history
:func:`build_reference` makes and were written by
``save_repository(build_reference(), directory, storage=kind)`` at commit
``625e176``, the last one whose writer still produced them.  Nothing writes
these layouts any more: ``load_repository`` reads them, and the next save
converts the copy to ``pack``.

To rewrite them, copy this file into that commit's ``tests/`` and run, from
its root::

    PYTHONPATH=src:tests python -c 'from legacy_copies import write_with_old_writer; write_with_old_writer()'
"""

from __future__ import annotations

import shutil
from datetime import datetime, timezone
from pathlib import Path

from repro.citation.manager import CitationManager
from repro.utils.timeutil import FixedClock, set_clock
from repro.vcs.repository import Repository

DATA = Path(__file__).resolve().parent / "data"
LEGACY_KINDS = ("memory", "loose")


def fixture_path(kind: str) -> Path:
    return DATA / f"legacy-{kind}"


def copy_legacy(kind: str, destination: Path) -> Path:
    """A private copy of the committed ``kind`` fixture at ``destination``."""
    shutil.copytree(fixture_path(kind), destination, dirs_exist_ok=True)
    return destination


def build_reference() -> Repository:
    """The history both fixtures hold: two branches, an annotated tag, citations."""
    set_clock(FixedClock(datetime(2021, 3, 1, 9, 0, 0, tzinfo=timezone.utc), step_seconds=60))
    repo = Repository.init("legacy", "alice", description="a working copy in a legacy layout")
    repo.write_file("/a.txt", "alpha\n")
    repo.write_file("/docs/b.txt", "beta\n")
    repo.commit("c0", author_name="alice")
    manager = CitationManager(repo)
    manager.init_citations()
    manager.commit("enable citations")
    repo.write_file("/a.txt", "alpha two\n")
    repo.commit("c1", author_name="alice")
    repo.tag("v1", message="first release")
    repo.checkout("feature", create_branch=True)
    repo.write_file("/feature.txt", "feature work\n")
    repo.commit("feature work", author_name="alice")
    repo.checkout("main")
    return repo


def write_with_old_writer() -> None:
    """Rewrite both fixtures; needs commit 625e176's ``save_repository(storage=)``."""
    from repro.vcs.workingcopy import save_repository

    for kind in LEGACY_KINDS:
        shutil.rmtree(fixture_path(kind), ignore_errors=True)
        save_repository(build_reference(), fixture_path(kind), storage=kind)
