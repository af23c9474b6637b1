"""Benchmark runner: measure the hot paths and emit ``BENCH_results.json``.

Each scenario times a *baseline* implementation (a faithful copy of the
seed's code path) against the *optimized* implementation now in the tree, on
identical inputs, and verifies that both produce identical outputs.  The
machine-readable results file gives this and future PRs a recorded
performance trajectory::

    PYTHONPATH=src python benchmarks/run_all.py           # scenarios only
    PYTHONPATH=src python benchmarks/run_all.py --full    # + pytest-benchmark suite

Output schema (``BENCH_results.json`` at the repository root)::

    {
      "schema": 1,
      "generated_at": "<iso timestamp>",
      "python": "<interpreter version>",
      "results": {
        "<scenario>": {
          "baseline_s": float,     # seed code path, same inputs
          "optimized_s": float,    # current code path
          "speedup": float,        # baseline_s / optimized_s
          "outputs_identical": true,
          ...scenario-specific fields...
        }
      }
    }

See PERFORMANCE.md for what each scenario exercises and how to read the
numbers.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.citation.citefile import CITATION_FILE_PATH, load_citation_bytes  # noqa: E402
from repro.cli.storage import load_repository, save_repository  # noqa: E402
from repro.citation.retro import AttributionIndex, FileAttribution  # noqa: E402
from repro.errors import RemoteError, ValidationError  # noqa: E402
from repro.hub.api import RestApi  # noqa: E402
from repro.hub.durability import PushJournal, journal_path, recover_working_copy  # noqa: E402
from repro.hub.httpd import HttpTransport, HubHttpServer  # noqa: E402
from repro.hub.ratelimit import RateLimiter  # noqa: E402
from repro.hub.retry import RetryingApi, RetryPolicy  # noqa: E402
from repro.hub.server import HostingPlatform  # noqa: E402
from repro.hub.sync import HubRemote  # noqa: E402
from repro.vcs.merge import is_ancestor_commit  # noqa: E402
from repro.utils.hashing import object_id  # noqa: E402
from repro.utils.jsonutil import stable_loads  # noqa: E402
from repro.utils.paths import ROOT, is_ancestor, path_parent  # noqa: E402
from repro.utils.timeutil import FixedClock, reset_clock, set_clock  # noqa: E402
from repro.vcs.fsck import fsck_working_copy  # noqa: E402
from repro.vcs import object_store as object_store_module  # noqa: E402
from repro.vcs.object_store import ObjectStore  # noqa: E402
from repro.vcs.objects import MODE_FILE, Blob, Commit, Signature, deserialize_object  # noqa: E402
from repro.vcs.merge import commit_ancestors  # noqa: E402
from repro.vcs.remote import clone_repository, push, sync_objects  # noqa: E402
from repro.vcs.transfer import apply_bundle, common_tips, create_bundle  # noqa: E402
from repro.vcs.treeops import flatten_tree  # noqa: E402
from repro.vcs.repository import Repository  # noqa: E402
from repro.vcs.storage import MemoryBackend, make_backend  # noqa: E402
from repro.vcs.storage.pack import PackBackend  # noqa: E402
from repro.vcs.treeops import build_tree  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    WorkloadConfig,
    generate_citation,
    generate_citation_function,
    generate_repository,
    generate_tree_paths,
)

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_results.json"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def bench_bulk_addcite(num_operations: int = 1000) -> dict:
    """1k AddCite through the manager: write-through vs ``batch()``.

    The seed persisted ``citation.cite`` after every operator, making a bulk
    load quadratic in the number of citations; a batch defers to one write.
    """

    def build():
        workload = generate_repository(
            WorkloadConfig(seed=31, num_files=num_operations + 120, citation_density=0.0)
        )
        rng = random.Random(99)
        targets = workload.file_paths[:num_operations]
        citations = [
            generate_citation(rng, repo_name=workload.repo.name) for _ in targets
        ]
        return workload, targets, citations

    plain, plain_targets, plain_citations = build()

    def run_plain():
        for path, citation in zip(plain_targets, plain_citations):
            plain.manager.add_cite(path, citation)

    baseline_s = _timed(run_plain)

    batched, batch_targets, batch_citations = build()

    def run_batched():
        with batched.manager.batch():
            for path, citation in zip(batch_targets, batch_citations):
                batched.manager.add_cite(path, citation)

    optimized_s = _timed(run_batched)

    identical = plain.repo.read_file(CITATION_FILE_PATH) == batched.repo.read_file(
        CITATION_FILE_PATH
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "operations": num_operations,
    }


def bench_cite_at_ref(num_calls: int = 300) -> dict:
    """Repeated ``cite(path, ref)``: per-call re-parse vs the blob-oid cache."""
    workload = generate_repository(WorkloadConfig(seed=42, num_files=800, citation_density=0.3))
    manager = workload.manager
    repo = workload.repo
    ref = repo.head_oid()
    probes = workload.file_paths[::7][:50]

    def seed_cite(path: str, at: str):
        # The seed's cite(path, ref): read the committed bytes and parse them
        # on every single call.
        return load_citation_bytes(repo.read_file_at(at, CITATION_FILE_PATH)).resolve(path)

    baseline_results = []

    def run_baseline():
        for i in range(num_calls):
            baseline_results.append(seed_cite(probes[i % len(probes)], ref))

    baseline_s = _timed(run_baseline)

    manager._parse_cache.clear()
    optimized_results = []

    def run_optimized():
        for i in range(num_calls):
            optimized_results.append(manager.cite(probes[i % len(probes)], ref))

    optimized_s = _timed(run_optimized)

    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": baseline_results == optimized_results,
        "calls": num_calls,
    }


def bench_incremental_write_tree(num_files: int = 800, rounds: int = 20) -> dict:
    """Tree materialisation per commit: full rebuild vs dirty-path reuse."""
    workload = generate_repository(WorkloadConfig(seed=71, num_files=num_files))
    repo = workload.repo
    baseline_s = 0.0
    optimized_s = 0.0
    identical = True
    for round_number in range(rounds):
        repo.write_file("/bench_probe.txt", f"revision {round_number}\n")
        repo.add()
        entries = repo.index.entries()
        start = time.perf_counter()
        full_oid = build_tree(repo.store, entries)
        baseline_s += time.perf_counter() - start
        start = time.perf_counter()
        incremental_oid = repo.index.write_tree(repo.store)
        optimized_s += time.perf_counter() - start
        identical = identical and full_oid == incremental_oid
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "files": num_files,
        "rounds": rounds,
    }


def bench_resolve_prefix(num_objects: int = 20000, num_resolves: int = 200) -> dict:
    """Abbreviated-id resolution: full scan vs the sorted-id bisect index."""
    store = ObjectStore()
    oids = [store.put(Blob(f"object {i}\n".encode())) for i in range(num_objects)]
    probes = [oid[:12] for oid in oids[:: max(1, num_objects // num_resolves)]][:num_resolves]

    def seed_resolve(prefix: str) -> str:
        matches = [oid for oid in oids if oid.startswith(prefix)]
        if len(matches) != 1:
            raise AssertionError(f"unexpected match count for {prefix!r}")
        return matches[0]

    baseline_results = []

    def run_baseline():
        for prefix in probes:
            baseline_results.append(seed_resolve(prefix))

    baseline_s = _timed(run_baseline)

    optimized_results = []

    def run_optimized():
        for prefix in probes:
            optimized_results.append(store.resolve_prefix(prefix))

    optimized_s = _timed(run_optimized)

    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": baseline_results == optimized_results,
        "objects": num_objects,
        "resolves": num_resolves,
    }


def bench_entries_under(num_files: int = 15000, num_queries: int = 300) -> dict:
    """Subtree queries on the citation function: full sort+scan vs bisect range."""
    rng = random.Random(5)
    paths = generate_tree_paths(rng, num_files, max_depth=6, branching=6)
    function, cited = generate_citation_function(random.Random(5), paths, density=0.3)
    directories = sorted({path_parent(p) for p in cited if path_parent(p) != ROOT})
    queries = directories[:: max(1, len(directories) // num_queries)][:num_queries]

    domain = function.active_domain()

    def seed_entries_under(prefix: str):
        selected = []
        for path in sorted(domain):
            if path == prefix or is_ancestor(prefix, path):
                selected.append(function.entry(path))
        return selected

    baseline_results = []

    def run_baseline():
        for prefix in queries:
            baseline_results.append([e.path for e in seed_entries_under(prefix)])

    baseline_s = _timed(run_baseline)

    optimized_results = []

    def run_optimized():
        for prefix in queries:
            optimized_results.append(
                [e.path for e in function.entries_under(prefix, include_prefix=True)]
            )

    optimized_s = _timed(run_optimized)

    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": baseline_results == optimized_results,
        "explicit_entries": len(function),
        "queries": len(queries),
    }


def bench_retro_directory_authors(num_files: int = 1500, num_authors: int = 60) -> dict:
    """Per-directory attribution: list membership scans vs ordered-set buckets."""
    rng = random.Random(11)
    paths = generate_tree_paths(rng, num_files, max_depth=5, branching=6)
    authors = [f"contributor-{i}" for i in range(num_authors)]
    index = AttributionIndex()
    for path in paths:
        attribution = FileAttribution(path=path)
        for author in rng.sample(authors, k=rng.randint(1, 12)):
            attribution.add_author(author)
        index.files[path] = attribution

    def seed_directory_authors() -> dict[str, list[str]]:
        directories: dict[str, list[str]] = {ROOT: []}
        for attribution in index.files.values():
            parent = path_parent(attribution.path)
            while True:
                bucket = directories.setdefault(parent, [])
                for author in attribution.authors:
                    if author not in bucket:
                        bucket.append(author)
                if parent == ROOT:
                    break
                parent = path_parent(parent)
        return directories

    holder: dict[str, dict] = {}
    baseline_s = _timed(lambda: holder.__setitem__("baseline", seed_directory_authors()))
    optimized_s = _timed(lambda: holder.__setitem__("optimized", index.directory_authors()))
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": holder["baseline"] == holder["optimized"],
        "files": num_files,
        "authors": num_authors,
    }


# ---------------------------------------------------------------------------
# Storage-backend scenarios (PR 2)
# ---------------------------------------------------------------------------

#: Every commit in the storage scenarios is pinned to one timestamp so the
#: three backends produce byte-identical histories (the identity check).
_STORAGE_STAMP = datetime(2018, 9, 1, 12, 0, 0, tzinfo=timezone.utc)
_STORAGE_KINDS = ("memory", "loose", "pack")


def _build_storage_repo(storage, num_files: int, num_commits: int) -> Repository:
    repo = Repository.init("bench", "alice", storage=storage)
    body = "".join(f"x{i} = {i}\n" for i in range(25))
    for i in range(num_files):
        repo.write_file(f"src/pkg{i % 20}/module_{i}.py", f"# module {i}\n{body}")
    repo.commit("initial", author_name="alice", timestamp=_STORAGE_STAMP)
    for round_number in range(num_commits):
        for slot in range(10):
            index = (round_number * 10 + slot) % num_files
            repo.write_file(
                f"src/pkg{index % 20}/module_{index}.py",
                f"# module {index} revision {round_number}\n{body}",
            )
        repo.commit(f"round {round_number}", author_name="alice", timestamp=_STORAGE_STAMP)
    return repo


def bench_storage_bulk_commit(num_files: int = 300, num_commits: int = 15) -> dict:
    """Bulk commits per backend: one file per object (loose) vs buffered packs.

    ``baseline_s`` is the loose layout (the natural on-disk design), and
    ``optimized_s`` the pack layout; the in-memory time is reported alongside
    as the floor.  All three must end on the identical head commit.
    """
    timings: dict[str, float] = {}
    heads: dict[str, str] = {}
    disk_bytes: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in _STORAGE_KINDS:
            storage = None if kind == "memory" else make_backend(kind, Path(tmp) / kind)
            holder: dict[str, Repository] = {}

            def run(storage=storage, holder=holder):
                repo = _build_storage_repo(storage, num_files, num_commits)
                repo.store.flush()
                holder["repo"] = repo

            timings[kind] = _timed(run)
            heads[kind] = holder["repo"].head_oid()
            stats = holder["repo"].store.backend.stats()
            disk_bytes[kind] = stats.get("disk_bytes", stats.get("payload_bytes", 0))
    return {
        "baseline_s": timings["loose"],
        "optimized_s": timings["pack"],
        "speedup": timings["loose"] / timings["pack"],
        "outputs_identical": len(set(heads.values())) == 1,
        "memory_s": timings["memory"],
        "loose_s": timings["loose"],
        "pack_s": timings["pack"],
        "disk_bytes": disk_bytes,
        "files": num_files,
        "commits": num_commits + 1,
    }


def bench_storage_cold_open(num_files: int = 250, num_commits: int = 40) -> dict:
    """Cold open of a saved working copy (load + full HEAD snapshot) per layout.

    ``baseline_s`` is the seed's format (every object embedded base64 in
    ``state.json``); ``optimized_s`` is the pack layout, which only touches
    the fanout indexes plus the objects the snapshot actually reads.
    """
    source = _build_storage_repo(None, num_files, num_commits)
    timings: dict[str, float] = {}
    snapshots: dict[str, dict] = {}
    heads: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in _STORAGE_KINDS:
            directory = Path(tmp) / f"working-copy-{kind}"
            save_repository(clone_repository(source), directory, storage=kind)
            holder: dict[str, object] = {}

            def run(directory=directory, holder=holder):
                repo = load_repository(directory)
                holder["snapshot"] = repo.snapshot()
                holder["head"] = repo.head_oid()

            timings[kind] = _timed(run)
            snapshots[kind] = holder["snapshot"]
            heads[kind] = holder["head"]
    identical = (
        len(set(heads.values())) == 1
        and snapshots["memory"] == snapshots["loose"] == snapshots["pack"]
    )
    return {
        "baseline_s": timings["memory"],
        "optimized_s": timings["pack"],
        "speedup": timings["memory"] / timings["pack"],
        "outputs_identical": identical,
        "memory_s": timings["memory"],
        "loose_s": timings["loose"],
        "pack_s": timings["pack"],
        "files": num_files,
        "commits": num_commits + 1,
    }


# ---------------------------------------------------------------------------
# Indexed-worktree + multi-pack scenarios (PR 3)
# ---------------------------------------------------------------------------


def bench_commit_touch_one(num_files: int = 5000, rounds: int = 8) -> dict:
    """Commit after touching 1 file of ``num_files``: seed path vs O(changed).

    The seed scanned the whole worktree per ``write_file``, re-hashed every
    blob in ``add()`` and rebuilt every tree; the indexed worktree's
    fingerprint cache plus the incremental tree builder hash exactly the
    dirty file and its directory chain.  Both sides produce the identical
    commit chain (head oids compared).
    """
    stamp = _STORAGE_STAMP
    signature = Signature(name="alice", email="alice@example.org", timestamp=stamp)
    body = "".join(f"value_{i} = {i}\n" for i in range(120))

    def build() -> Repository:
        repo = Repository.init("bench", "alice")
        repo.write_files(
            {f"/src/pkg{i % 40}/module_{i}.py": f"# module {i}\n{body}" for i in range(num_files)}
        )
        repo.commit("initial", author=signature)
        return repo

    def touched(round_number: int) -> tuple[str, bytes]:
        index = round_number * 37 % num_files
        path = f"/src/pkg{index % 40}/module_{index}.py"
        return path, f"# module {index} touched {round_number}\n{body}".encode()

    baseline = build()

    def run_baseline():
        for round_number in range(rounds):
            path, payload = touched(round_number)
            # Seed write_file: O(n) invariant scan over every worktree path.
            for existing in baseline.worktree:
                if is_ancestor(path, existing) or is_ancestor(existing, path):
                    raise AssertionError("unexpected conflict")
            baseline.worktree[path] = payload
            # Seed add(): construct, hash and put every blob, every commit.
            entries = {
                p: (baseline.store.put(Blob(baseline.worktree[p])), MODE_FILE)
                for p in sorted(baseline.worktree)
            }
            baseline.index.replace(entries)
            # Seed write_tree: rebuild and re-hash every tree object.
            tree_oid = build_tree(baseline.store, entries)
            commit = Commit(
                tree_oid=tree_oid,
                parent_oids=(baseline.head_oid(),),
                author=signature,
                committer=signature,
                message=f"touch {round_number}",
            )
            baseline.refs.advance_head(baseline.store.put(commit))

    baseline_s = _timed(run_baseline)

    optimized = build()

    def run_optimized():
        for round_number in range(rounds):
            path, payload = touched(round_number)
            optimized.write_file(path, payload)
            optimized.commit(f"touch {round_number}", author=signature)

    optimized_s = _timed(run_optimized)

    identical = (
        baseline.head_oid() == optimized.head_oid()
        and baseline.snapshot() == optimized.snapshot()
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "files": num_files,
        "commits": rounds,
    }


def bench_single_write_file(num_files: int = 2500, num_writes: int = 150) -> dict:
    """Single-file writes into a large worktree: O(n) scan vs indexed probes."""
    base_files = {
        f"/src/pkg{i % 30}/module_{i}.py": f"# module {i}\n".encode() for i in range(num_files)
    }

    def new_writes() -> list[tuple[str, bytes]]:
        return [
            (f"/src/pkg{i % 30}/new_{i}.py", f"# new {i}\n".encode())
            for i in range(num_writes)
        ]

    # Seed write_file against a plain dict (the faithful seed code path).
    seed_worktree = dict(base_files)

    def seed_write(path: str, payload: bytes) -> None:
        for existing in seed_worktree:
            if is_ancestor(path, existing):
                raise AssertionError(f"{path!r} is a directory")
            if is_ancestor(existing, path):
                raise AssertionError(f"{existing!r} is a file")
        seed_worktree[path] = payload

    def run_baseline():
        for path, payload in new_writes():
            seed_write(path, payload)

    baseline_s = _timed(run_baseline)

    repo = Repository.init("bench", "alice")
    repo.write_files(base_files)

    def run_optimized():
        for path, payload in new_writes():
            repo.write_file(path, payload)

    optimized_s = _timed(run_optimized)

    identical = dict(repo.worktree) == seed_worktree
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "files": num_files,
        "writes": num_writes,
    }


def bench_multipack_cold_open(
    num_packs: int = 16, objects_per_pack: int = 100, num_reads: int = 800, repeats: int = 5
) -> dict:
    """Cold-open reads as packs accumulate: per-pack probing vs the midx.

    ``baseline_s`` opens a 16-pack store the pre-midx way (load every pack's
    own index, probe packs one by one per lookup); ``optimized_s`` is the
    same store through the multi-pack index.  ``single_pack_s`` is the same
    object population repacked into one pack — the midx keeps the multi-pack
    open within a small factor of it (``ratio_multi_vs_single``).
    """
    payloads: list[tuple[str, bytes]] = []
    for i in range(num_packs * objects_per_pack):
        payload = (f"object {i}\n" + "filler " * (20 + i % 60)).encode()
        payloads.append((object_id("blob", payload), payload))

    def populate(root: Path, flush_every: int) -> None:
        backend = PackBackend(root)
        for position, (oid, payload) in enumerate(payloads, start=1):
            backend.write(oid, "blob", payload)
            if position % flush_every == 0:
                backend.flush()
        backend.close()

    # Repeat the probe list so lookup/open cost dominates over noise: the
    # whole cold-open is a handful of milliseconds.
    base_probe = [oid for oid, _ in payloads][:: max(1, len(payloads) // 200)][:200]
    probe = (base_probe * ((num_reads // len(base_probe)) + 1))[:num_reads]

    def cold_open(root: Path, use_midx: bool) -> list[bytes]:
        backend = PackBackend(root, use_midx=use_midx)
        contents = [backend.read(oid)[1] for oid in probe]
        backend.close()
        return contents

    with tempfile.TemporaryDirectory() as tmp:
        multi_root = Path(tmp) / "multi"
        single_root = Path(tmp) / "single"
        populate(multi_root, flush_every=objects_per_pack)
        populate(single_root, flush_every=len(payloads))
        variants = (
            ("baseline", multi_root, False),
            ("optimized", multi_root, True),
            ("single", single_root, True),
        )
        outputs: dict[str, list[bytes]] = {}
        timings: dict[str, float] = {key: float("inf") for key, _, _ in variants}
        # Interleaved best-of-N: each repeat measures all three variants
        # back to back, so background noise cannot bias one side, and the
        # minimum is the least-disturbed observation of each.
        for _ in range(repeats):
            for key, root, use_midx in variants:
                holder: dict[str, list[bytes]] = {}
                elapsed = _timed(
                    lambda r=root, m=use_midx: holder.__setitem__("out", cold_open(r, m))
                )
                timings[key] = min(timings[key], elapsed)
                outputs[key] = holder["out"]

    identical = outputs["baseline"] == outputs["optimized"] == outputs["single"]
    return {
        "baseline_s": timings["baseline"],
        "optimized_s": timings["optimized"],
        "speedup": timings["baseline"] / timings["optimized"],
        "outputs_identical": identical,
        "single_pack_s": timings["single"],
        "ratio_multi_vs_single": timings["optimized"] / timings["single"],
        "packs": num_packs,
        "objects": len(payloads),
        "reads": len(probe),
    }


def bench_checkout_switch(num_files: int = 5000, num_changed: int = 25, switches: int = 6) -> dict:
    """Branch switching on a 5k-file tree: eager blob loads vs the lazy view.

    The seed's ``_load_worktree`` called ``get_blob`` for every file of the
    target commit on each checkout; the lazy worktree installs oid-backed
    entries and reads a blob only when its path is first accessed.  Both
    sides perform ``switches`` checkouts between two versions differing in
    ``num_changed`` files and then read exactly the changed files — the
    realistic post-switch working set.  Blob reads are counted on both
    sides; full materialisation at the end must be byte-identical.
    """
    stamp = _STORAGE_STAMP
    signature = Signature(name="alice", email="alice@example.org", timestamp=stamp)
    body = "".join(f"value_{i} = {i}\n" for i in range(40))

    source = Repository.init("bench", "alice")
    source.write_files(
        {f"/src/pkg{i % 40}/module_{i}.py": f"# module {i}\n{body}" for i in range(num_files)}
    )
    base_oid = source.commit("base", author=signature)
    changed_paths = [
        f"/src/pkg{(i * 7) % 40}/module_{i * 7 % num_files}.py" for i in range(num_changed)
    ]
    source.write_files({path: f"# edited\n{body}" for path in changed_paths})
    tip_oid = source.commit("tip", author=signature)
    targets = (base_oid, tip_oid)

    def count_blob_reads(repo, counter):
        original_get_blob = repo.store.get_blob
        original_get_blobs = repo.store.get_blobs

        def counting_get_blob(oid):
            counter["n"] += 1
            return original_get_blob(oid)

        def counting_get_blobs(oids):
            blobs = original_get_blobs(oids)
            counter["n"] += len(blobs)
            return blobs

        repo.store.get_blob = counting_get_blob
        repo.store.get_blobs = counting_get_blobs

    from repro.vcs.treeops import flatten_files
    from repro.vcs.worktree_state import WorktreeState

    def eager_load(repo, commit_oid):
        # The seed's checkout load path: materialise every blob of the tree.
        repo.refs.detach_head(commit_oid)
        commit = repo.store.get_commit(commit_oid)
        files = flatten_files(repo.store, commit.tree_oid)
        state = WorktreeState()
        state.load_committed(
            (path, repo.store.get_blob(oid).data, oid) for path, (oid, _) in files.items()
        )
        repo._worktree = state
        repo.index.read_tree(repo.store, commit.tree_oid)
        repo._notify_worktree_reload()

    baseline = clone_repository(source)
    baseline_reads = {"n": 0}
    count_blob_reads(baseline, baseline_reads)

    def run_baseline():
        for i in range(switches):
            eager_load(baseline, targets[i % 2])
            for path in changed_paths:
                baseline.read_file(path)

    baseline_s = _timed(run_baseline)

    optimized = clone_repository(source)
    optimized_reads = {"n": 0}
    count_blob_reads(optimized, optimized_reads)

    def run_optimized():
        for i in range(switches):
            optimized.checkout(targets[i % 2])
            for path in changed_paths:
                optimized.read_file(path)

    optimized_s = _timed(run_optimized)
    # Snapshot the read counters before the identity check below: the full
    # materialisation it performs is verification, not part of the workload.
    baseline_read_count = baseline_reads["n"]
    optimized_read_count = optimized_reads["n"]

    # Identity: fully materialising the lazy view yields the eager bytes.
    identical = (
        dict(optimized.worktree.items()) == dict(baseline.worktree)
        and optimized.head_oid() == baseline.head_oid()
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "baseline_blob_reads": baseline_read_count,
        "optimized_blob_reads": optimized_read_count,
        "blob_read_ratio": optimized_read_count / baseline_read_count,
        "files": num_files,
        "changed": num_changed,
        "switches": switches,
    }


# ---------------------------------------------------------------------------
# Sync-subsystem scenarios (PR 5)
# ---------------------------------------------------------------------------


def _seed_full_history_offer(store, tip) -> set[str]:
    """The seed's transfer planning: flatten every tree of every ancestor."""
    reachable: set[str] = set()
    for ancestor in commit_ancestors(store, tip):
        if ancestor in reachable:
            continue
        reachable.add(ancestor)
        commit = store.get_commit(ancestor)
        for _path, (oid, _mode) in flatten_tree(store, commit.tree_oid).items():
            reachable.add(oid)
    return reachable


def bench_push_incremental(num_files: int = 5000, history_commits: int = 50) -> dict:
    """Push 1 new commit on a 5k-file / 50-commit history: seed vs negotiated.

    The seed's push re-walked the *entire* commit history (flattening every
    ancestor tree) and offered every reachable object on each push; the sync
    subsystem negotiates haves/wants and moves a thin bundle of O(changed)
    objects.  Both remotes must end byte-identical.  The gated
    ``objects_transfer_ratio`` is offered-objects(optimized) /
    offered-objects(seed) — the ISSUE's <= 0.05 acceptance.
    """
    signature = Signature(name="alice", email="alice@example.org", timestamp=_STORAGE_STAMP)
    body = "".join(f"value_{i} = {i}\n" for i in range(40))
    source = Repository.init("bench", "alice")
    source.write_files(
        {f"/src/pkg{i % 40}/module_{i}.py": f"# module {i}\n{body}" for i in range(num_files)}
    )
    source.commit("initial", author=signature)
    for round_number in range(history_commits):
        source.write_files(
            {
                f"/src/pkg{(round_number * 10 + slot) % 40}/module_{(round_number * 10 + slot) % num_files}.py":
                    f"# revision {round_number}.{slot}\n{body}"
                for slot in range(10)
            }
        )
        source.commit(f"round {round_number}", author=signature)

    local = clone_repository(source)
    local.write_file("/src/pkg7/module_7.py", f"# the one new change\n{body}")
    tip = local.commit("feature", author=signature)
    remote_baseline = clone_repository(source)
    remote_optimized = clone_repository(source)
    holder: dict[str, int] = {}

    def run_baseline():
        offer = _seed_full_history_offer(local.store, tip)
        local.store.copy_objects_to(remote_baseline.store, offer)
        remote_baseline.refs.set_branch("main", tip)
        holder["baseline_offered"] = len(offer)

    baseline_s = _timed(run_baseline)

    def run_optimized():
        haves = common_tips(local.store, remote_optimized)
        data = create_bundle(local.store, [tip], haves=haves)
        result = apply_bundle(remote_optimized.store, data)
        remote_optimized.refs.set_branch("main", tip)
        holder["optimized_offered"] = result.objects_total
        holder["bundle_bytes"] = len(data)

    optimized_s = _timed(run_optimized)

    identical = (
        remote_baseline.head_oid() == remote_optimized.head_oid() == tip
        and remote_baseline.snapshot() == remote_optimized.snapshot()
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "baseline_objects_offered": holder["baseline_offered"],
        "optimized_objects_offered": holder["optimized_offered"],
        "objects_transfer_ratio": holder["optimized_offered"] / holder["baseline_offered"],
        "bundle_bytes": holder["bundle_bytes"],
        "files": num_files,
        "history_commits": history_commits + 1,
    }


def bench_pull_after_divergence(num_files: int = 3000, new_commits: int = 5) -> dict:
    """Pull upstream commits into a locally diverged clone: seed vs negotiated.

    The local side has its own side-branch work (so its tip is unknown
    upstream) and upstream advanced ``new_commits`` on main.  The seed fetch
    re-offered every object reachable from upstream's tip; the negotiation
    walks back from the local tips to the shared base and transfers only the
    new commits' objects.
    """
    signature = Signature(name="alice", email="alice@example.org", timestamp=_STORAGE_STAMP)
    body = "".join(f"value_{i} = {i}\n" for i in range(40))
    upstream = Repository.init("bench", "alice")
    upstream.write_files(
        {f"/src/pkg{i % 30}/module_{i}.py": f"# module {i}\n{body}" for i in range(num_files)}
    )
    upstream.commit("initial", author=signature)

    def make_local() -> Repository:
        local = clone_repository(upstream)
        local.checkout("side", create_branch=True)
        local.write_file("/local/notes.txt", "diverged local work\n")
        local.commit("local side work", author=signature)
        local.checkout("main")
        return local

    local_baseline = make_local()
    local_optimized = make_local()
    for round_number in range(new_commits):
        upstream.write_file(
            f"/src/pkg{round_number % 30}/module_{round_number}.py",
            f"# upstream revision {round_number}\n{body}",
        )
        upstream.commit(f"upstream {round_number}", author=signature)
    upstream_tip = upstream.head_oid()
    holder: dict[str, int] = {}

    def run_baseline():
        offer = _seed_full_history_offer(upstream.store, upstream_tip)
        upstream.store.copy_objects_to(local_baseline.store, offer)
        local_baseline.refs.set_branch("main", upstream_tip)
        local_baseline.checkout("main")
        holder["baseline_offered"] = len(offer)

    baseline_s = _timed(run_baseline)

    def run_optimized():
        result = sync_objects(upstream, local_optimized, [upstream_tip])
        local_optimized.refs.set_branch("main", upstream_tip)
        local_optimized.checkout("main")
        holder["optimized_offered"] = result.objects_total

    optimized_s = _timed(run_optimized)

    identical = (
        local_baseline.head_oid() == local_optimized.head_oid() == upstream_tip
        and local_baseline.snapshot() == local_optimized.snapshot()
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "baseline_objects_offered": holder["baseline_offered"],
        "optimized_objects_offered": holder["optimized_offered"],
        "objects_transfer_ratio": holder["optimized_offered"] / holder["baseline_offered"],
        "files": num_files,
        "new_commits": new_commits,
    }


class _LruWalkStore(ObjectStore):
    """The pre-index walk: every ancestry step reads through the parsed-object LRU."""

    def commit_parents(self, oid: str) -> tuple[str, ...]:
        return self.get_commit(oid).parent_oids

    def commit_tree(self, oid: str) -> str:
        return self.get_commit(oid).tree_oid


def _copy_of(source: Repository, store: ObjectStore) -> Repository:
    """A repository holding ``source``'s objects and refs in ``store`` (raw, unparsed)."""
    copy = Repository(source.name, source.owner)
    copy.store = store
    source.store.copy_objects_to(store)
    copy.refs = source.refs.clone()
    copy.checkout("main")
    return copy


def bench_deep_history_push(history_commits: int = 1500, pushes: int = 12) -> dict:
    """One-commit pushes onto a 1.5k-commit history: LRU walks vs the parent index.

    Every push walks the whole history (the negotiation's common-ancestor
    walk on the sender, the fast-forward check on the receiver).  Through
    the 512-entry parsed-object LRU alone such a walk re-parses every commit
    each time; the store's commit-parent index parses each commit once per
    store.  The gated ``commit_parses_per_push`` counts commit
    deserialisations per push after one warm-up push, so it is a
    hardware-independent guard against that cliff coming back.
    """
    signature = Signature(name="alice", email="alice@example.org", timestamp=_STORAGE_STAMP)
    source = Repository.init("bench", "alice")
    source.write_files({f"/src/module_{i}.py": f"# module {i}\n" for i in range(20)})
    source.commit("initial", author=signature)
    for number in range(history_commits - 1):
        source.write_file(f"/src/module_{number % 20}.py", f"# revision {number}\n")
        source.commit(f"revision {number}", author=signature)

    parses = [0]
    original = object_store_module.deserialize_object

    def counting(object_type, payload):
        if object_type == "commit":
            parses[0] += 1
        return original(object_type, payload)

    def run(store_class) -> tuple[float, float, Repository]:
        local = _copy_of(source, store_class(MemoryBackend()))
        remote = _copy_of(source, store_class(MemoryBackend()))
        per_push: list[int] = []
        elapsed = 0.0
        object_store_module.deserialize_object = counting
        try:
            for number in range(pushes + 1):
                local.write_file("/src/pushed.py", f"# push {number}\n")
                local.commit(f"push {number}", author=signature)
                parses[0] = 0
                seconds = _timed(lambda: push(local, remote, "main"))
                if number:  # the first push warms both stores
                    elapsed += seconds
                    per_push.append(parses[0])
        finally:
            object_store_module.deserialize_object = original
        return elapsed, sum(per_push) / len(per_push), remote

    baseline_s, baseline_parses, remote_baseline = run(_LruWalkStore)
    optimized_s, optimized_parses, remote_optimized = run(ObjectStore)
    identical = (
        remote_baseline.head_oid() == remote_optimized.head_oid()
        and remote_baseline.snapshot() == remote_optimized.snapshot()
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "baseline_commit_parses_per_push": baseline_parses,
        "commit_parses_per_push": optimized_parses,
        "history_commits": history_commits,
        "pushes": pushes,
    }


# ---------------------------------------------------------------------------
# Durability scenarios (PR 6)
# ---------------------------------------------------------------------------


def bench_fsck(num_files: int = 5000, history_commits: int = 6) -> dict:
    """Full-integrity audit of a 5k-file pack store: random access vs fsck.

    Before ``gitcite fsck`` existed, auditing a working copy meant the only
    read path available: open the backend, random-access read every oid and
    re-hash it, then walk the ref graph object by object to prove
    connectivity — every record paying an index lookup, a seek and a header
    parse, and every commit/tree read a second time by the walk.
    ``fsck_working_copy`` replaces that with one sequential tolerant pass
    per pack (each byte read once, payloads kept for the graph walk) and is
    the recovery path, so it must stay fast enough to run routinely.  Both
    sides verify the same object set and reach the same reachable set.
    """
    signature = Signature(name="alice", email="alice@example.org", timestamp=_STORAGE_STAMP)
    body = "".join(f"x{i} = {i}\n" for i in range(25))
    source = Repository.init("bench", "alice")
    source.write_files(
        {f"/src/pkg{i % 20}/module_{i}.py": f"# module {i}\n{body}" for i in range(num_files)}
    )
    source.commit("initial", author=signature)
    for round_number in range(history_commits):
        for slot in range(10):
            index = (round_number * 10 + slot) % num_files
            source.write_file(
                f"/src/pkg{index % 20}/module_{index}.py",
                f"# module {index} revision {round_number}\n{body}",
            )
        source.commit(f"round {round_number}", author=signature)

    holder: dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        working_copy = Path(tmp) / "working-copy"
        save_repository(clone_repository(source), working_copy, storage="pack")
        state = stable_loads(
            (working_copy / ".gitcite" / "state.json").read_text(encoding="utf-8")
        )
        tips = [oid for oid in (state.get("branches") or {}).values()]

        def run_baseline():
            backend = PackBackend(working_copy / ".gitcite" / "pack")
            verified: set[str] = set()
            for oid in sorted(backend.iter_oids()):
                type_name, payload = backend.read(oid)
                if object_id(type_name, payload) == oid:
                    verified.add(oid)
            # Connectivity: DFS from every ref tip through the read path.
            reachable: set[str] = set()
            frontier = [tip for tip in tips]
            while frontier:
                oid = frontier.pop()
                if oid in reachable:
                    continue
                reachable.add(oid)
                type_name, payload = backend.read(oid)
                obj = deserialize_object(type_name, payload)
                if type_name == "commit":
                    frontier.append(obj.tree_oid)
                    frontier.extend(obj.parent_oids)
                elif type_name == "tree":
                    frontier.extend(entry.oid for entry in obj.entries)
            backend.close()
            holder["baseline_verified"] = verified
            holder["baseline_reachable"] = reachable

        baseline_s = _timed(run_baseline)

        def run_optimized():
            holder["report"] = fsck_working_copy(working_copy)

        optimized_s = _timed(run_optimized)

    report = holder["report"]
    verified = holder["baseline_verified"]
    reachable = holder["baseline_reachable"]
    identical = (
        report.ok
        and report.objects_checked == len(verified)
        and reachable <= verified
        and not report.unrecoverable
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "objects_audited": report.objects_checked,
        "files": num_files,
        "commits": history_commits + 1,
    }


# ---------------------------------------------------------------------------
# Concurrency scenario (PR 7)
# ---------------------------------------------------------------------------


def bench_concurrent_push_pull(clients: int = 8, rounds: int = 3) -> dict:
    """N clients race fast-forward pushes over a real TCP socket.

    Unlike the other scenarios this one is gated on *correctness*, not
    wall-clock: the CI floor is ``lost_updates == 0`` — once the hub returns
    2xx for a push, that commit must remain reachable from the final branch
    tip no matter how many other clients were racing it.  The baseline runs
    the identical client workload sequentially (the only safe schedule before
    the hub was concurrency-safe); the optimized side runs all clients in
    threads against a live :class:`~repro.hub.httpd.HubHttpServer`.  The
    speedup floor is deliberately tiny: threaded Python over HTTP is about
    overlap under the GIL, and the point of the scenario is the invariant.
    """

    def build_hub() -> tuple[HostingPlatform, str]:
        repo = Repository.init("contended", "alice")
        repo.write_file("README.md", "contended repo\n")
        repo.commit("initial", author_name="alice")
        platform = HostingPlatform(rate_limiter=RateLimiter(enabled=False))
        platform.host_repository(repo)
        return platform, platform.issue_token("alice").value

    def client_workload(url: str, token: str, index: int) -> list[str]:
        wire = HttpTransport(url, timeout=30)
        api = RetryingApi(wire, RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
        remote = HubRemote(api, "alice/contended", token=token)
        local = remote.clone()
        acknowledged: list[str] = []
        for round_number in range(rounds):
            for _attempt in range(64):
                try:
                    tip = remote.fetch_branch(local, "main")
                    local.refs.set_branch("main", tip)
                    local.checkout("main")
                    local.write_file(f"client-{index}.txt", f"round {round_number}\n")
                    oid = local.commit(
                        f"client {index} round {round_number}",
                        author_name=f"client-{index}",
                    )
                    remote.push(local, "main")
                except (ValidationError, RemoteError):
                    continue  # lost the race loudly (422); rebase and go again
                acknowledged.append(oid)
                break
            else:
                raise RuntimeError(f"client {index} starved after 64 attempts")
        return acknowledged

    def audit(platform: HostingPlatform, acknowledged: list[str]) -> int:
        hosted = platform.repositories["alice/contended"].repo
        final_tip = hosted.refs.branch_target("main")
        return sum(
            1
            for oid in acknowledged
            if not is_ancestor_commit(hosted.store, oid, final_tip)
        )

    # Baseline: the same client workload, one client at a time over the wire.
    baseline_platform, baseline_token = build_hub()
    baseline_acknowledged: list[str] = []
    with HubHttpServer(RestApi(baseline_platform)) as server:
        url = server.url

        def run_baseline():
            for index in range(clients):
                baseline_acknowledged.extend(client_workload(url, baseline_token, index))

        baseline_s = _timed(run_baseline)
    baseline_lost = audit(baseline_platform, baseline_acknowledged)

    # Optimized: every client is a thread hammering the same live server.
    optimized_platform, optimized_token = build_hub()
    optimized_acknowledged: list[str] = []
    failures: list[BaseException] = []
    lock = threading.Lock()
    with HubHttpServer(RestApi(optimized_platform)) as server:
        url = server.url

        def client_thread(index: int) -> None:
            try:
                acked = client_workload(url, optimized_token, index)
            except BaseException as exc:  # surfaced after the join below
                with lock:
                    failures.append(exc)
                return
            with lock:
                optimized_acknowledged.extend(acked)

        def run_optimized():
            threads = [
                threading.Thread(target=client_thread, args=(index,))
                for index in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        optimized_s = _timed(run_optimized)
    if failures:
        raise failures[0]
    optimized_lost = audit(optimized_platform, optimized_acknowledged)

    expected = clients * rounds
    identical = (
        len(baseline_acknowledged) == expected
        and len(optimized_acknowledged) == expected
        and baseline_lost == 0
        and optimized_lost == 0
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "clients": clients,
        "rounds": rounds,
        "pushes_acknowledged": len(optimized_acknowledged),
        "lost_updates": optimized_lost,
    }


def bench_serve_durable_push(pushes: int = 40, flush_every: int = 8) -> dict:
    """Write-ahead journalled pushes over a live socket, plus a crash audit.

    PR 8 makes ``gitcite serve`` persist every acknowledged push to a
    write-ahead journal before the 2xx leaves the socket.  Durability is not
    free — the question this scenario answers is *how much* it costs and
    whether the contract actually holds:

    * **baseline** — the seed's serving path: a push storm over a live
      :class:`~repro.hub.httpd.HubHttpServer` with no journal attached
      (acknowledgements live only in memory until a clean shutdown).
    * **optimized** — the same storm with a write-behind
      :class:`~repro.hub.durability.PushJournal` attached (fsync every
      ``flush_every`` records).  The CI floor is a *ratio*, not a speedup:
      journalled serving must stay within 2x of journal-free serving
      (``min_speedup: 0.5``).
    * **crash audit** — a third storm in fully durable mode (fsync per
      append), after which the server state is abandoned exactly as a
      ``kill -9`` would leave it: no save, no drain.  Startup recovery
      replays the journal onto the last checkpoint and the scenario counts
      ``lost_acknowledged`` — acknowledged pushes missing after recovery.
      The CI floor is **zero**.
    """
    slug = "alice/durable"

    def build_root(base: Path, name: str) -> Path:
        root = base / name
        repo = Repository.init("durable", "alice")
        repo.write_file("README.md", "durable bench\n")
        repo.commit("initial", author_name="alice")
        save_repository(repo, root)
        return root

    def hosted(root: Path, journal: PushJournal | None):
        platform = HostingPlatform(rate_limiter=RateLimiter(enabled=False))
        platform.host_repository(load_repository(root))
        if journal is not None:
            platform.attach_journal(slug, journal)
        return platform, platform.issue_token("alice").value

    def push_storm(url: str, token: str) -> list[str]:
        wire = HttpTransport(url, timeout=30)
        remote = HubRemote(wire, slug, token=token)
        local = remote.clone()
        acknowledged: list[str] = []
        for index in range(pushes):
            local.write_file(f"push-{index}.txt", f"payload {index}\n")
            tip = local.commit(f"push {index}", author_name="alice")
            remote.push(local)
            acknowledged.append(tip)
        return acknowledged

    with tempfile.TemporaryDirectory(prefix="bench-durable-") as tmp:
        base = Path(tmp)

        # Baseline: no journal — the pre-PR-8 serving path.
        root = build_root(base, "baseline")
        platform, token = hosted(root, journal=None)
        baseline_acked: list[str] = []
        with HubHttpServer(RestApi(platform)) as server:
            url = server.url
            baseline_s = _timed(lambda: baseline_acked.extend(push_storm(url, token)))

        # Optimized: write-behind journal — batched fsyncs on the ack path.
        root = build_root(base, "write-behind")
        with PushJournal(journal_path(root), durable=False, flush_every=flush_every) as journal:
            platform, token = hosted(root, journal)
            behind_acked: list[str] = []
            with HubHttpServer(RestApi(platform)) as server:
                url = server.url
                optimized_s = _timed(lambda: behind_acked.extend(push_storm(url, token)))
            journal.flush()

        # Crash audit: durable mode, then die without saving and recover.
        root = build_root(base, "durable")
        journal = PushJournal(journal_path(root), durable=True)
        platform, token = hosted(root, journal)
        with HubHttpServer(RestApi(platform)) as server:
            url = server.url
            durable_acked = push_storm(url, token)
        journal.close()  # kill -9: the platform's in-memory state is gone
        del platform

        survivor, recovery = recover_working_copy(root)
        final_tip = survivor.refs.branch_target("main")
        lost = sum(
            1
            for oid in durable_acked
            if not is_ancestor_commit(survivor.store, oid, final_tip)
        )

    identical = (
        len(baseline_acked) == pushes
        and len(behind_acked) == pushes
        and len(durable_acked) == pushes
        and final_tip == durable_acked[-1]
        and not recovery.degraded
    )
    return {
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": baseline_s / optimized_s,
        "outputs_identical": identical,
        "pushes": pushes,
        "flush_every": flush_every,
        "journal_records_replayed": recovery.records_replayed,
        "lost_acknowledged": lost,
    }


SCENARIOS = {
    "bulk_addcite_1k": bench_bulk_addcite,
    "repeated_cite_at_ref": bench_cite_at_ref,
    "incremental_write_tree": bench_incremental_write_tree,
    "resolve_prefix": bench_resolve_prefix,
    "entries_under": bench_entries_under,
    "retro_directory_authors": bench_retro_directory_authors,
    "storage_bulk_commit": bench_storage_bulk_commit,
    "storage_cold_open": bench_storage_cold_open,
    "commit_touch_one_of_5k": bench_commit_touch_one,
    "single_write_file_scaling": bench_single_write_file,
    "multipack_cold_open": bench_multipack_cold_open,
    "checkout_5k_switch": bench_checkout_switch,
    "push_incremental_5k": bench_push_incremental,
    "pull_after_divergence": bench_pull_after_divergence,
    "deep_history_push": bench_deep_history_push,
    "fsck_5k": bench_fsck,
    "concurrent_push_pull": bench_concurrent_push_pull,
    "serve_durable_push": bench_serve_durable_push,
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_scenarios(names: list[str] | None = None) -> dict:
    set_clock(FixedClock(datetime(2018, 9, 1, 12, 0, 0, tzinfo=timezone.utc), step_seconds=60))
    try:
        results: dict[str, dict] = {}
        for name, scenario in SCENARIOS.items():
            if names and name not in names:
                continue
            print(f"running {name} ...", flush=True)
            results[name] = scenario()
            entry = results[name]
            print(
                f"  baseline {entry['baseline_s'] * 1e3:8.1f} ms   "
                f"optimized {entry['optimized_s'] * 1e3:8.1f} ms   "
                f"speedup {entry['speedup']:6.1f}x   "
                f"identical={entry['outputs_identical']}"
            )
    finally:
        reset_clock()
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="where to write the JSON results"
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only this scenario (repeatable)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the pytest-benchmark suite (slow; records its exit code)",
    )
    args = parser.parse_args(argv)

    results = run_scenarios(args.scenario)
    payload = {
        "schema": 1,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "results": results,
    }

    if args.full:
        print("running pytest-benchmark suite ...", flush=True)
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", str(_REPO_ROOT / "benchmarks"), "--benchmark-only", "-q"],
            cwd=_REPO_ROOT,
            env={**__import__("os").environ, "PYTHONPATH": str(_REPO_ROOT / "src")},
        )
        payload["pytest_benchmark_exit_code"] = completed.returncode

    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {args.output}")

    failed = [name for name, entry in results.items() if not entry["outputs_identical"]]
    if failed:
        print(f"ERROR: scenarios with diverging outputs: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
