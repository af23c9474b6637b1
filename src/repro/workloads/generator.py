"""Seeded synthetic workloads for the scalability and ablation benchmarks.

The paper reports no quantitative evaluation, so these generators define
the workloads a systems reader would expect: synthetic
project trees of controlled size and depth, citation functions of controlled
density, branch pairs with controlled conflict rates, and operator traces.
Everything is driven by :class:`random.Random` seeded from the workload
configuration, so benchmark runs are reproducible.

The fault-injection additions (PR 6) extend the same discipline to failure
testing: :func:`generate_fault_schedule` deals every member of a simulated
fleet its own deterministic :class:`FaultEvent` list — which failpoint dies,
on which hit, with which action — so a durability sweep over many clients
replays bit-identically from one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Literal, Optional

from repro import faults
from repro.citation.function import CitationFunction
from repro.citation.manager import CitationManager
from repro.citation.operators import AddCite, DelCite, GenCite, ModifyCite
from repro.citation.record import Citation
from repro.errors import TransportError
from repro.utils.paths import ROOT, path_parent
from repro.vcs.repository import Repository

__all__ = [
    "WorkloadConfig",
    "SyntheticWorkload",
    "BranchPairWorkload",
    "FaultEvent",
    "FleetFaultSchedule",
    "ServeKillEvent",
    "ServeChaosSchedule",
    "STORAGE_FAILPOINTS",
    "WIRE_FAILPOINTS",
    "SERVE_FAILPOINTS",
    "generate_tree_paths",
    "generate_citation",
    "generate_citation_function",
    "generate_repository",
    "generate_branch_pair",
    "generate_operation_trace",
    "generate_history",
    "generate_fault_schedule",
    "generate_serve_chaos_schedule",
]

_FIRST_NAMES = ("Ada", "Chen", "Dana", "Edgar", "Grace", "Leshang", "Susan", "Wei", "Yinjun", "Yan")
_LAST_NAMES = ("Chen", "Davidson", "Hu", "Li", "Lovelace", "Silvello", "Turing", "Wu", "Zhou", "Codd")
_DIR_WORDS = ("core", "lib", "gui", "docs", "schema", "query", "engine", "tests", "tools", "data")
_FILE_WORDS = ("parser", "planner", "index", "view", "rewrite", "buffer", "log", "driver", "model", "utils")
_EXTENSIONS = (".py", ".sql", ".md", ".json", ".txt")

_EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a synthetic workload."""

    seed: int = 7
    num_files: int = 100
    max_depth: int = 4
    branching: int = 5
    citation_density: float = 0.1
    num_authors: int = 6
    file_size_bytes: int = 200

    def rng(self) -> random.Random:
        return random.Random(self.seed)


@dataclass
class SyntheticWorkload:
    """A generated repository, its manager and bookkeeping for assertions."""

    config: WorkloadConfig
    repo: Repository
    manager: CitationManager
    file_paths: list[str]
    cited_paths: list[str]

    @property
    def citation_function(self) -> CitationFunction:
        return self.manager.citation_function()


@dataclass
class BranchPairWorkload:
    """Two diverged branches with controlled citation overlap and conflicts."""

    repo: Repository
    manager: CitationManager
    base_commit: str
    ours_branch: str
    theirs_branch: str
    conflicting_paths: list[str]
    ours_only_paths: list[str]
    theirs_only_paths: list[str]


# ---------------------------------------------------------------------------
# Primitive generators
# ---------------------------------------------------------------------------


def _author_name(rng: random.Random) -> str:
    return f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"


def generate_tree_paths(
    rng: random.Random, num_files: int, max_depth: int = 4, branching: int = 5
) -> list[str]:
    """Generate ``num_files`` distinct canonical file paths forming a tree."""
    directories: list[str] = [ROOT]
    paths: set[str] = set()
    while len(paths) < num_files:
        parent = rng.choice(directories)
        depth = parent.count("/") if parent != ROOT else 0
        if depth < max_depth and len(directories) < max(2, num_files // branching) and rng.random() < 0.3:
            name = f"{rng.choice(_DIR_WORDS)}_{len(directories)}"
            directory = (parent.rstrip("/") + "/" + name) if parent != ROOT else "/" + name
            directories.append(directory)
            continue
        file_name = f"{rng.choice(_FILE_WORDS)}_{len(paths)}{rng.choice(_EXTENSIONS)}"
        path = (parent.rstrip("/") + "/" + file_name) if parent != ROOT else "/" + file_name
        paths.add(path)
    return sorted(paths)


def generate_citation(
    rng: random.Random,
    repo_name: str = "synthetic",
    owner: Optional[str] = None,
    commit_id: Optional[str] = None,
    when: Optional[datetime] = None,
) -> Citation:
    """Generate a plausible citation record."""
    owner = owner or _author_name(rng)
    when = when or (_EPOCH + timedelta(minutes=rng.randrange(0, 500000)))
    authors = tuple({_author_name(rng) for _ in range(rng.randint(1, 3))}) or (owner,)
    return Citation(
        repo_name=repo_name,
        owner=owner,
        committed_date=when,
        commit_id=commit_id or f"{rng.randrange(16**7):07x}",
        url=f"https://github.com/{owner.replace(' ', '').lower()}/{repo_name}",
        authors=tuple(sorted(authors)),
        version=f"v{rng.randint(0, 3)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}",
    )


def generate_citation_function(
    rng: random.Random,
    file_paths: list[str],
    density: float,
    repo_name: str = "synthetic",
) -> tuple[CitationFunction, list[str]]:
    """Build a citation function over ``file_paths`` with the given density.

    Density is the fraction of *nodes* (files and directories, excluding the
    root) that receive an explicit citation.  Returns the function and the
    list of cited paths (excluding the root).
    """
    function = CitationFunction.with_root(generate_citation(rng, repo_name=repo_name))
    directories = sorted({p for path in file_paths for p in _ancestor_dirs(path)})
    nodes = [p for p in (file_paths + directories) if p != ROOT]
    target = int(len(nodes) * density)
    cited = rng.sample(nodes, min(target, len(nodes))) if target else []
    directory_set = set(directories)
    for path in cited:
        function.put(path, generate_citation(rng, repo_name=repo_name), path in directory_set)
    return function, sorted(cited)


def _ancestor_dirs(path: str) -> list[str]:
    dirs = []
    parent = path_parent(path)
    while parent != ROOT:
        dirs.append(parent)
        parent = path_parent(parent)
    return dirs


# ---------------------------------------------------------------------------
# Repository-level generators
# ---------------------------------------------------------------------------


def generate_repository(config: WorkloadConfig) -> SyntheticWorkload:
    """Generate a citation-enabled repository matching ``config``."""
    rng = config.rng()
    repo = Repository.init(f"synthetic-{config.seed}", _author_name(rng).replace(" ", ""))
    file_paths = generate_tree_paths(rng, config.num_files, config.max_depth, config.branching)
    for path in file_paths:
        content = "".join(rng.choice("abcdefghij \n") for _ in range(config.file_size_bytes))
        repo.write_file(path, content)
    repo.commit("synthetic content", timestamp=_EPOCH)
    manager = CitationManager(repo)
    manager.init_citations(
        manager.default_root_citation(authors=[_author_name(rng) for _ in range(config.num_authors)])
    )
    directories = sorted({d for p in file_paths for d in _ancestor_dirs(p)})
    nodes = file_paths + directories
    target = int(len(nodes) * config.citation_density)
    cited = sorted(rng.sample(nodes, min(target, len(nodes)))) if target else []
    directory_set = set(directories)
    for path in cited:
        manager.citation_function().put(
            path, generate_citation(rng, repo_name=repo.name), path in directory_set
        )
    manager._save()
    manager.commit("attach synthetic citations", timestamp=_EPOCH + timedelta(hours=1))
    return SyntheticWorkload(
        config=config, repo=repo, manager=manager, file_paths=file_paths, cited_paths=cited
    )


def generate_history(
    workload: SyntheticWorkload, num_commits: int, edits_per_commit: int = 3
) -> list[str]:
    """Extend a synthetic repository with a chain of editing commits."""
    rng = random.Random(workload.config.seed + 1)
    commits = []
    for index in range(num_commits):
        for _ in range(edits_per_commit):
            path = rng.choice(workload.file_paths)
            workload.repo.write_file(path, f"revision {index} of {path}\n")
        commits.append(
            workload.repo.commit(
                f"synthetic edit {index}",
                author_name=_author_name(rng),
                timestamp=_EPOCH + timedelta(days=1, minutes=index),
            )
        )
    return commits


def generate_branch_pair(
    config: WorkloadConfig,
    citations_per_branch: int = 20,
    conflict_fraction: float = 0.25,
) -> BranchPairWorkload:
    """Create two branches whose citation functions overlap and conflict.

    ``conflict_fraction`` of the cited paths receive *different* citations on
    the two branches (same key, different value — the conflicts MergeCite
    must resolve); the rest are split between the branches.
    """
    workload = generate_repository(config)
    rng = random.Random(config.seed + 2)
    repo, manager = workload.repo, workload.manager
    base_commit = repo.head_oid()
    assert base_commit is not None

    candidates = [p for p in workload.file_paths if p not in set(workload.cited_paths)]
    rng.shuffle(candidates)
    needed = min(2 * citations_per_branch, len(candidates))
    pool = candidates[:needed]
    num_conflicts = int(citations_per_branch * conflict_fraction)
    conflicting = pool[:num_conflicts]
    remaining = pool[num_conflicts:]
    half = (len(remaining)) // 2
    ours_only = remaining[:half][: citations_per_branch - num_conflicts]
    theirs_only = remaining[half:][: citations_per_branch - num_conflicts]

    ours_branch, theirs_branch = "ours-work", "theirs-work"
    repo.create_branch(ours_branch)
    repo.create_branch(theirs_branch)

    repo.checkout(ours_branch)
    manager.reload()
    for path in conflicting + ours_only:
        manager.add_cite(path, generate_citation(rng, repo_name=repo.name, owner="Ours Team"))
    repo.write_file("/OURS.md", "ours branch marker\n")
    manager.commit("ours branch citations", timestamp=_EPOCH + timedelta(days=2))

    repo.checkout(theirs_branch)
    manager.reload()
    for path in conflicting + theirs_only:
        manager.add_cite(path, generate_citation(rng, repo_name=repo.name, owner="Theirs Team"))
    repo.write_file("/THEIRS.md", "theirs branch marker\n")
    manager.commit("theirs branch citations", timestamp=_EPOCH + timedelta(days=3))

    repo.checkout(ours_branch)
    manager.reload()
    return BranchPairWorkload(
        repo=repo,
        manager=manager,
        base_commit=base_commit,
        ours_branch=ours_branch,
        theirs_branch=theirs_branch,
        conflicting_paths=sorted(conflicting),
        ours_only_paths=sorted(ours_only),
        theirs_only_paths=sorted(theirs_only),
    )


# ---------------------------------------------------------------------------
# Fleet fault schedules
# ---------------------------------------------------------------------------

#: Failpoints on the durable-write path (see :mod:`repro.utils.atomicio`).
STORAGE_FAILPOINTS = (
    "pack.idx",
    "pack.midx",
    "pack.repack",
    "state.save",
    "storage.flush",
)

#: Failpoints on the transfer path (REST wire plus the bundle pipeline).
WIRE_FAILPOINTS = (
    "bundle.apply",
    "bundle.read",
    "wire.request",
    "wire.response",
)

#: The action kinds each failpoint can meaningfully carry: durable writes
#: honour the full payload semantics; ``bundle.read`` is a data point whose
#: damaged bytes the checksums must catch; the remaining wire points are
#: pure control points (crash or raise).
#: Failpoints on the serving hub's durability path (PR 8): the write-ahead
#: journal append and the per-record replay during serve-startup recovery.
SERVE_FAILPOINTS = (
    "journal.append",
    "serve.recover",
)

_FAILPOINT_ACTIONS: dict[str, tuple[str, ...]] = {
    **{name: ("crash", "truncate", "flip") for name in STORAGE_FAILPOINTS},
    "bundle.read": ("crash", "error", "truncate", "flip"),
    "bundle.apply": ("crash", "error"),
    "wire.request": ("crash", "error"),
    "wire.response": ("crash", "error"),
    # The journal append honours full payload semantics (torn frame,
    # silently flipped byte); replay is a pure control point.
    "journal.append": ("crash", "truncate", "flip", "error"),
    "serve.recover": ("crash", "error"),
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *this* fleet member dies *here*, *this* way."""

    member: int
    failpoint: str
    action: str
    #: 1-based hit index of ``failpoint`` at which the action triggers.
    at: int
    #: ``truncate``: payload bytes allowed through before the torn stop.
    keep: int = 0
    #: ``flip``: byte offset corrupted in the payload.
    offset: int = 0

    def arm(self, error=None):
        """Arm this event in the process-global fault registry (once).

        ``error`` overrides the exception factory for ``error`` actions;
        the default models a dropped connection (:class:`TransportError`),
        which is what the retrying transport is expected to absorb.
        """
        kwargs: dict = {"at": self.at, "times": 1}
        if self.action == "truncate":
            kwargs["keep"] = self.keep
        elif self.action == "flip":
            kwargs["offset"] = self.offset
        elif self.action == "error":
            failpoint = self.failpoint
            kwargs["error"] = error or (
                lambda: TransportError(f"injected fault at {failpoint}")
            )
        return faults.arm(self.failpoint, action=self.action, **kwargs)


@dataclass(frozen=True)
class FleetFaultSchedule:
    """A deterministic deal of fault events across a simulated fleet."""

    seed: int
    fleet_size: int
    events: tuple[FaultEvent, ...]

    def for_member(self, member: int) -> tuple[FaultEvent, ...]:
        return tuple(event for event in self.events if event.member == member)


def generate_fault_schedule(
    config: WorkloadConfig,
    fleet_size: int = 4,
    faults_per_member: int = 2,
    failpoints: Optional[tuple[str, ...]] = None,
    max_hit: int = 4,
    max_keep: int = 64,
    max_offset: int = 512,
    seed_offset: int = 4,
) -> FleetFaultSchedule:
    """Deal every fleet member ``faults_per_member`` deterministic faults.

    A durability sweep runs the same workload once per member, arming that
    member's events before the run and asserting recovery afterwards; the
    whole fleet — sites, hit indexes, torn-write lengths, flipped offsets —
    replays identically from ``config.seed``.
    """
    rng = random.Random(config.seed + seed_offset)
    sites = failpoints or (STORAGE_FAILPOINTS + WIRE_FAILPOINTS)
    unknown = [site for site in sites if site not in _FAILPOINT_ACTIONS]
    if unknown:
        raise ValueError(f"unknown failpoints: {unknown}")
    events = []
    for member in range(fleet_size):
        for _ in range(faults_per_member):
            failpoint = rng.choice(sites)
            events.append(FaultEvent(
                member=member,
                failpoint=failpoint,
                action=rng.choice(_FAILPOINT_ACTIONS[failpoint]),
                at=rng.randint(1, max_hit),
                keep=rng.randint(0, max_keep),
                offset=rng.randint(0, max_offset),
            ))
    return FleetFaultSchedule(seed=config.seed, fleet_size=fleet_size, events=tuple(events))


@dataclass(frozen=True)
class ServeKillEvent:
    """One restart cycle of a process-level serve chaos run.

    The harness pushes until ``after_acks`` acknowledgements landed, then
    kills the serving process — either from outside (``sigkill``, the
    honest ``kill -9``) or from inside (``failpoint``: a
    :class:`~repro.faults.SimulatedCrash` armed in the subprocess via
    ``GITCITE_SERVE_FAULTS``, which ``gitcite serve`` turns into a hard
    ``os._exit``).  Either way the next round restarts the server and
    asserts every acknowledged push survived.
    """

    round: int
    #: Kill once this many pushes of the round were acknowledged.
    after_acks: int
    kind: str  # "sigkill" | "failpoint"
    failpoint: str = ""
    #: Hit index for the env-armed failpoint ("failpoint" kind only).
    at: int = 1

    def env_entry(self) -> Optional[str]:
        """The ``GITCITE_SERVE_FAULTS`` entry arming this event, if any."""
        if self.kind != "failpoint":
            return None
        return f"{self.failpoint}:crash:{self.at}"


@dataclass(frozen=True)
class ServeChaosSchedule:
    """A deterministic deal of kill points across serve restart cycles."""

    seed: int
    rounds: tuple[ServeKillEvent, ...]


def generate_serve_chaos_schedule(
    config: WorkloadConfig,
    rounds: int = 3,
    max_acks_between_kills: int = 3,
    seed_offset: int = 8,
) -> ServeChaosSchedule:
    """Deal ``rounds`` deterministic kill events for a serve chaos run.

    Rounds alternate deterministically between external ``SIGKILL`` and the
    in-process serve failpoints, and the whole schedule — kill points, hit
    indexes — replays identically from ``config.seed``.
    """
    rng = random.Random(config.seed + seed_offset)
    events = []
    for index in range(rounds):
        kind = rng.choice(("sigkill", "failpoint"))
        failpoint = rng.choice(SERVE_FAILPOINTS) if kind == "failpoint" else ""
        events.append(ServeKillEvent(
            round=index,
            after_acks=rng.randint(1, max_acks_between_kills),
            kind=kind,
            failpoint=failpoint,
            at=rng.randint(1, 2),
        ))
    return ServeChaosSchedule(seed=config.seed, rounds=tuple(events))


# ---------------------------------------------------------------------------
# Operator traces
# ---------------------------------------------------------------------------

OperationKind = Literal["add", "delete", "modify", "generate"]

DEFAULT_MIX: dict[OperationKind, float] = {
    "add": 0.3,
    "modify": 0.2,
    "delete": 0.1,
    "generate": 0.4,
}


def generate_operation_trace(
    workload: SyntheticWorkload,
    num_operations: int,
    mix: Optional[dict[OperationKind, float]] = None,
    seed_offset: int = 3,
):
    """Generate a replayable list of citation operations against a workload.

    The trace is *valid by construction*: AddCite only targets paths without
    an explicit citation at that point of the trace, DelCite/ModifyCite only
    target paths with one (and never the root).
    """
    rng = random.Random(workload.config.seed + seed_offset)
    mix = mix or DEFAULT_MIX
    kinds, weights = zip(*sorted(mix.items()))
    cited = set(workload.cited_paths)
    uncited = [p for p in workload.file_paths if p not in cited]
    operations = []
    for _ in range(num_operations):
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        if kind == "add" and uncited:
            path = uncited.pop(rng.randrange(len(uncited)))
            operations.append(AddCite(path=path, citation=generate_citation(rng)))
            cited.add(path)
        elif kind == "modify" and cited:
            path = rng.choice(sorted(cited))
            operations.append(ModifyCite(path=path, citation=generate_citation(rng)))
        elif kind == "delete" and cited:
            path = rng.choice(sorted(cited))
            operations.append(DelCite(path=path))
            cited.discard(path)
            uncited.append(path)
        else:
            path = rng.choice(workload.file_paths)
            operations.append(GenCite(path=path))
    return operations
