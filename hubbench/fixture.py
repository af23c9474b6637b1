"""Seeded inputs for the served-hub benchmark, and the on-disk hub built from them.

:func:`make_plan` turns a seed into plain data: a project tree, a history of
commits that edit files and the citation function, and release tags.  It
calls nothing in ``repro``, so the inputs stay the same whatever the program
does.  :func:`build_hub` replays a plan through the program's own API
(``Repository`` commits, ``citation.cite`` serialisation, ``save_repository``
with the default memory storage) into a working copy that ``gitcite serve``
can host.

The plan doubles as the oracle: :class:`RefModel` holds, for every tag and
for ``main``, the explicit citations and the set of paths, so each browse
answer can be checked without asking the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

OWNER = "alice"
NAME = "hub"
SLUG = f"{OWNER}/{NAME}"
CITE_PATH = "/citation.cite"

_TOP = ("core", "engine", "query", "schema", "gui", "docs", "tools", "tests")
_SUB = ("api", "impl", "util", "io", "model")
_STEMS = ("parser", "planner", "index", "view", "rewrite", "buffer", "loader", "cache", "codec", "graph")
_EXTS = (".py", ".sql", ".md", ".json")
_AUTHORS = ("Ada Lovelace", "Yinjun Wu", "Susan Davidson", "Abdussalam Alawini",
            "Leshang Chen", "Grace Hopper", "Edgar Codd", "Barbara Liskov")
_EPOCH = datetime(2019, 3, 1, 12, 0, 0, tzinfo=timezone.utc)

TOP_DIRS = 6
SUB_DIRS = 3
FILES_PER_DIR = 6
HISTORY = 16
TAG_EVERY = 4


@dataclass(frozen=True)
class Cite:
    """One explicit citation, as plain data."""

    commit_id: str
    authors: tuple[str, ...]
    title: str
    day: int


@dataclass
class RefModel:
    """What a ref must look like through the API."""

    name: str
    cites: dict[str, Cite]
    paths: frozenset[str]
    #: Commits in the ref's history.
    depth: int
    tip: str = ""

    def resolve(self, path: str) -> tuple[str, Cite]:
        """Closest ancestor of ``path`` with an explicit citation."""
        node = path
        while True:
            if node in self.cites:
                return node, self.cites[node]
            if node == "/":
                raise KeyError(path)
            node = node.rsplit("/", 1)[0] or "/"


@dataclass
class Plan:
    seed: int
    files: list[str]
    dirs: list[str]
    #: (message, changed files, citations after the commit, day offset)
    commits: list[tuple[str, dict[str, bytes], dict[str, Cite], int]]
    tags: dict[str, int]
    refs: dict[str, RefModel] = field(default_factory=dict)

    def all_paths(self) -> list[str]:
        return self.dirs + self.files


def _line(rng: random.Random) -> str:
    return f"    {rng.choice(_STEMS)}_{rng.getrandbits(20):05x} = {rng.choice(_STEMS)}({rng.randint(0, 999)})\n"


def _content(rng: random.Random, path: str) -> bytes:
    lines = [f"# {path}\n"] + [_line(rng) for _ in range(rng.randint(6, 24))]
    return "".join(lines).encode()


def edit(rng: random.Random, content: bytes) -> bytes:
    """A versioned-file edit: one line rewritten."""
    lines = content.decode().splitlines(keepends=True)
    lines[rng.randrange(1, len(lines))] = _line(rng)
    return "".join(lines).encode()


def _cite(rng: random.Random, day: int) -> Cite:
    authors = tuple(sorted(rng.sample(_AUTHORS, rng.randint(1, 3))))
    return Cite(
        commit_id=f"{rng.getrandbits(28):07x}",
        authors=authors,
        title=f"{rng.choice(_STEMS)} {rng.choice(_STEMS)}",
        day=day,
    )


def make_plan(seed: int) -> Plan:
    rng = random.Random(seed)
    tops = rng.sample(_TOP, TOP_DIRS)
    dirs: list[str] = []
    files: list[str] = []
    for top in tops:
        level = [f"/{top}"] + [f"/{top}/{name}" for name in rng.sample(_SUB, SUB_DIRS)]
        dirs.extend(level)
        for directory in level:
            stems = rng.sample(_STEMS, FILES_PER_DIR)
            files.extend(f"{directory}/{stem}{rng.choice(_EXTS)}" for stem in stems)
    files.sort()
    dirs.sort()
    current = {path: _content(rng, path) for path in files}
    cites = {"/": _cite(rng, 0)}
    for path in rng.sample(dirs + files, 12):
        cites[path] = _cite(rng, 0)
    commits = [("initial import", dict(current), dict(cites), 0)]
    tags: dict[str, int] = {}
    for number in range(1, HISTORY + 1):
        changed = {}
        for path in rng.sample(files, rng.randint(2, 8)):
            changed[path] = current[path] = edit(rng, current[path])
        cites = dict(cites)
        for path in rng.sample(dirs + files, 3):
            if path in cites and rng.random() < 0.4:
                del cites[path]
            else:
                cites[path] = _cite(rng, number)
        cites["/"] = _cite(rng, number)
        commits.append((f"revision {number}", changed, cites, number))
        if number % TAG_EVERY == 0:
            tags[f"v{number // TAG_EVERY}"] = number
    plan = Plan(seed=seed, files=files, dirs=dirs, commits=commits, tags=tags)
    path_set = frozenset(dirs + files + [CITE_PATH])
    for tag, index in tags.items():
        plan.refs[tag] = RefModel(tag, commits[index][2], path_set, index + 1)
    plan.refs["main"] = RefModel("main", commits[-1][2], path_set, len(commits))
    return plan


def to_citation(cite: Cite):
    from repro.citation.record import Citation

    return Citation(
        repo_name=NAME,
        owner=OWNER,
        committed_date=_EPOCH + timedelta(days=cite.day),
        commit_id=cite.commit_id,
        url=f"https://github.com/{SLUG}/tree/{cite.commit_id}",
        authors=cite.authors,
        title=cite.title,
    )


def cite_bytes(cites: dict[str, Cite], dirs: set[str]) -> bytes:
    """``citation.cite`` for an explicit-citation map, via the program's writer."""
    from repro.citation.citefile import dump_citation_bytes
    from repro.citation.function import CitationFunction

    function = CitationFunction()
    for path in sorted(cites):
        function.attach(path, to_citation(cites[path]), is_directory=path == "/" or path in dirs)
    return dump_citation_bytes(function)


def build_hub(plan: Plan, directory, branches: list[str]) -> None:
    """Replay ``plan`` through the program and save it as a working copy (memory storage).

    Fills in each :class:`RefModel`'s ``tip``; every name in ``branches`` is
    created at ``main``'s tip for the workload's clients.
    """
    from repro.vcs.repository import Repository
    from repro.vcs.workingcopy import save_repository

    repo = Repository.init(NAME, OWNER, description="served-hub benchmark fixture")
    dirs = set(plan.dirs)
    tips = []
    for message, changed, cites, day in plan.commits:
        repo.write_files(changed)
        repo.write_file(CITE_PATH, cite_bytes(cites, dirs))
        tips.append(repo.commit(message, author_name=_AUTHORS[day % len(_AUTHORS)],
                                timestamp=_EPOCH + timedelta(days=day)))
    for tag, index in plan.tags.items():
        repo.tag(tag, at=tips[index])
        plan.refs[tag].tip = tips[index]
    plan.refs["main"].tip = tips[-1]
    for branch in branches:
        repo.create_branch(branch, at=tips[-1])
    save_repository(repo, directory)
