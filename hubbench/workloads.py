"""The three traffic mixes the benchmark drives against a served hub.

Each workload is a closed loop of one client: it sends its next operation
only after the previous one has returned.  An operation is what a user sees
as one action, usually several HTTP requests, and it checks its own answer
against the seeded plan.  Operations are dealt in cycles of :data:`CYCLE`
with fixed proportions, shuffled per cycle, so every seed gives the same mix.

The proportions are not measured traffic.  The citation operations follow
the operation mix the repository's own trace generator uses,
``repro.workloads.generator.DEFAULT_MIX`` (generate 0.4, add 0.3, modify 0.2,
delete 0.1); the paper reports no usage figures to take them from.

* **browse** — a reader using the browser extension: GenCite views of a node
  at a release tag or ``main``.  Generate is the only operation of the mix a
  reader can make, so browse is all GenCite.  Read only; exercises routing,
  ref resolution, tree walks and blob reads.
* **curate** — a project member using the extension with the full mix:
  GenCite views, and AddCite, ModifyCite and DelCite, each a
  ``citation.cite`` download and a contents-API commit on a topic branch
  that the hub journals and fsyncs before it answers.
* **sync** — developers with local clones, each on an own branch, working
  in pairs: fetch the colleague's branch over ``git/upload-pack``, record
  it as ``seen-<n>``, commit two file edits and push the own branch over
  ``git/receive-pack``.  Exercises negotiation, bundle delta encoding,
  verification and the journalled ref update.
"""

from __future__ import annotations

import math
import random

from fixture import CITE_PATH, SLUG, Cite, Plan, RefModel, edit, to_citation

#: Operations per cycle.
CYCLE = 10
#: ``repro.workloads.generator.DEFAULT_MIX`` as counts per cycle, copied so
#: the benchmark's inputs stay the same whatever the program changes.
MIX = {"generate": 4, "add": 3, "modify": 2, "delete": 1}


class Mismatch(Exception):
    """The hub answered, but not what the plan says it must."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


class Client:
    """The client's seeded RNG plus whatever the workload needs."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed * 1009)


class Workload:
    """Defaults: no extra branches, nothing to prepare.

    One closed-loop client keeps about one of the two processes busy at a
    time.  With two clients both stayed busy, edits queued on the server's
    per-repository lock, and on a shared two-core machine the curate median
    differed by a quarter between runs.
    """

    def __init__(self, plan: Plan, seconds: float) -> None:
        self.plan = plan
        self.paths = plan.all_paths()

    def branches(self) -> list[str]:
        return []

    def prepare(self, directory) -> None:
        """Work done on the saved hub before ``gitcite serve`` starts."""

    def connect(self, api, token: str, seed: int) -> Client:
        from repro.extension.client import ExtensionClient

        client = Client(seed)
        client.ext = ExtensionClient(api, token=token)
        return client

    def view(self, client: Client, model: RefModel, path: str) -> None:
        """GenCite of ``path`` at ``model``'s ref, checked against the model."""
        view = client.ext.view_node(SLUG, path, ref=model.name)
        source, cite = model.resolve(path)
        _check(view.is_member, "the owner's token is not a member")
        _check(view.resolved.source_path == source,
               f"{path}@{model.name} resolved from {view.resolved.source_path}, not {source}")
        _check(view.resolved.citation == to_citation(cite),
               f"{path}@{model.name} has the wrong citation")


class Browse(Workload):
    name = "browse"

    def cycle(self, client: Client) -> list:
        rng = client.rng
        refs = sorted(self.plan.refs)
        return [lambda m=self.plan.refs[rng.choice(refs)], p=rng.choice(self.paths):
                self.view(client, m, p) for _ in range(CYCLE)]

    def audit(self, repo, client: Client) -> list[str]:
        return [
            f"{name} moved" for name, model in self.plan.refs.items()
            if repo.resolve(name) != model.tip
        ]


class Curate(Workload):
    name = "curate"
    #: Each cycle goes to its own topic branch, the way a web editor proposes
    #: a branch per change.  On one long-lived branch every edit is slower
    #: than the last (see README), so an edit's cost would depend on how many
    #: edits the run had already made.  Topic branches are made with the
    #: fixture, enough for this many cycles a second.  Each one costs serve
    #: start-up a little (fsck walks every ref), so there are only a few more
    #: than the program uses; a faster program reuses them round-robin, each
    #: then one cycle longer.
    TOPICS_PER_SECOND = 10

    def __init__(self, plan: Plan, seconds: float) -> None:
        super().__init__(plan, seconds)
        self.topics = self.TOPICS_PER_SECOND * math.ceil(seconds) + 1

    def branches(self) -> list[str]:
        return [f"topic-{number}" for number in range(self.topics)]

    def connect(self, api, token: str, seed: int) -> Client:
        client = super().connect(api, token, seed)
        client.cycles = 0
        client.edits = 0
        #: branch -> model of its last acknowledged commit
        client.topics = {}
        return client

    def cycle(self, client: Client) -> list:
        main = self.plan.refs["main"]
        branch = f"topic-{client.cycles % self.topics}"
        client.cycles += 1
        topic = client.topics.setdefault(
            branch, RefModel(branch, dict(main.cites), main.paths, main.depth, main.tip))
        kinds = [kind for kind, count in MIX.items() for _ in range(count)]
        client.rng.shuffle(kinds)
        return [lambda kind=kind: self.operation(client, topic, kind) for kind in kinds]

    def operation(self, client: Client, topic: RefModel, kind: str) -> None:
        rng, cites = client.rng, topic.cites
        if kind == "generate":
            self.view(client, topic, rng.choice(self.paths))
            return
        client.edits += 1
        cite = Cite(f"{rng.getrandbits(28):07x}", ("Curator",),
                    f"edit {client.edits}", client.edits % 300)
        uncited = [path for path in self.paths if path not in cites]
        deletable = sorted(path for path in cites if path != "/")
        if kind == "add" and uncited:
            path = rng.choice(uncited)
            sha = client.ext.add_citation(SLUG, path, to_citation(cite), ref=topic.name,
                                          is_directory=path in self.plan.dirs)
            cites[path] = cite
        elif kind == "delete" and deletable:
            path = rng.choice(deletable)
            sha = client.ext.delete_citation(SLUG, path, ref=topic.name)
            del cites[path]
        else:
            path = rng.choice(sorted(cites))
            sha = client.ext.modify_citation(SLUG, path, to_citation(cite), ref=topic.name)
            cites[path] = cite
        _check(isinstance(sha, str) and len(sha) == 40, f"{kind} {path} returned no commit")
        topic.tip = sha

    def audit(self, repo, client: Client) -> list[str]:
        from repro.citation.citefile import load_citation_bytes

        problems = []
        for branch, topic in client.topics.items():
            tip = repo.resolve(branch)
            if tip != topic.tip:
                problems.append(f"{branch} is at {tip}, last acknowledged {topic.tip}")
                continue
            stored = load_citation_bytes(repo.read_file_at(tip, CITE_PATH))
            expected = {path: to_citation(cite) for path, cite in topic.cites.items()}
            if {entry.path: entry.citation for entry in stored} != expected:
                problems.append(f"{branch}: citation.cite differs from the edits made")
        return problems


class Developer:
    """One local clone working on its own ``dev-<n>`` branch."""

    def __init__(self, number: int, colleague: int, local, tip: str) -> None:
        self.local = local
        self.branch = f"dev-{number}"
        self.colleague = f"dev-{colleague}"
        self.seen = f"seen-{number}"
        self.tip = self.fetched = tip


class Sync(Workload):
    name = "sync"
    # The client drives a pair of developers who fetch each other's work in
    # turn, so every fetch carries one round of the colleague's commits.
    # (With two independent clients the faster one starves the slower, whose
    # fetches then grow without bound.)

    def __init__(self, plan: Plan, seconds: float) -> None:
        super().__init__(plan, seconds)
        self.locals: list = []

    def branches(self) -> list[str]:
        return [f"{kind}-{number}" for number in (0, 1) for kind in ("dev", "seen")]

    def prepare(self, directory) -> None:
        """Each developer starts from a local copy of the hub's working copy."""
        from repro.vcs.workingcopy import load_repository

        self.locals = []
        for number in (0, 1):
            local = load_repository(directory)
            local.checkout(f"dev-{number}")
            self.locals.append(local)

    def connect(self, api, token: str, seed: int) -> Client:
        from repro.hub.sync import HubRemote

        tip = self.plan.refs["main"].tip
        client = Client(seed)
        client.remote = HubRemote(api, SLUG, token=token)
        client.developers = [Developer(0, 1, self.locals[0], tip),
                             Developer(1, 0, self.locals[1], tip)]
        return client

    def cycle(self, client: Client) -> list:
        return [lambda turn=turn: self.round(client, client.developers[turn % 2])
                for turn in range(CYCLE)]

    def round(self, client: Client, dev: Developer) -> None:
        """Fetch the colleague's branch, commit two edits, push the own branch."""
        local, rng, remote = dev.local, client.rng, client.remote
        fetched = remote.fetch_branch(local, dev.colleague)
        _check(fetched in local.store, f"fetch of {dev.colleague} left {fetched} missing")
        if fetched != dev.fetched:
            # Publish what was fetched as seen-<n>: traffic the benchmark
            # adds, not a developer.  HubRemote offers as haves only commits
            # it can prove the hub holds (history of an advertised tip it
            # has); without this ref every fetch would resend the colleague's
            # whole branch.
            local.refs.set_branch(dev.seen, fetched)
            self.push(remote, local, dev.seen)
            dev.fetched = fetched
        for path in rng.sample(self.plan.files, 2):
            local.write_file(path, edit(rng, local.read_file_at("HEAD", path)))
        local.commit(f"{dev.branch} edits", author_name=dev.branch)
        dev.tip = self.push(remote, local, dev.branch)

    @staticmethod
    def push(remote, local, branch: str) -> str:
        tip = local.refs.branch_target(branch)
        report = remote.push(local, branch)
        _check(report["updated"].get(branch) == tip, f"push of {branch} not applied")
        return tip

    def audit(self, repo, client: Client) -> list[str]:
        from repro.vcs.merge import is_ancestor_commit

        problems = []
        for dev in client.developers:
            if repo.resolve(dev.branch) != dev.tip:
                problems.append(f"{dev.branch} is not at its last acknowledged push")
            if not is_ancestor_commit(repo.store, dev.fetched, repo.resolve(dev.colleague)):
                problems.append(f"{dev.branch} fetched a commit not on {dev.colleague}")
        return problems


WORKLOADS = {workload.name: workload for workload in (Browse, Curate, Sync)}
