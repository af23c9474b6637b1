"""Deterministic builders for the paper's own scenarios.

Three scenarios are reproduced:

* :func:`build_running_example` — the right half of Figure 1: project ``P1``
  with versions ``V1`` (initial, root citation ``C1``), ``V2`` (AddCite
  attaches ``C2`` to ``f1``), project ``P2`` whose version ``V3`` carries the
  root citation ``C3`` and a subtree citation ``C4``; CopyCite brings that
  subtree into a branch of ``P1`` producing ``V4``; MergeCite merges ``V2``
  and ``V4`` into ``V5``.
* :func:`build_demo_scenario` — the Section 4 demonstration: Yinjun Wu's
  ``Data_citation_demo`` (CiteDB) repository, with the CoreCover query
  rewriting code imported from Chen Li's ``alu01-corecover`` via CopyCite and
  the GUI developed by the student Yanssie on a branch and MergeCite'd back —
  ending in exactly the ``citation.cite`` entries of Listing 1.
* :func:`build_extension_scenario` — the Figure 2 setting: the demo
  repository hosted on the platform, one member token (the owner) and one
  non-member token (an outside researcher).

All builders use fixed timestamps and author identities so repeated runs
produce byte-identical ``citation.cite`` files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from repro.citation.citefile import CITATION_FILE_PATH, loads_citation_file
from repro.citation.conflict import TheirsStrategy
from repro.citation.function import CitationFunction
from repro.citation.manager import CitationManager, MergeCiteOutcome
from repro.citation.record import Citation
from repro.hub.api import RestApi
from repro.hub.server import HostingPlatform
from repro.utils.timeutil import parse_timestamp
from repro.vcs.remote import clone_repository
from repro.vcs.repository import Repository

__all__ = [
    "RunningExample",
    "DemoScenario",
    "ExtensionScenario",
    "LISTING1_EXPECTED_KEYS",
    "build_running_example",
    "build_demo_scenario",
    "build_extension_scenario",
]


def _ts(text: str) -> datetime:
    return parse_timestamp(text)


# ---------------------------------------------------------------------------
# Figure 1 running example
# ---------------------------------------------------------------------------


@dataclass
class RunningExample:
    """The repositories, versions and citations of Figure 1 (right half)."""

    p1: Repository
    p2: Repository
    manager_p1: CitationManager
    manager_p2: CitationManager
    v1: str
    v2: str
    v3: str
    v4: str
    v5: str
    c1: Citation
    c2: Citation
    c3: Citation
    c4: Citation
    copied_subtree: str
    merge_outcome: MergeCiteOutcome


def build_running_example() -> RunningExample:
    """Recreate the Figure 1 running example step by step."""
    # ----- Project P1, version V1: a small tree with only the root cited (C1).
    p1 = Repository.init("P1", "Leshang", description="Running example project P1")
    p1.write_file("f1.py", "def f1():\n    return 1\n")
    p1.write_file("lib/util.py", "def helper():\n    return 'util'\n")
    p1.write_file("lib/io.py", "def read():\n    return b''\n")
    p1.commit("V1: initial tree", author_name="Leshang", timestamp=_ts("2019-01-01T10:00:00Z"))
    manager_p1 = CitationManager(p1)
    c1 = manager_p1.default_root_citation(
        authors=("Leshang",), timestamp=_ts("2019-01-01T10:00:00Z")
    ).with_changes(license="115490")
    manager_p1.init_citations(c1)
    v1 = manager_p1.commit("V1: attach default root citation C1",
                           author_name="Leshang", timestamp=_ts("2019-01-01T10:05:00Z"))

    # ----- Version V2: AddCite attaches C2 to the leftmost leaf f1.
    c2 = c1.with_changes(
        authors=("Leshang", "Susan"),
        committed_date=_ts("2019-01-02T09:00:00Z"),
        title="The f1 module of P1",
    )
    manager_p1.add_cite("/f1.py", c2)
    v2 = manager_p1.commit("V2: AddCite C2 on f1",
                           author_name="Leshang", timestamp=_ts("2019-01-02T09:00:00Z"))

    # ----- Project P2, version V3: root cited with C3, subtree root cited with C4,
    #       f2 inside the subtree has no explicit citation (it inherits C4).
    p2 = Repository.init("P2", "Susan", description="Running example project P2")
    p2.write_file("green/f2.py", "def f2():\n    return 2\n")
    p2.write_file("green/nested/f3.py", "def f3():\n    return 3\n")
    p2.write_file("docs/notes.md", "notes\n")
    p2.commit("V3: initial tree", author_name="Susan", timestamp=_ts("2019-01-03T12:00:00Z"))
    manager_p2 = CitationManager(p2)
    c3 = manager_p2.default_root_citation(
        authors=("Susan",), timestamp=_ts("2019-01-03T12:00:00Z")
    ).with_changes(license="256497")
    manager_p2.init_citations(c3)
    c4 = c3.with_changes(
        authors=("Susan", "A. Contributor"),
        title="The green subtree of P2",
        committed_date=_ts("2019-01-03T12:30:00Z"),
    )
    manager_p2.add_cite("/green", c4)
    v3 = manager_p2.commit("V3: root citation C3, subtree citation C4",
                           author_name="Susan", timestamp=_ts("2019-01-03T12:30:00Z"))

    # ----- Version V4: on a branch of P1 (from V1), CopyCite the green subtree of V3.
    p1.create_branch("import-green", at=v1)
    p1.checkout("import-green")
    manager_p1.reload()
    manager_p1.copy_cite(p2, "/green", "/green", source_ref=v3)
    v4 = manager_p1.commit("V4: CopyCite green subtree from P2@V3",
                           author_name="Leshang", timestamp=_ts("2019-01-04T15:00:00Z"))

    # ----- Version V5: MergeCite V2 (main) and V4 (import-green).
    p1.checkout("main")
    manager_p1.reload()
    merge_outcome = manager_p1.merge_cite(
        "import-green",
        strategy=TheirsStrategy(),
        message="V5: MergeCite V2 and V4",
        timestamp=_ts("2019-01-05T16:00:00Z"),
    )
    v5 = merge_outcome.commit_oid

    return RunningExample(
        p1=p1,
        p2=p2,
        manager_p1=manager_p1,
        manager_p2=manager_p2,
        v1=v1,
        v2=v2,
        v3=v3,
        v4=v4,
        v5=v5,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        copied_subtree="/green",
        merge_outcome=merge_outcome,
    )


# ---------------------------------------------------------------------------
# Listing 1 demonstration scenario
# ---------------------------------------------------------------------------

#: The keys Listing 1 shows in the final citation.cite of the demo repository.
LISTING1_EXPECTED_KEYS = ("/", "/CoreCover/", "/citation/GUI/")

#: The exact field values of Listing 1 (whitespace of the paper's typesetting removed).
LISTING1_EXPECTED_ENTRIES: dict[str, dict] = {
    "/": {
        "repoName": "Data_citation_demo",
        "owner": "Yinjun Wu",
        "committedDate": "2018-09-04T02:35:20Z",
        "commitID": "bbd248a",
        "url": "https://github.com/thuwuyinjun/Data_citation_demo",
        "authorList": ["Yinjun Wu"],
    },
    "/CoreCover/": {
        "repoName": "alu01-corecover",
        "owner": "Chen Li",
        "committedDate": "2018-03-24T00:29:45Z",
        "commitID": "5cc951e",
        "url": "https://github.com/chenlica/alu01-corecover",
        "authorList": ["Chen Li"],
    },
    "/citation/GUI/": {
        "repoName": "Data_citation_demo",
        "owner": "Yinjun Wu",
        "committedDate": "2017-06-16T20:57:06Z",
        "commitID": "2dd6813",
        "url": "https://github.com/thuwuyinjun/Data_citation_demo",
        "authorList": ["Yanssie"],
    },
}


@dataclass
class DemoScenario:
    """The Section 4 demonstration: the CiteDB repository with its citations."""

    citedb: Repository
    corecover: Repository
    manager: CitationManager
    corecover_manager: CitationManager
    final_commit: str
    citation_file_text: str
    citation_function: CitationFunction


def build_demo_scenario() -> DemoScenario:
    """Recreate the CiteDB demonstration repository and its Listing 1 citation file."""
    # ----- Chen Li's CoreCover implementation (the remote project CopyCite imports).
    corecover = Repository.init(
        "alu01-corecover", "Chen Li", description="Implementation of the CoreCover algorithm"
    )
    corecover.write_file("CoreCover/corecover.py", "# CoreCover query rewriting using views\n")
    corecover.write_file("CoreCover/lattice.py", "# lattice construction\n")
    corecover.write_file("CoreCover/tests/test_rewrite.py", "def test_rewrite():\n    assert True\n")
    corecover.write_file("README.md", "# alu01-corecover\n")
    corecover.commit(
        "CoreCover implementation", author_name="Chen Li", timestamp=_ts("2018-03-24T00:29:45Z")
    )
    corecover_manager = CitationManager(corecover)
    corecover_root = Citation.from_dict(LISTING1_EXPECTED_ENTRIES["/CoreCover/"])
    corecover_manager.init_citations(corecover_root)
    corecover_manager.commit(
        "Enable citations", author_name="Chen Li", timestamp=_ts("2018-03-24T00:30:00Z")
    )

    # ----- Yinjun Wu's Data_citation_demo (CiteDB) repository.
    citedb = Repository.init(
        "Data_citation_demo",
        "Yinjun Wu",
        description="Demonstration Code for Data Citation (CiteDB)",
    )
    citedb.write_file("citation/query_processor.py", "# CiteDB query processing\n")
    citedb.write_file("citation/citation_builder.py", "# builds citations for query results\n")
    citedb.write_file("schema/eagle_i.sql", "-- eagle-i schema\n")
    citedb.write_file("README.md", "# Data citation demo\n")
    citedb.commit(
        "Initial CiteDB code", author_name="Yinjun Wu", timestamp=_ts("2017-06-01T09:00:00Z")
    )
    manager = CitationManager(citedb)
    root_citation = Citation.from_dict(LISTING1_EXPECTED_ENTRIES["/"])
    manager.init_citations(root_citation)
    manager.commit(
        "Enable citations", author_name="Yinjun Wu", timestamp=_ts("2017-06-02T09:00:00Z")
    )

    # ----- The summer student Yanssie develops the GUI on a separate branch.
    citedb.create_branch("gui-development")
    citedb.checkout("gui-development")
    manager.reload()
    citedb.write_file("citation/GUI/main_window.py", "# CiteDB demo GUI main window\n")
    citedb.write_file("citation/GUI/result_view.py", "# shows query results with citations\n")
    gui_citation = Citation.from_dict(LISTING1_EXPECTED_ENTRIES["/citation/GUI/"])
    manager.add_cite("/citation/GUI", gui_citation)
    manager.commit(
        "GUI for the CiteDB demo", author_name="Yanssie", timestamp=_ts("2017-06-16T20:57:06Z")
    )

    # ----- Meanwhile the main branch evolves (so the merge is a real merge).
    citedb.checkout("main")
    manager.reload()
    citedb.write_file("citation/query_processor.py", "# CiteDB query processing (optimised)\n")
    manager.commit(
        "Optimise query processing", author_name="Yinjun Wu", timestamp=_ts("2017-07-01T10:00:00Z")
    )

    # ----- CopyCite: import CoreCover from Chen Li's repository.
    manager.copy_cite(corecover, "/CoreCover", "/CoreCover")
    manager.commit(
        "CopyCite CoreCover from chenlica/alu01-corecover",
        author_name="Yinjun Wu",
        timestamp=_ts("2018-03-25T11:00:00Z"),
    )

    # ----- MergeCite: merge the GUI branch back into main.
    manager.merge_cite(
        "gui-development",
        strategy=TheirsStrategy(),
        message="MergeCite gui-development into main",
        timestamp=_ts("2018-08-30T14:00:00Z"),
    )

    # ----- Final state: the root citation reflects the released version of Listing 1.
    final_commit = manager.commit(
        "Release: final demonstration state",
        author_name="Yinjun Wu",
        timestamp=_ts("2018-09-04T02:35:20Z"),
        allow_empty=True,
    )

    text = citedb.file_text(CITATION_FILE_PATH)
    return DemoScenario(
        citedb=citedb,
        corecover=corecover,
        manager=manager,
        corecover_manager=corecover_manager,
        final_commit=final_commit,
        citation_file_text=text,
        citation_function=loads_citation_file(text),
    )


# ---------------------------------------------------------------------------
# Figure 2 extension scenario
# ---------------------------------------------------------------------------


@dataclass
class ExtensionScenario:
    """The hosted setting of the Figure 2 browser-extension walkthrough."""

    platform: HostingPlatform
    api: RestApi
    slug: str
    owner_login: str
    member_token: str
    non_member_token: str
    demo: DemoScenario


def build_extension_scenario() -> ExtensionScenario:
    """Host the demo repository and create a member and a non-member account."""
    demo = build_demo_scenario()
    platform = HostingPlatform()
    platform.register_user("thuwuyinjun", name="Yinjun Wu")
    platform.register_user("reader", name="Outside Researcher")
    # Host clones under their owners' platform logins (the display names used
    # inside citations stay "Yinjun Wu" / "Chen Li").  A hosted repository is
    # bare, so the demo's local managers keep repositories of their own.
    platform.host_repository(clone_repository(demo.citedb, owner="thuwuyinjun"))
    platform.host_repository(clone_repository(demo.corecover, owner="chenlica"))
    member_token = platform.issue_token("thuwuyinjun").value
    non_member_token = platform.issue_token("reader").value
    return ExtensionScenario(
        platform=platform,
        api=RestApi(platform),
        slug="thuwuyinjun/Data_citation_demo",
        owner_login="thuwuyinjun",
        member_token=member_token,
        non_member_token=non_member_token,
        demo=demo,
    )
