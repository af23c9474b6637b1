"""Shared fixtures for the test suite.

All fixtures that create repositories install a deterministic clock so
commits, citations and object ids are reproducible; the clock is reset after
each test.
"""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from repro.citation.manager import CitationManager
from repro.citation.record import Citation
from repro.utils.timeutil import FixedClock, reset_clock, set_clock
from repro.vcs.repository import Repository


@pytest.fixture(autouse=True)
def _fixed_clock():
    """Every test runs under a deterministic, monotonically advancing clock."""
    set_clock(FixedClock(datetime(2018, 9, 1, 12, 0, 0, tzinfo=timezone.utc), step_seconds=60))
    yield
    reset_clock()


@pytest.fixture
def sample_citation() -> Citation:
    """A representative citation record (the paper's Listing 1 root entry)."""
    return Citation(
        repo_name="Data_citation_demo",
        owner="Yinjun Wu",
        committed_date=datetime(2018, 9, 4, 2, 35, 20, tzinfo=timezone.utc),
        commit_id="bbd248a",
        url="https://github.com/thuwuyinjun/Data_citation_demo",
        authors=("Yinjun Wu",),
    )


@pytest.fixture
def other_citation() -> Citation:
    """A second, different citation (the Listing 1 CoreCover entry)."""
    return Citation(
        repo_name="alu01-corecover",
        owner="Chen Li",
        committed_date=datetime(2018, 3, 24, 0, 29, 45, tzinfo=timezone.utc),
        commit_id="5cc951e",
        url="https://github.com/chenlica/alu01-corecover",
        authors=("Chen Li",),
    )


@pytest.fixture
def simple_repo() -> Repository:
    """A repository with one commit containing a small tree."""
    repo = Repository.init("demo", "alice", description="A demo project")
    repo.write_file("src/main.py", "print('hello')\n")
    repo.write_file("src/util/helpers.py", "def helper():\n    return 1\n")
    repo.write_file("docs/guide.md", "# Guide\n")
    repo.write_file("README.md", "# demo\n")
    repo.commit("initial commit", author_name="alice")
    return repo


@pytest.fixture
def enabled_manager(simple_repo: Repository) -> CitationManager:
    """A citation-enabled manager over :func:`simple_repo`."""
    manager = CitationManager(simple_repo)
    manager.init_citations()
    manager.commit("enable citations")
    return manager


@pytest.fixture(scope="session")
def running_example():
    """The Figure 1 running example (built once per session: it is deterministic)."""
    from repro.workloads.scenarios import build_running_example

    return build_running_example()


@pytest.fixture(scope="session")
def demo_scenario():
    """The Listing 1 demonstration scenario (built once per session)."""
    from repro.workloads.scenarios import build_demo_scenario

    return build_demo_scenario()


@pytest.fixture
def remote_for():
    """The remote a transport-contract test talks to: in process by default.

    A test class reruns its contract over REST by overriding this fixture
    with :func:`rest_remote_for`.
    """
    from repro.vcs.remote import LocalRemote

    return LocalRemote


@pytest.fixture
def rest_remote_for():
    """Host a repository on a fresh platform; return a ``HubRemote`` to it over REST."""
    from repro.hub.api import RestApi
    from repro.hub.server import HostingPlatform
    from repro.hub.sync import HubRemote

    def host(repo: Repository) -> HubRemote:
        platform = HostingPlatform()
        platform.host_repository(repo)
        token = platform.issue_token(repo.owner).value
        return HubRemote(RestApi(platform), repo.full_name, token=token)

    return host
