"""Unit tests for consistency checking, ForkCite helpers and retroactive citation."""

from datetime import datetime, timezone

import pytest

from repro.citation.consistency import MISSING_ROOT, ORPHAN_PATH, WRONG_KIND, check_consistency, repair
from repro.citation.fork import fork_citation, rewrite_fork_root
from repro.citation.function import CitationFunction
from repro.citation.retro import attribute_history, build_retroactive_function, retrofit
from repro.vcs.repository import Repository


class TestConsistency:
    def test_consistent_function(self, sample_citation):
        function = CitationFunction.with_root(sample_citation)
        function.put("/src/a.py", sample_citation, False)
        function.put("/src", sample_citation, True)
        report = check_consistency(function, {"/src/a.py"}, {"/src"})
        assert report.is_consistent

    def test_missing_root_detected(self, sample_citation):
        function = CitationFunction()
        function.put("/a.py", sample_citation, False)
        report = check_consistency(function, {"/a.py"}, set())
        assert [v.kind for v in report.violations] == [MISSING_ROOT]

    def test_orphan_and_wrong_kind_detected(self, sample_citation):
        function = CitationFunction.with_root(sample_citation)
        function.put("/gone.py", sample_citation, False)
        function.put("/actually_a_dir", sample_citation, False)
        function.put("/actually_a_file.py", sample_citation, True)
        report = check_consistency(
            function, {"/actually_a_file.py"}, {"/actually_a_dir"}
        )
        kinds = {v.path: v.kind for v in report.violations}
        assert kinds["/gone.py"] == ORPHAN_PATH
        assert kinds["/actually_a_dir"] == WRONG_KIND
        assert kinds["/actually_a_file.py"] == WRONG_KIND
        assert report.paths() == sorted(kinds)
        assert len(report.by_kind(WRONG_KIND)) == 2

    def test_repair_fixes_everything_fixable(self, sample_citation):
        function = CitationFunction()
        function.put("/gone.py", sample_citation, False)
        function.put("/dir", sample_citation, False)
        repair(function, set(), {"/dir"}, root_citation=sample_citation)
        after = check_consistency(function, set(), {"/dir"})
        assert after.is_consistent
        assert function.has_root
        assert function.entry("/dir").is_directory


class TestForkCite:
    def test_fork_citation_preserves_credit_and_records_origin(self, sample_citation):
        when = datetime(2019, 5, 1, tzinfo=timezone.utc)
        forked = fork_citation(
            sample_citation,
            new_owner="Susan",
            new_repo_name="P2",
            new_url="https://github.com/Susan/P2",
            forked_at=when,
            fork_commit_id="abc1234",
        )
        assert forked.owner == "Susan" and forked.repo_name == "P2"
        assert forked.authors == sample_citation.authors  # credit preserved
        assert dict(forked.extra)["forkedFrom"] == "Yinjun Wu/Data_citation_demo@bbd248a"
        assert forked.commit_id == "abc1234"

    def test_rewrite_fork_root_keeps_other_entries(self, sample_citation, other_citation):
        function = CitationFunction.with_root(sample_citation)
        function.put("/CoreCover", other_citation, True)
        new_root = sample_citation.with_changes(owner="Susan")
        rewritten = rewrite_fork_root(function, new_root)
        assert rewritten.root_citation().owner == "Susan"
        assert rewritten.get_explicit("/CoreCover") == other_citation
        assert function.root_citation().owner == "Yinjun Wu"  # original untouched


@pytest.fixture
def multi_author_repo() -> Repository:
    repo = Repository.init("legacy", "alice", description="A legacy project")
    repo.write_file("core/engine.py", "v1\n")
    repo.write_file("README.md", "readme\n")
    repo.commit("core engine", author_name="Alice")
    repo.write_file("gui/window.py", "w1\n")
    repo.commit("gui", author_name="Bob")
    repo.write_file("core/engine.py", "v2\n")
    repo.commit("engine improvements", author_name="Carol")
    repo.write_file("gui/dialog.py", "d1\n")
    repo.commit("more gui", author_name="Bob")
    return repo


class TestRetroactiveCitation:
    def test_attribution_tracks_authors_per_file(self, multi_author_repo):
        index = attribute_history(multi_author_repo)
        assert index.commits_scanned == 4
        assert index.files["/core/engine.py"].authors == ["Alice", "Carol"]
        assert index.files["/gui/window.py"].authors == ["Bob"]
        assert set(index.all_authors()) == {"Alice", "Bob", "Carol"}

    def test_attribution_follows_renames(self, multi_author_repo):
        multi_author_repo.move_file("/core/engine.py", "/core/machine.py")
        multi_author_repo.commit("rename engine", author_name="Dave")
        index = attribute_history(multi_author_repo)
        assert "/core/engine.py" not in index.files
        assert index.files["/core/machine.py"].authors == ["Alice", "Carol"]

    def test_deleted_files_not_attributed(self, multi_author_repo):
        multi_author_repo.remove_file("/gui/dialog.py")
        multi_author_repo.commit("drop dialog", author_name="Alice")
        index = attribute_history(multi_author_repo)
        assert "/gui/dialog.py" not in index.files

    def test_root_granularity(self, multi_author_repo):
        report = build_retroactive_function(multi_author_repo, granularity="root")
        assert report.entries_created == 1
        assert set(report.function.root_citation().authors) == {"Alice", "Bob", "Carol"}

    def test_directory_granularity_cites_divergent_directories(self, multi_author_repo):
        report = build_retroactive_function(multi_author_repo, granularity="directory")
        domain = report.function.active_domain()
        assert "/gui" in domain  # only Bob worked there, differs from the root's set
        assert report.function.resolve("/gui/window.py").citation.authors == ("Bob",)

    def test_file_granularity_is_finest(self, multi_author_repo):
        root = build_retroactive_function(multi_author_repo, granularity="root")
        directory = build_retroactive_function(multi_author_repo, granularity="directory")
        file_level = build_retroactive_function(multi_author_repo, granularity="file")
        assert root.entries_created <= directory.entries_created <= file_level.entries_created
        assert file_level.function.resolve("/core/engine.py").citation.authors == ("Alice", "Carol")

    def test_retrofit_commits_citation_file(self, multi_author_repo):
        report = retrofit(multi_author_repo, granularity="directory")
        assert multi_author_repo.file_exists("/citation.cite")
        assert multi_author_repo.log()[0].summary == "Add retroactive citations"
        assert report.contributors  # mined from history

    def test_retro_report_counts(self, multi_author_repo):
        report = build_retroactive_function(multi_author_repo, granularity="file")
        assert report.commits_scanned == 4
        assert report.granularity == "file"
        assert len(report.contributors) == 3
