"""Integration tests reproducing the paper's artifacts end to end.

These tests assert the *claims* the paper makes about its running example
(Figure 1), its demonstration scenario (Listing 1) and the browser-extension
behaviour (Figure 2).
"""

import json

import pytest

from repro.citation.citefile import CITATION_FILE_PATH
from repro.extension.client import ExtensionClient
from repro.extension.popup import PopupSession
from repro.workloads.scenarios import (
    LISTING1_EXPECTED_ENTRIES,
    LISTING1_EXPECTED_KEYS,
    build_demo_scenario,
    build_extension_scenario,
)


class TestRunningExampleFigure1:
    def test_v1_everything_resolves_to_root_c1(self, running_example):
        ex = running_example
        for path in ("/", "/f1.py", "/lib/util.py", "/lib/io.py"):
            assert ex.manager_p1.cite(path, ref=ex.v1).citation == ex.c1

    def test_addcite_changes_f1_from_c1_to_c2(self, running_example):
        ex = running_example
        assert ex.manager_p1.cite("/f1.py", ref=ex.v1).citation == ex.c1
        assert ex.manager_p1.cite("/f1.py", ref=ex.v2).citation == ex.c2
        # Other nodes are unaffected by the AddCite.
        assert ex.manager_p1.cite("/lib/util.py", ref=ex.v2).citation == ex.c1

    def test_v3_subtree_resolution_in_p2(self, running_example):
        ex = running_example
        assert ex.manager_p2.cite("/", ref=ex.v3).citation == ex.c3
        assert ex.manager_p2.cite("/green", ref=ex.v3).citation == ex.c4
        assert ex.manager_p2.cite("/green/f2.py", ref=ex.v3).citation == ex.c4
        assert not ex.manager_p2.cite("/green/f2.py", ref=ex.v3).is_explicit

    def test_copycite_preserves_f2_resolution_in_v4(self, running_example):
        """The paper: Cite(V3,P2)(f2) = C4 before, Cite(V4,P1)(f2) = C4 after."""
        ex = running_example
        before = ex.manager_p2.cite("/green/f2.py", ref=ex.v3).citation
        after = ex.manager_p1.cite("/green/f2.py", ref=ex.v4).citation
        assert before == after == ex.c4
        # The copied subtree root now carries an explicit citation in V4.
        assert ex.manager_p1.cite("/green", ref=ex.v4).is_explicit

    def test_v4_files_were_physically_copied(self, running_example):
        ex = running_example
        assert ex.p1.path_exists_at(ex.v4, "/green/f2.py")
        assert ex.p1.path_exists_at(ex.v4, "/green/nested/f3.py")
        assert not ex.p1.path_exists_at(ex.v2, "/green/f2.py")

    def test_mergecite_v5_unions_both_citation_functions(self, running_example):
        ex = running_example
        v5_function = ex.manager_p1.citation_function_at(ex.v5)
        assert set(v5_function.active_domain()) == {"/", "/f1.py", "/green"}
        assert ex.manager_p1.cite("/f1.py", ref=ex.v5).citation == ex.c2
        assert ex.manager_p1.cite("/green/f2.py", ref=ex.v5).citation == ex.c4
        assert ex.manager_p1.cite("/lib/io.py", ref=ex.v5).citation == ex.c1
        assert not ex.merge_outcome.citation_result.conflicts  # the example has no conflicts

    def test_v5_is_a_merge_commit_of_v2_and_v4(self, running_example):
        ex = running_example
        commit = ex.p1.store.get_commit(ex.v5)
        assert set(commit.parent_oids) == {ex.v2, ex.v4}

    def test_scenario_is_deterministic(self, running_example):
        from repro.workloads.scenarios import build_running_example

        rebuilt = build_running_example()
        assert rebuilt.v5 == running_example.v5
        assert rebuilt.p1.snapshot(rebuilt.v5) == running_example.p1.snapshot(running_example.v5)


class TestDemoScenarioListing1:
    def test_final_citation_file_has_exactly_the_listing1_keys(self, demo_scenario):
        payload = json.loads(demo_scenario.citation_file_text)
        assert sorted(payload) == sorted(LISTING1_EXPECTED_KEYS) == sorted(LISTING1_EXPECTED_ENTRIES)

    @pytest.mark.parametrize("key", LISTING1_EXPECTED_KEYS)
    def test_entry_values_match_listing1(self, demo_scenario, key):
        payload = json.loads(demo_scenario.citation_file_text)
        actual = payload[key]
        for field, expected in LISTING1_EXPECTED_ENTRIES[key].items():
            assert actual[field] == expected, f"{key}: field {field}"

    def test_corecover_files_resolve_to_chen_li(self, demo_scenario):
        for path in ("/CoreCover/corecover.py", "/CoreCover/lattice.py"):
            resolved = demo_scenario.manager.cite(path)
            assert resolved.citation.owner == "Chen Li"
            assert resolved.citation.authors == ("Chen Li",)
            assert resolved.source_path == "/CoreCover"

    def test_gui_files_credit_yanssie(self, demo_scenario):
        resolved = demo_scenario.manager.cite("/citation/GUI/main_window.py")
        assert resolved.citation.authors == ("Yanssie",)
        # Non-GUI files, under /citation or not, still credit the project root.
        for path in ("/citation/query_processor.py", "/README.md"):
            assert demo_scenario.manager.cite(path).citation.authors == ("Yinjun Wu",)

    def test_history_contains_copycite_and_mergecite(self, demo_scenario):
        messages = [info.summary for info in demo_scenario.citedb.log()]
        assert any("CopyCite" in message for message in messages)
        assert any("MergeCite" in message for message in messages)
        merge_commits = [
            info for info in demo_scenario.citedb.log() if info.commit.is_merge
        ]
        assert len(merge_commits) == 1

    def test_scenario_is_deterministic(self, demo_scenario):
        rebuilt = build_demo_scenario()
        assert rebuilt.citation_file_text == demo_scenario.citation_file_text


class TestExtensionScenarioFigure2:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_extension_scenario()

    def test_non_member_gets_generated_citation_and_no_buttons(self, scenario):
        popup = PopupSession(ExtensionClient(scenario.api))
        popup.sign_in(scenario.non_member_token)
        popup.open_repository(scenario.slug)
        client = ExtensionClient(scenario.api, token=scenario.non_member_token)
        for path, credited in (
            ("/CoreCover/corecover.py", "Chen Li"),
            ("/CoreCover", "Chen Li"),
            ("/schema/eagle_i.sql", "Yinjun Wu"),
        ):
            view = popup.select_node(path)
            assert not view.is_member
            assert credited in view.text_box  # generated citation, copy-paste ready
            assert not view.add_enabled and not view.delete_enabled
            assert client.generate_citation(scenario.slug, path).citation.owner == credited

    def test_member_sees_explicit_citation_for_cited_directory(self, scenario):
        popup = PopupSession(ExtensionClient(scenario.api))
        popup.sign_in(scenario.member_token)
        popup.open_repository(scenario.slug)
        view = popup.select_node("/citation/GUI")
        assert view.is_member
        assert '"Yanssie"' in view.text_box
        assert view.modify_enabled and view.delete_enabled and not view.add_enabled

    def test_member_empty_box_then_generate_then_add(self, scenario):
        popup = PopupSession(ExtensionClient(scenario.api))
        popup.sign_in(scenario.member_token)
        popup.open_repository(scenario.slug)
        view = popup.select_node("/schema/eagle_i.sql")
        assert view.text_box == "" and view.add_enabled
        popup.press_generate()
        popup.press_add()
        assert popup.select_node("/schema/eagle_i.sql").delete_enabled

    def test_extension_changes_are_commits_on_the_hosted_repository(self, scenario):
        member = ExtensionClient(scenario.api, token=scenario.member_token)
        citation = scenario.demo.manager.default_root_citation(authors=["Extension Author"])
        member.add_citation(scenario.slug, "/README.md", citation)
        member.delete_citation(scenario.slug, "/README.md")
        assert member.view_node(scenario.slug, "/README.md").explicit_citation is None
        hosted = scenario.platform.get_repository(scenario.slug)
        history = [info.summary for info in hosted.repo.log(limit=3)]
        assert any("via GitCite extension" in message for message in history)

    def test_citation_file_still_parses_after_extension_edits(self, scenario):
        hosted = scenario.platform.get_repository(scenario.slug)
        from repro.citation.citefile import load_citation_bytes

        data = hosted.repo.read_file_at("HEAD", CITATION_FILE_PATH)
        function = load_citation_bytes(data)
        assert function.has_root


class TestEndToEndCollaboration:
    def test_clone_edit_push_then_remote_citations_visible(self, demo_scenario):
        """The local-tool workflow: clone from the platform, work, push back."""
        from repro.citation.manager import CitationManager
        from repro.hub.api import RestApi
        from repro.hub.server import HostingPlatform
        from repro.hub.sync import HubRemote

        platform = HostingPlatform()
        platform.register_user("maintainer")
        demo = build_demo_scenario()
        demo.citedb.owner = "maintainer"
        platform.host_repository(demo.citedb)
        token = platform.issue_token("maintainer").value

        local = platform.clone("maintainer/Data_citation_demo")
        manager = CitationManager(local)
        citation = manager.default_root_citation(authors=["New Contributor"])
        local.write_file("/analysis/report.py", "# analysis\n")
        manager.add_cite("/analysis/report.py", citation)
        manager.commit("Add analysis with its citation")
        HubRemote(RestApi(platform), "maintainer/Data_citation_demo", token).push(local)

        remote_manager = CitationManager(platform.get_repository("maintainer/Data_citation_demo").repo)
        resolved = remote_manager.cite("/analysis/report.py", ref="HEAD")
        assert resolved.citation.authors == ("New Contributor",)
