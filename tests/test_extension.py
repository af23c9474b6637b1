"""Tests for the browser-extension simulator: client operations and the Figure 2 popup."""

import base64

import pytest

from repro.citation.citefile import CITATION_FILE_PATH
from repro.errors import (
    AuthenticationError,
    CitationError,
    CitationFileError,
    HubError,
    NotFoundError,
    PermissionDeniedError,
    RateLimitExceededError,
    RemoteError,
    ValidationError,
)
from repro.extension.client import ExtensionClient
from repro.extension.popup import PopupSession
from repro.hub.api import ApiResponse, ApiVerbs, RestApi
from repro.hub.server import HostingPlatform
from repro.hub.sync import HubRemote


@pytest.fixture
def hosted(enabled_manager, sample_citation):
    """The demo repository hosted on a platform, with a member and a non-member."""
    manager = enabled_manager
    manager.add_cite("/src/main.py", sample_citation)
    manager.commit("cite main module")
    platform = HostingPlatform()
    platform.register_user("alice", name="Alice Smith")
    platform.register_user("visitor", name="Just Visiting")
    platform.host_repository(manager.repo)
    return {
        "platform": platform,
        "api": RestApi(platform),
        "slug": "alice/demo",
        "member": platform.issue_token("alice").value,
        "visitor": platform.issue_token("visitor").value,
    }


class TestExtensionClient:
    def test_sign_in(self, hosted):
        client = ExtensionClient(hosted["api"])
        assert client.sign_in(hosted["member"]) == "alice"
        assert client.current_login() == "alice"
        client.sign_out()
        assert client.current_login() is None

    def test_sign_in_with_bad_token_fails(self, hosted):
        client = ExtensionClient(hosted["api"])
        with pytest.raises(PermissionDeniedError):
            client.sign_in("ghs_wrong")

    def test_membership_detection(self, hosted):
        member = ExtensionClient(hosted["api"], token=hosted["member"])
        visitor = ExtensionClient(hosted["api"], token=hosted["visitor"])
        anonymous = ExtensionClient(hosted["api"])
        assert member.is_member(hosted["slug"])
        assert not visitor.is_member(hosted["slug"])
        assert not anonymous.is_member(hosted["slug"])

    def test_generate_citation_for_any_reader(self, hosted, sample_citation):
        visitor = ExtensionClient(hosted["api"], token=hosted["visitor"])
        resolved = visitor.generate_citation(hosted["slug"], "/src/main.py")
        assert resolved.citation == sample_citation
        inherited = visitor.generate_citation(hosted["slug"], "/docs/guide.md")
        assert inherited.source_path == "/" and inherited.inherited

    def test_view_node_carries_membership_and_explicit_entry(self, hosted, sample_citation):
        member = ExtensionClient(hosted["api"], token=hosted["member"])
        view = member.view_node(hosted["slug"], "/src/main.py")
        assert view.is_member and view.explicit_citation == sample_citation
        assert "Data_citation_demo" in view.generated_text

    def test_uncited_repository_reported(self, hosted):
        from repro.vcs.repository import Repository

        platform = hosted["platform"]
        plain = Repository.init("plain", "alice")
        plain.write_file("code.py", "x = 1\n")
        plain.commit("no citations here")
        platform.host_repository(plain)
        client = ExtensionClient(hosted["api"], token=hosted["member"])
        with pytest.raises(CitationFileError):
            client.citation_function("alice/plain")

    def test_member_add_modify_delete_round_trip(self, hosted, other_citation):
        member = ExtensionClient(hosted["api"], token=hosted["member"])
        slug = hosted["slug"]
        member.add_citation(slug, "/docs/guide.md", other_citation)
        assert member.view_node(slug, "/docs/guide.md").explicit_citation == other_citation
        member.modify_citation(slug, "/docs/guide.md", other_citation.with_changes(title="updated"))
        assert member.view_node(slug, "/docs/guide.md").explicit_citation.title == "updated"
        member.delete_citation(slug, "/docs/guide.md")
        assert member.view_node(slug, "/docs/guide.md").explicit_citation is None

    def test_non_member_cannot_mutate(self, hosted, other_citation):
        visitor = ExtensionClient(hosted["api"], token=hosted["visitor"])
        with pytest.raises(PermissionDeniedError):
            visitor.add_citation(hosted["slug"], "/docs/guide.md", other_citation)
        with pytest.raises(PermissionDeniedError):
            visitor.delete_citation(hosted["slug"], "/src/main.py")

    def test_remote_mutation_creates_a_commit(self, hosted, other_citation):
        platform = hosted["platform"]
        before = platform.get_repository(hosted["slug"]).repo.head_oid()
        member = ExtensionClient(hosted["api"], token=hosted["member"])
        commit = member.add_citation(hosted["slug"], "/README.md", other_citation)
        after = platform.get_repository(hosted["slug"]).repo.head_oid()
        assert commit == after != before

    def test_unknown_repository(self, hosted):
        client = ExtensionClient(hosted["api"], token=hosted["member"])
        with pytest.raises(NotFoundError):
            client.repository_info("alice/ghost")


class _CountingApi(ApiVerbs):
    """Forwards to a :class:`RestApi`, recording ``(method, path)`` of each request."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.requests: list[tuple[str, str]] = []

    def request(self, method, url, token=None, payload=None):
        self.requests.append((method, url.split("?")[0]))
        return self.inner.request(method, url, token=token, payload=payload)


class _CannedApi(ApiVerbs):
    """Answers every request with one fixed status."""

    def __init__(self, status: int) -> None:
        self.status = status

    def request(self, method, url, token=None, payload=None):
        return ApiResponse(self.status, {"message": "canned", "retry_after": 7})


class TestTypedErrors:
    @pytest.mark.parametrize(
        "status, extension_error, remote_error",
        [
            (401, AuthenticationError, AuthenticationError),
            (403, PermissionDeniedError, PermissionDeniedError),
            (404, NotFoundError, NotFoundError),
            (422, ValidationError, ValidationError),
            (429, RateLimitExceededError, RateLimitExceededError),
            (500, HubError, RemoteError),
        ],
    )
    def test_status_maps_to_the_same_exception_in_both_clients(
        self, status, extension_error, remote_error
    ):
        with pytest.raises(extension_error) as raised:
            ExtensionClient(_CannedApi(status)).repository_info("alice/demo")
        assert type(raised.value) is extension_error
        with pytest.raises(remote_error) as remote_raised:
            HubRemote(_CannedApi(status), "alice/demo").repository_info()
        assert type(remote_raised.value) is remote_error
        if status == 429:
            assert raised.value.retry_after == remote_raised.value.retry_after == 7

    def test_unchanged_modify_is_a_validation_error(self, hosted, sample_citation):
        member = ExtensionClient(hosted["api"], token=hosted["member"])
        with pytest.raises(ValidationError):
            member.modify_citation(hosted["slug"], "/src/main.py", sample_citation)

    def test_revoked_token_is_an_authentication_error(self, hosted):
        member = ExtensionClient(hosted["api"], token=hosted["member"])
        assert member.view_node(hosted["slug"], "/src/main.py").is_member
        hosted["platform"].tokens.revoke(hosted["member"])
        with pytest.raises(AuthenticationError):
            member.view_node(hosted["slug"], "/src/main.py")
        assert member.current_login() is None
        assert not member.is_member(hosted["slug"])


class TestViewCache:
    def test_repeated_view_parses_once_in_two_requests(self, hosted):
        api = _CountingApi(hosted["api"])
        member = ExtensionClient(api, token=hosted["member"])
        first = member.view_node(hosted["slug"], "/src/main.py", ref="main")
        assert member._parsed.misses == 1
        api.requests.clear()
        for _ in range(5):
            assert member.view_node(hosted["slug"], "/src/main.py", ref="main") == first
        assert member._parsed.misses == 1
        assert len(api.requests) == 10
        assert ("GET", "/user") not in api.requests

    def test_login_is_asked_once_per_token(self, hosted):
        api = _CountingApi(hosted["api"])
        client = ExtensionClient(api, token=hosted["member"])
        assert client.current_login() == client.current_login() == "alice"
        client.token = hosted["visitor"]
        assert client.current_login() == "visitor"
        assert api.requests.count(("GET", "/user")) == 2
        client.sign_out()
        assert client.current_login() is None

    def test_another_clients_edit_shows_up_on_the_next_view(self, hosted, other_citation):
        reader = ExtensionClient(hosted["api"], token=hosted["visitor"])
        writer = ExtensionClient(hosted["api"], token=hosted["member"])
        before = reader.view_node(hosted["slug"], "/src/main.py")
        writer.modify_citation(hosted["slug"], "/src/main.py", other_citation)
        after = reader.view_node(hosted["slug"], "/src/main.py")
        assert after.explicit_citation == other_citation != before.explicit_citation
        assert reader._parsed.misses == 2

    def test_returned_function_is_a_private_copy(self, hosted, sample_citation):
        client = ExtensionClient(hosted["api"], token=hosted["visitor"])
        function = client.citation_function(hosted["slug"])
        function.detach("/src/main.py")
        assert client.citation_function(hosted["slug"]).get_explicit("/src/main.py") == sample_citation
        view = client.view_node(hosted["slug"], "/src/main.py")
        assert view.explicit_citation == sample_citation

    def test_a_write_grant_shows_up_on_the_next_view(self, hosted):
        visitor = ExtensionClient(hosted["api"], token=hosted["visitor"])
        assert not visitor.view_node(hosted["slug"], "/src/main.py").is_member
        hosted["platform"].add_collaborator(hosted["slug"], "visitor", "write")
        assert visitor.view_node(hosted["slug"], "/src/main.py").is_member

    def test_contents_sha_is_the_blob_oid(self, hosted, other_citation):
        api, slug = hosted["api"], hosted["slug"]
        repo = hosted["platform"].get_repository(slug).repo
        url = f"/repos/{slug}/contents{CITATION_FILE_PATH}"
        read = api.get(f"{url}?ref=main", token=hosted["member"]).json
        assert read["sha"] == repo.blob_oid_at("main", CITATION_FILE_PATH)
        content = base64.b64decode(read["content"]).replace(b"Yinjun Wu", b"Y. Wu")
        payload = {"message": "edit", "content": base64.b64encode(content).decode("ascii")}
        written = api.put(url, payload, token=hosted["member"]).json
        assert written["content"]["sha"] == repo.blob_oid_at("main", CITATION_FILE_PATH)
        assert written["content"]["sha"] != read["sha"]


class TestPopupSession:
    def test_non_member_sees_generated_citation_and_disabled_buttons(self, hosted):
        """Figure 2, non-member behaviour (Section 3)."""
        client = ExtensionClient(hosted["api"])
        popup = PopupSession(client)
        popup.sign_in(hosted["visitor"])
        popup.open_repository(hosted["slug"])
        view = popup.select_node("/src/main.py")
        assert not view.is_member
        assert view.text_box == view.generated_text != ""
        assert not view.add_enabled and not view.delete_enabled and not view.modify_enabled
        assert view.generate_enabled
        assert any("not a member" in line for line in view.as_lines())

    def test_member_with_explicit_citation_can_modify_and_delete(self, hosted):
        client = ExtensionClient(hosted["api"])
        popup = PopupSession(client)
        popup.sign_in(hosted["member"])
        popup.open_repository(hosted["slug"])
        view = popup.select_node("/src/main.py")
        assert view.is_member and view.text_box  # explicit citation shown as editable JSON
        assert view.modify_enabled and view.delete_enabled and not view.add_enabled

    def test_member_without_explicit_citation_gets_empty_box_then_generate(self, hosted):
        client = ExtensionClient(hosted["api"])
        popup = PopupSession(client)
        popup.sign_in(hosted["member"])
        popup.open_repository(hosted["slug"])
        view = popup.select_node("/docs/guide.md")
        assert view.is_member and view.text_box == ""
        assert view.add_enabled and not view.delete_enabled
        generated = popup.press_generate()
        assert "repoName" in generated
        popup.press_add()
        refreshed = popup.select_node("/docs/guide.md")
        assert refreshed.text_box != "" and refreshed.delete_enabled

    def test_full_member_workflow_add_modify_delete(self, hosted, other_citation):
        client = ExtensionClient(hosted["api"])
        popup = PopupSession(client)
        popup.sign_in(hosted["member"])
        popup.open_repository(hosted["slug"])
        popup.select_node("/README.md")
        popup.edit_text_box(other_citation)
        popup.press_add()
        popup.select_node("/README.md")
        popup.edit_text_box(other_citation.with_changes(title="better title"))
        popup.press_modify()
        view = popup.select_node("/README.md")
        assert '"title": "better title"' in view.text_box
        popup.press_delete()
        assert popup.select_node("/README.md").text_box == ""

    def test_too_deep_text_box_is_an_invalid_citation(self, hosted):
        popup = PopupSession(ExtensionClient(hosted["api"]))
        popup.sign_in(hosted["member"])
        popup.open_repository(hosted["slug"])
        popup.select_node("/README.md")
        for text in ("[" * 200_000, "{"):
            popup._text_box = text  # what a user typed into the box
            with pytest.raises(CitationError, match="does not contain a valid citation"):
                popup.press_add()

    def test_cannot_act_without_selecting_a_node(self, hosted):
        popup = PopupSession(ExtensionClient(hosted["api"], token=hosted["member"]))
        with pytest.raises(CitationError):
            popup.select_node("/x.py")  # no repository opened yet
        popup.open_repository(hosted["slug"])
        with pytest.raises(CitationError):
            popup.press_generate()

    def test_add_with_empty_box_rejected(self, hosted):
        popup = PopupSession(ExtensionClient(hosted["api"], token=hosted["member"]))
        popup.sign_in(hosted["member"])
        popup.open_repository(hosted["slug"])
        popup.select_node("/docs/guide.md")
        with pytest.raises(CitationError):
            popup.press_add()
