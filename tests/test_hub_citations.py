"""The hub's citation routes: GenCite (``GET cite``) and Add/Modify/DelCite (``POST citations``).

Covers the status table of both routes through :class:`RestApi`, the
one-request cost of each extension operation, percent-encoded paths over a
live :class:`HubHttpServer`, interop with clients that still use the
contents routes, the hub's seeded parse cache, and atomic read-modify-write
under concurrent members.
"""

from __future__ import annotations

import base64
import sys
import threading
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.citation.citefile import CITATION_FILE_PATH, load_citation_bytes
from repro.citation.manager import CitationManager
from repro.citation.record import Citation
from repro.errors import (
    AuthenticationError,
    CitationFileError,
    CorruptObjectError,
    PermissionDeniedError,
    ValidationError,
)
from repro.extension.client import ExtensionClient
from repro.hub.api import ApiVerbs, RestApi
from repro.hub.httpd import HttpTransport, HubHttpServer
from repro.hub.server import HostingPlatform
from repro.vcs.objects import Blob
from repro.vcs.repository import Repository

SLUG = "alice/demo"
CITE_URL = f"/repos/{SLUG}/cite"
POST_URL = f"/repos/{SLUG}/citations"


def _hosted_demo(root: Citation, cited: Citation) -> dict:
    repo = Repository.init("demo", "alice")
    repo.write_files({"/src/main.py": "print('hi')\n", "/docs/guide.md": "# Guide\n"})
    repo.commit("initial", author_name="alice")
    manager = CitationManager(repo)
    manager.init_citations(root)
    manager.add_cite("/src/main.py", cited)
    manager.commit("cite main module")
    platform = HostingPlatform()
    platform.register_user("alice", name="Alice Smith")
    platform.register_user("bob", name="Bob Jones")
    platform.register_user("visitor")
    platform.host_repository(repo)
    platform.add_collaborator(SLUG, "bob", "write")
    return {
        "platform": platform,
        "api": RestApi(platform),
        "repo": repo,
        "alice": platform.issue_token("alice").value,
        "bob": platform.issue_token("bob").value,
        "visitor": platform.issue_token("visitor").value,
    }


@pytest.fixture
def hosted(sample_citation, other_citation):
    return _hosted_demo(sample_citation, other_citation)


class _CountingApi(ApiVerbs):
    def __init__(self, inner) -> None:
        self.inner = inner
        self.requests: list[tuple[str, str]] = []

    def request(self, method, url, token=None, payload=None):
        self.requests.append((method, url))
        return self.inner.request(method, url, token=token, payload=payload)


def _add(path: str, citation: Citation, **extra) -> dict:
    return {"op": "add", "path": path, "citation": citation.to_dict(), **extra}


def _committed(hosted, branch: str = "main"):
    return load_citation_bytes(hosted["repo"].read_file_at(branch, CITATION_FILE_PATH))


def _seeded(hosted, sha: str):
    """The hub's cached parse of ``sha``; fails if the hub would have to parse."""

    def unseeded():
        raise AssertionError(f"the hub's cache holds no parse of {sha}")

    platform = hosted["platform"]
    with platform._parsed_lock:
        return platform._parsed.get(sha, unseeded)


class TestCiteRoute:
    def test_view_body(self, hosted, other_citation):
        body = hosted["api"].get(f"{CITE_URL}/src/main.py?ref=main", token=hosted["bob"]).json
        assert body["ref"] == "main" and body["path"] == "/src/main.py"
        assert body["sha"] == hosted["repo"].blob_oid_at("main", CITATION_FILE_PATH)
        assert body["permission"] == "write"
        assert body["explicit"] == other_citation.to_dict()
        assert body["resolved"] == {
            "path": "/src/main.py",
            "source_path": "/src/main.py",
            "is_explicit": True,
            "citation": other_citation.to_dict(),
        }

    def test_inherited_view_and_anonymous_permission(self, hosted, sample_citation):
        body = hosted["api"].get(f"{CITE_URL}/docs/guide.md").json
        assert body["permission"] == "read" and body["explicit"] is None
        assert body["resolved"]["source_path"] == "/"
        assert body["resolved"]["citation"] == sample_citation.to_dict()

    def test_refless_view_is_one_request_and_names_the_default_branch(self, hosted):
        api = _CountingApi(hosted["api"])
        client = ExtensionClient(api, token=hosted["alice"])
        view = client.view_node(SLUG, "/src/main.py")
        assert api.requests == [("GET", f"{CITE_URL}/src/main.py")]
        assert view.ref == "main" and view.is_member

    def test_each_edit_is_one_request(self, hosted, sample_citation):
        api = _CountingApi(hosted["api"])
        client = ExtensionClient(api, token=hosted["bob"])
        client.add_citation(SLUG, "/docs", sample_citation, is_directory=True)
        client.modify_citation(SLUG, "/docs", sample_citation.with_changes(title="t"))
        client.delete_citation(SLUG, "/docs")
        assert api.requests == [("POST", POST_URL)] * 3

    def test_historic_ref_is_viewed_at_that_version(self, hosted, sample_citation):
        historic = hosted["repo"].head_oid()
        client = ExtensionClient(hosted["api"], token=hosted["alice"])
        client.add_citation(SLUG, "/docs/guide.md", sample_citation)
        assert client.view_node(SLUG, "/docs/guide.md").explicit_citation == sample_citation
        assert client.view_node(SLUG, "/docs/guide.md", ref=historic).explicit_citation is None


class TestStatuses:
    """The status table of both routes, and the exception each client raises."""

    def test_403_without_write_permission(self, hosted, sample_citation):
        response = hosted["api"].post(POST_URL, _add("/docs", sample_citation), token=hosted["visitor"])
        assert response.status == 403
        with pytest.raises(PermissionDeniedError):
            ExtensionClient(hosted["api"], token=hosted["visitor"]).add_citation(
                SLUG, "/docs", sample_citation
            )

    def test_anonymous_mutation_raises_before_sending(self, hosted, sample_citation):
        api = _CountingApi(hosted["api"])
        client = ExtensionClient(api)
        with pytest.raises(PermissionDeniedError):
            client.add_citation(SLUG, "/docs", sample_citation)
        with pytest.raises(PermissionDeniedError):
            client.delete_citation(SLUG, "/src/main.py")
        assert api.requests == []
        assert hosted["api"].post(POST_URL, _add("/docs", sample_citation)).status == 401

    def test_invalid_token_is_401(self, hosted, sample_citation):
        client = ExtensionClient(hosted["api"], token="ghs_wrong")
        with pytest.raises(AuthenticationError):
            client.add_citation(SLUG, "/docs", sample_citation)
        with pytest.raises(AuthenticationError):
            client.view_node(SLUG, "/docs")

    def test_404_without_citation_file_or_ref(self, hosted, sample_citation):
        plain = Repository.init("plain", "alice")
        plain.write_file("code.py", "x = 1\n")
        plain.commit("no citations here")
        hosted["platform"].host_repository(plain)
        api, token = hosted["api"], hosted["alice"]
        for url in (
            "/repos/alice/plain/cite/code.py",
            f"{CITE_URL}/src/main.py?ref=no-such-ref",
            "/repos/alice/ghost/cite/x",
        ):
            assert api.get(url, token=token).status == 404, url
        for url, payload in (
            ("/repos/alice/plain/citations", _add("/code.py", sample_citation)),
            (POST_URL, _add("/docs", sample_citation, branch="no-such-branch")),
        ):
            assert api.post(url, payload, token=token).status == 404, url
        client = ExtensionClient(api, token=token)
        with pytest.raises(CitationFileError):
            client.view_node("alice/plain", "/code.py")
        with pytest.raises(CitationFileError):
            client.view_node(SLUG, "/src/main.py", ref="no-such-ref")
        with pytest.raises(CitationFileError):
            client.add_citation("alice/plain", "/code.py", sample_citation)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda new, old: _add("/src/main.py", new), id="add-on-cited-path"),
            pytest.param(lambda new, old: {"op": "add", "path": "/docs"}, id="add-without-citation"),
            pytest.param(
                lambda new, old: {"op": "modify", "path": "/docs", "citation": new.to_dict()},
                id="modify-uncited",
            ),
            pytest.param(lambda new, old: {"op": "delete", "path": "/docs"}, id="delete-uncited"),
            pytest.param(lambda new, old: {"op": "delete", "path": "/"}, id="delete-root"),
            pytest.param(
                lambda new, old: {"op": "modify", "path": "/src/main.py", "citation": old.to_dict()},
                id="unchanged-file",
            ),
            pytest.param(
                lambda new, old: {"op": "add", "path": "/x", "citation": {"owner": "o"}},
                id="invalid-citation",
            ),
            pytest.param(
                lambda new, old: {"op": "add", "path": "/d", "citation": "nope"},
                id="citation-not-an-object",
            ),
            pytest.param(  # a lone surrogate has no UTF-8 encoding
                lambda new, old: _add("/d", new.with_changes(title="\ud800")),
                id="unencodable-citation",
            ),
            pytest.param(lambda new, old: _add("../escape", new), id="invalid-path"),
            pytest.param(lambda new, old: {"op": "rename", "path": "/docs"}, id="unknown-op"),
            pytest.param(lambda new, old: {"op": "delete", "path": 7}, id="non-string-path"),
            pytest.param(
                lambda new, old: {"op": "delete", "path": "/src/main.py", "message": 5},
                id="non-string-message",
            ),
        ],
    )
    def test_422_rejections(self, hosted, sample_citation, other_citation, build):
        before = hosted["repo"].refs.branch_target("main")
        payload = build(sample_citation, other_citation)
        response = hosted["api"].post(POST_URL, payload, token=hosted["alice"])
        assert response.status == 422, response.json
        assert response.json["retryable"] is False
        assert hosted["repo"].refs.branch_target("main") == before

    def test_422_raises_validation_error_in_the_client(self, hosted, other_citation):
        client = ExtensionClient(hosted["api"], token=hosted["alice"])
        with pytest.raises(ValidationError):
            client.add_citation(SLUG, "/src/main.py", other_citation)
        with pytest.raises(ValidationError):
            client.modify_citation(SLUG, "/src/main.py", other_citation)
        with pytest.raises(ValidationError):
            client.delete_citation(SLUG, "/")

    def test_unparseable_citation_file_is_422(self, hosted):
        payload = {"message": "break it", "content": base64.b64encode(b"[1, 2]").decode()}
        assert hosted["api"].put(
            f"/repos/{SLUG}/contents{CITATION_FILE_PATH}", payload, token=hosted["alice"]
        ).ok
        assert hosted["api"].get(f"{CITE_URL}/src", token=hosted["alice"]).status == 422
        delete = {"op": "delete", "path": "/src/main.py"}
        assert hosted["api"].post(POST_URL, delete, token=hosted["alice"]).status == 422

    def test_storage_corruption_is_500(self, hosted, monkeypatch):
        store = hosted["repo"].store

        def corrupt(oid):
            raise CorruptObjectError(oid, "payload does not hash to the indexed oid")

        monkeypatch.setattr(store, "get_blob", corrupt)
        response = hosted["api"].get(f"{CITE_URL}/src", token=hosted["alice"])
        assert response.status == 500 and response.json["retryable"] is True


class TestOldClients:
    def test_contents_put_is_seen_by_the_next_cite_get(self, hosted, other_citation):
        api, token = hosted["api"], hosted["alice"]
        url = f"/repos/{SLUG}/contents{CITATION_FILE_PATH}"
        read = api.get(f"{url}?ref=main", token=token).json
        edited = base64.b64decode(read["content"]).replace(b"Chen Li", b"C. Li")
        payload = {"message": "edit", "content": base64.b64encode(edited).decode("ascii")}
        written = api.put(url, payload, token=token).json
        body = api.get(f"{CITE_URL}/src/main.py", token=token).json
        assert body["sha"] == written["content"]["sha"]
        assert body["explicit"]["authorList"] == ["C. Li"]

    def test_contents_get_after_post_returns_the_posted_blob(self, hosted, sample_citation):
        api, token = hosted["api"], hosted["alice"]
        posted = api.post(POST_URL, _add("/docs", sample_citation, is_directory=True), token=token)
        assert posted.status == 201
        read = api.get(f"/repos/{SLUG}/contents{CITATION_FILE_PATH}?ref=main", token=token).json
        data = base64.b64decode(read["content"])
        assert read["sha"] == posted.json["content"]["sha"] == Blob(data).oid
        assert posted.json["commit"]["sha"] == hosted["repo"].refs.branch_target("main")
        assert load_citation_bytes(data).entry("/docs").is_directory


class TestHubParseCache:
    def test_seeded_function_equals_a_fresh_parse_after_each_op_kind(
        self, hosted, sample_citation, other_citation
    ):
        api, token = hosted["api"], hosted["bob"]
        operations = [
            _add("/docs", sample_citation, is_directory=True),
            _add("/docs/guide.md", other_citation),
            {"op": "modify", "path": "/docs", "citation": other_citation.to_dict()},
            {"op": "delete", "path": "/src/main.py"},
        ]
        hosted["api"].get(f"{CITE_URL}/", token=token)
        parses = hosted["platform"]._parsed.misses
        for payload in operations:
            response = api.post(POST_URL, payload, token=token)
            assert response.status == 201, response.json
            sha = response.json["content"]["sha"]
            assert _seeded(hosted, sha) == _committed(hosted)
            assert api.get(f"{CITE_URL}/docs/guide.md", token=token).json["sha"] == sha
        assert hosted["platform"]._parsed.misses == parses

    def test_cached_parse_is_not_mutated_by_an_operation(self, hosted, sample_citation):
        before = hosted["repo"].blob_oid_at("main", CITATION_FILE_PATH)
        api, token = hosted["api"], hosted["alice"]
        api.post(POST_URL, _add("/docs", sample_citation), token=token)
        assert _seeded(hosted, before).get_explicit("/docs") is None

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_seeding_is_exact_for_any_json_citation(self, data):
        root = Citation.from_dict(data.draw(_citation_dicts()))
        assert hash(root) == hash(Citation.from_dict(root.to_dict()))
        hosted = _hosted_demo(root, Citation.from_dict(data.draw(_citation_dicts())))
        for _ in range(data.draw(st.integers(1, 4))):
            path = data.draw(st.sampled_from(["/src/main.py", "/docs", "/docs/guide.md", "/new"]))
            kind = data.draw(st.sampled_from(["add", "modify", "delete"]))
            payload = {"op": kind, "path": path}
            if kind != "delete":
                payload["citation"] = data.draw(_citation_dicts())
            if kind == "add":
                payload["is_directory"] = data.draw(st.booleans())
            response = hosted["api"].post(POST_URL, payload, token=hosted["alice"])
            if response.status == 201:
                committed = _committed(hosted)
                assert _seeded(hosted, response.json["content"]["sha"]) == committed
                assert all(isinstance(hash(entry.citation), int) for entry in committed)
            else:
                assert response.status == 422, response.json


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_NONEMPTY = st.text(min_size=1, max_size=12)


@st.composite
def _citation_dicts(draw) -> dict:
    """A citation value as any JSON client might send it."""
    moment = draw(st.datetimes(
        min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1),
        timezones=st.just(timezone.utc),
    ))
    committed = draw(st.sampled_from([
        "%Y-%m-%dT%H:%M:%SZ", "%Y -%m -%d T%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S Z",
    ]))
    payload = {
        "repoName": draw(_NONEMPTY),
        "owner": draw(_NONEMPTY),
        "committedDate": moment.strftime(committed),
        "commitID": draw(_NONEMPTY),
        "url": draw(_NONEMPTY),
        "authorList": draw(st.lists(st.text(max_size=8), max_size=3) | st.text(max_size=8)),
    }
    for key in ("doi", "version", "license", "title", "description", "swhid"):
        if draw(st.booleans()):
            payload[key] = draw(_JSON)
    extra = draw(st.dictionaries(st.text(min_size=1, max_size=6), _JSON, max_size=3))
    for key, value in extra.items():
        payload.setdefault(key, value)
    return payload


def test_concurrent_members_lose_no_acknowledged_citation(enabled_manager, sample_citation):
    """Members' AddCites on one branch, each on its own thread and connection.

    More members than cores and a short switch interval interleave the
    hub's read-modify-write as much as possible; a contents ``PUT`` of a
    locally edited file loses citations here.
    """
    platform = HostingPlatform()
    members = ("alice", "bob", "carol")
    for login in members:
        platform.register_user(login)
    hosted = platform.host_repository(enabled_manager.repo)
    for login in members[1:]:
        platform.add_collaborator(SLUG, login, "write")
    tokens = {login: platform.issue_token(login).value for login in members}
    per_member = 10
    acknowledged: dict[str, Citation] = {}
    failures: list[BaseException] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with HubHttpServer(RestApi(platform)) as server:

            def member(login: str) -> None:
                transport = HttpTransport(server.url, timeout=30)
                client = ExtensionClient(transport, token=tokens[login])
                try:
                    for number in range(per_member):
                        path = f"/notes/{login}-{number}.md"
                        citation = sample_citation.with_changes(commit_id=f"{login}{number}")
                        client.add_citation(SLUG, path, citation)
                        acknowledged[path] = citation
                except Exception as exc:  # lint: broad-except-ok(reported by the test thread)
                    failures.append(exc)
                finally:
                    transport.close()

            threads = [threading.Thread(target=member, args=(login,)) for login in members]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert len(acknowledged) == len(members) * per_member
    stored = load_citation_bytes(hosted.repo.read_file_at("main", CITATION_FILE_PATH))
    for path, citation in acknowledged.items():
        assert stored.get_explicit(path) == citation, path


def test_path_with_space_and_percent_over_http(hosted, sample_citation):
    path = "/my docs/50% done.txt"
    with HubHttpServer(hosted["api"]) as server:
        transport = HttpTransport(server.url)
        try:
            client = ExtensionClient(transport, token=hosted["alice"])
            inherited = client.view_node(SLUG, path)
            assert inherited.path == path and inherited.resolved.source_path == "/"
            client.add_citation(SLUG, path, sample_citation)
            view = client.view_node(SLUG, path, ref="main")
            assert view.explicit_citation == sample_citation and view.path == path
        finally:
            transport.close()
    assert _committed(hosted).get_explicit(path) == sample_citation
