"""Unit tests for the hosting-platform simulator (models, auth, rate limits, server, API)."""

import base64
from datetime import datetime, timezone

import pytest

from repro.errors import (
    AuthenticationError,
    CorruptObjectError,
    NotFoundError,
    PermissionDeniedError,
    RateLimitExceededError,
    ValidationError,
)
from repro.citation.citefile import CITATION_FILE_PATH
from repro.hub.api import RestApi
from repro.hub.durability import PushJournal, replay_journal
from repro.hub.models import Permission
from repro.hub.ratelimit import RateLimiter
from repro.hub.server import HostingPlatform
from repro.hub.sync import HubRemote
from repro.vcs.repository import Repository


@pytest.fixture
def platform(enabled_manager) -> HostingPlatform:
    """A platform hosting the enabled demo repository plus two users."""
    platform = HostingPlatform()
    platform.register_user("alice", name="Alice Smith")
    platform.register_user("bob", name="Bob Jones")
    platform.host_repository(enabled_manager.repo)
    return platform


class _CountingApi(RestApi):
    """A :class:`RestApi` that counts requests by verb and final path segments."""

    def __init__(self, platform) -> None:
        super().__init__(platform)
        self.counts: dict = {}

    def request(self, method, url, token=None, payload=None):
        key = (method, "/".join(url.split("/")[-2:]))
        self.counts[key] = self.counts.get(key, 0) + 1
        return super().request(method, url, token=token, payload=payload)

    def take(self) -> dict:
        counts, self.counts = self.counts, {}
        return counts


@pytest.fixture
def alice_token(platform) -> str:
    return platform.issue_token("alice").value


@pytest.fixture
def bob_token(platform) -> str:
    return platform.issue_token("bob").value


class TestUsersAndTokens:
    def test_register_and_lookup(self, platform):
        assert platform.get_user("alice").name == "Alice Smith"
        with pytest.raises(NotFoundError):
            platform.get_user("nobody")

    def test_duplicate_login_rejected(self, platform):
        with pytest.raises(ValidationError):
            platform.register_user("alice")

    def test_illegal_login_rejected(self, platform):
        with pytest.raises(ValidationError):
            platform.register_user("has space")

    def test_token_authentication(self, platform, alice_token):
        token = platform.tokens.authenticate(alice_token)
        assert token.login == "alice"
        assert platform.tokens.authenticate(None) is None
        with pytest.raises(AuthenticationError):
            platform.tokens.authenticate("ghs_bogus")

    def test_token_revocation(self, platform, alice_token):
        platform.tokens.revoke(alice_token)
        with pytest.raises(AuthenticationError):
            platform.tokens.authenticate(alice_token)

    def test_tokens_are_unique_per_issuance(self, platform):
        first = platform.issue_token("alice").value
        second = platform.issue_token("alice").value
        assert first != second
        assert len(platform.tokens.tokens_for("alice")) >= 2


class TestPermissions:
    def test_owner_is_admin(self, platform):
        assert platform.permission_for("alice/demo", None) == Permission.READ
        token = platform.issue_token("alice").value
        assert platform.permission_for("alice/demo", token) == Permission.ADMIN

    def test_collaborator_gets_write(self, platform, bob_token):
        assert platform.permission_for("alice/demo", bob_token) == Permission.READ
        platform.add_collaborator("alice/demo", "bob", "write")
        assert platform.permission_for("alice/demo", bob_token) == Permission.WRITE
        hosted = platform.get_repository("alice/demo")
        assert hosted.is_member("bob") and not hosted.is_member("stranger")

    def test_private_repo_hidden_from_outsiders(self, platform, bob_token, alice_token):
        platform.create_repository("alice", "secret", private=True)
        with pytest.raises(NotFoundError):
            platform.get_repository("alice/secret", token=bob_token)
        assert platform.get_repository("alice/secret", token=alice_token).private

    def test_write_requires_membership(self, platform, bob_token):
        with pytest.raises(PermissionDeniedError):
            platform.put_file("alice/demo", "/new.txt", b"x", message="add", token=bob_token)

    def test_anonymous_write_rejected(self, platform):
        with pytest.raises(AuthenticationError):
            platform.put_file("alice/demo", "/new.txt", b"x", message="add", token=None)


class TestRepositoryOperations:
    def test_create_and_list(self, platform):
        platform.create_repository("bob", "toolbox", description="bits")
        assert [r.name for r in platform.list_repositories("bob")] == ["toolbox"]
        assert len(platform.list_repositories()) == 2

    def test_get_file_and_tree(self, platform):
        data = platform.get_file("alice/demo", "/README.md")
        assert data == b"# demo\n"
        listing = platform.list_tree("alice/demo")
        paths = {entry["path"] for entry in listing}
        assert "/src/main.py" in paths and "/src" in paths
        assert platform.path_exists("alice/demo", CITATION_FILE_PATH)
        with pytest.raises(NotFoundError):
            platform.get_file("alice/demo", "/missing.txt")

    def test_put_file_commits_on_branch(self, platform, alice_token):
        oid = platform.put_file(
            "alice/demo", "/docs/new.md", b"new\n", message="add doc", token=alice_token
        )
        hosted = platform.get_repository("alice/demo")
        assert hosted.repo.head_oid() == oid
        assert hosted.repo.read_file_at("main", "/docs/new.md") == b"new\n"
        with pytest.raises(NotFoundError):
            platform.put_file("alice/demo", "/x", b"", message="m", token=alice_token, branch="nope")

    def test_delete_file(self, platform, alice_token):
        platform.delete_file("alice/demo", "/docs/guide.md", message="drop", token=alice_token)
        assert not platform.get_repository("alice/demo").repo.path_exists_at("main", "/docs/guide.md")
        with pytest.raises(NotFoundError):
            platform.delete_file("alice/demo", "/docs/guide.md", message="again", token=alice_token)

    @pytest.mark.parametrize(
        "method, path, content, status",
        [
            ("PUT", "README.md", b"# demo\n", 422),
            ("PUT", "src", b"x", 422),
            ("PUT", "README.md/x", b"x", 422),
            ("PUT", "src/../x", b"x", 422),
            ("DELETE", "src", None, 404),
        ],
        ids=["unchanged-content", "path-is-directory", "path-beneath-file", "path-escapes-root",
             "delete-directory"],
    )
    def test_rejected_contents_commit_is_a_client_error(
        self, platform, alice_token, method, path, content, status
    ):
        """A contents commit that can never succeed is a non-retryable 4xx,
        never a 500 that a retrying client would re-send."""
        repo = platform.get_repository("alice/demo").repo
        tip = repo.head_oid()
        payload = {"message": "m"}
        if content is not None:
            payload["content"] = base64.b64encode(content).decode("ascii")
        response = RestApi(platform).request(
            method, f"/repos/alice/demo/contents/{path}", token=alice_token, payload=payload
        )
        assert (response.status, response.json["retryable"]) == (status, False)
        assert repo.head_oid() == tip
        assert repo.read_file_at("main", "/src/main.py") == b"print('hello')\n"

    def test_contents_commit_oids_are_stable(self):
        """Contents commits are byte-identical to the ones the checkout-based
        implementation produced for the same inputs (oids recorded from it)."""
        def at(minute):
            return datetime(2020, 1, 1, 12, minute, tzinfo=timezone.utc)

        platform = HostingPlatform()
        platform.register_user("alice", name="Alice Smith")
        repo = Repository.init("fixed", "alice")
        repo.write_files({"/README.md": "# fixed\n", "/src/main.py": "print('hi')\n"})
        repo.commit("initial", timestamp=at(0))
        repo.create_branch("topic")
        platform.host_repository(repo)
        token = platform.issue_token("alice").value
        slug = "alice/fixed"
        oids = [
            platform.put_file(slug, "/docs/api/intro.md", b"intro\n", message="add intro",
                              token=token, branch="topic", timestamp=at(1)),
            platform.put_file(slug, "/docs/api/intro.md", "intro, revised\n", message="revise intro",
                              token=token, branch="topic", timestamp=at(2)),
            platform.delete_file(slug, "/docs/api/intro.md", message="drop intro",
                                 token=token, branch="topic", timestamp=at(3)),
            platform.put_file(slug, "/src/util.py", b"x = 1\n", message="add util",
                              token=token, timestamp=at(4)),
            platform.delete_file(slug, "/README.md", message="drop readme",
                                 token=token, timestamp=at(5), author_name="Bob Jones"),
        ]
        assert oids == [
            "354d67d8657fcc519595f470ec027553887c909c",
            "603446badc907479a1b765f07609ac34a4ce183d",
            "ab197c2367f9178b6b38bc5e5869bf373e9fdab0",
            "06ea498cb5b061fa96bb28b727e234c90f387765",
            "04d5143b69d0c389bb1860175420b9e89f741dae",
        ]
        assert repo.branches() == {"main": oids[4], "topic": oids[2]}
        # The emptied /docs/api (and with it /docs) is pruned from the tree.
        assert [entry["path"] for entry in platform.list_tree(slug, ref="topic")] == [
            "/README.md", "/src", "/src/main.py",
        ]
        assert repo.read_file_at("main", "/src/util.py") == b"x = 1\n"
        assert not repo.path_exists_at("main", "/README.md")

    @pytest.mark.parametrize("branch", ["topic", "main"])
    def test_contents_commit_leaves_the_worktree_alone(self, platform, alice_token, branch):
        """The hosted repository is bare: a contents commit moves its branch
        only, the checked-out one included, and never touches the worktree,
        the index or the worktree generation."""
        repo = platform.get_repository("alice/demo").repo
        repo.create_branch("topic")
        old_tip = repo.branches()[branch]
        repo.write_file("/docs/guide.md", b"local edit\n")
        before = (repo.worktree_generation, repo.current_branch, dict(repo.worktree),
                  repo.index.entries())
        oid = platform.put_file(
            "alice/demo", "/docs/new.md", b"new\n", message="add doc", token=alice_token, branch=branch
        )
        assert (repo.worktree_generation, repo.current_branch, dict(repo.worktree),
                repo.index.entries()) == before
        assert repo.branches()[branch] == oid
        diff = repo.diff(old_tip, oid, detect_renames=False)
        assert [(entry.old_path, entry.new_path) for entry in diff.entries] == [(None, "/docs/new.md")]

    def test_fork_copies_history_to_new_owner(self, platform, bob_token):
        hosted = platform.fork("alice/demo", token=bob_token)
        assert hosted.full_name == "bob/demo"
        assert hosted.forked_from == "alice/demo"
        assert hosted.repo.head_oid() == platform.get_repository("alice/demo").repo.head_oid()

    def test_clone_and_push_round_trip(self, platform, alice_token, tmp_path):
        journal = PushJournal(tmp_path / "pushes.waj")
        platform.attach_journal("alice/demo", journal)
        api = _CountingApi(platform)
        remote = HubRemote(api, "alice/demo", token=alice_token)
        local = platform.clone("alice/demo")
        local.write_file("/pushed.txt", "pushed\n")
        tip = local.commit("local work")
        assert remote.push(local)["updated"] == {"main": tip}
        assert api.take() == {("GET", "git/refs"): 1, ("POST", "git/receive-pack"): 1}
        assert platform.get_repository("alice/demo").repo.path_exists_at("main", "/pushed.txt")
        journal.close()
        assert len(replay_journal(journal.path).records) == 1

        # Each fetch reads the ref advertisement once and reuses it.
        other = Repository.init("other", "alice")
        assert remote.fetch_branch(other, "main") == tip
        assert api.take() == {("GET", "git/refs"): 1, ("POST", "git/upload-pack"): 1}
        assert remote.pull(other, "main") == tip
        assert api.take() == {("GET", "git/refs"): 1, ("POST", "git/upload-pack"): 1}

    def test_push_requires_write(self, platform, bob_token):
        local = platform.clone("alice/demo")
        local.write_file("/x.txt", "x")
        local.commit("work")
        with pytest.raises(PermissionDeniedError):
            HubRemote(RestApi(platform), "alice/demo", token=bob_token).push(local)

    def test_commits_listing(self, platform):
        commits = platform.commits("alice/demo", limit=1)
        assert len(commits) == 1
        assert "message" in commits[0]["commit"]


class TestRateLimiter:
    def test_quota_enforced(self):
        limiter = RateLimiter(authenticated_limit=2, anonymous_limit=1)
        limiter.check("alice")
        limiter.check("alice")
        with pytest.raises(RateLimitExceededError):
            limiter.check("alice")
        with pytest.raises(RateLimitExceededError):
            (limiter.check(None), limiter.check(None))

    def test_reset_and_status(self):
        limiter = RateLimiter(authenticated_limit=5)
        limiter.check("alice")
        assert limiter.status("alice").used == 1
        limiter.reset("alice")
        assert limiter.status("alice").remaining == 5
        limiter.check("bob")
        limiter.reset()
        assert limiter.status("bob").used == 0

    def test_can_be_disabled(self):
        limiter = RateLimiter(authenticated_limit=1, enabled=False)
        for _ in range(5):
            limiter.check("alice")


class TestRestApi:
    @pytest.fixture
    def api(self, platform) -> RestApi:
        return RestApi(platform)

    def test_get_user(self, api, alice_token):
        response = api.get("/user", token=alice_token)
        assert response.ok and response.json["login"] == "alice"

    def test_get_repo_and_404(self, api):
        assert api.get("/repos/alice/demo").json["full_name"] == "alice/demo"
        assert api.get("/repos/alice/none").status == 404
        assert api.get("/definitely/not/an/endpoint").status == 404

    def test_contents_get_decodes_to_original(self, api):
        response = api.get("/repos/alice/demo/contents/README.md")
        assert response.ok
        assert base64.b64decode(response.json["content"]) == b"# demo\n"

    def test_contents_put_requires_auth_and_payload(self, api, alice_token, bob_token):
        payload = {
            "message": "update readme",
            "content": base64.b64encode(b"# updated\n").decode(),
        }
        assert api.put("/repos/alice/demo/contents/README.md", payload, token=bob_token).status == 403
        assert api.put("/repos/alice/demo/contents/README.md", {"message": "x"}, token=alice_token).status == 422
        response = api.put("/repos/alice/demo/contents/README.md", payload, token=alice_token)
        assert response.status == 201
        assert base64.b64decode(
            api.get("/repos/alice/demo/contents/README.md").json["content"]
        ) == b"# updated\n"

    def test_contents_delete(self, api, alice_token):
        response = api.delete(
            "/repos/alice/demo/contents/docs/guide.md", {"message": "drop"}, token=alice_token
        )
        assert response.ok
        assert api.get("/repos/alice/demo/contents/docs/guide.md").status == 404

    def test_permission_endpoint(self, api, platform):
        platform.add_collaborator("alice/demo", "bob", "write")
        response = api.get("/repos/alice/demo/collaborators/bob/permission")
        assert response.json["permission"] == "write"
        assert api.get("/repos/alice/demo/collaborators/alice/permission").json["permission"] == "admin"

    def test_branches_commits_tree_fork(self, api, bob_token):
        assert api.get("/repos/alice/demo/branches").json[0]["name"] == "main"
        assert api.get("/repos/alice/demo/commits?per_page=1").ok
        assert any(e["path"] == "/src" for e in api.get("/repos/alice/demo/git/trees/main").json["tree"])
        fork = api.post("/repos/alice/demo/forks", token=bob_token)
        assert fork.status == 201 and fork.json["full_name"] == "bob/demo"

    def test_rate_limit_endpoint_and_enforcement(self, platform, alice_token):
        platform.rate_limiter = RateLimiter(authenticated_limit=2)
        api = RestApi(platform)
        assert api.get("/repos/alice/demo", token=alice_token).ok
        assert api.get("/repos/alice/demo", token=alice_token).ok
        assert api.get("/repos/alice/demo", token=alice_token).status == 429
        # /rate_limit itself is never counted.
        status = api.get("/rate_limit", token=alice_token)
        assert status.ok and status.json["resources"]["core"]["remaining"] == 0

    def test_invalid_token_is_401(self, api):
        assert api.get("/repos/alice/demo", token="ghs_wrong").status == 401

    def test_contents_put_rejects_malformed_base64(self, api, alice_token):
        """Junk characters in the base64 payload are a 422, not a silent
        commit of garbage bytes (b64decode without validate=True discards
        non-alphabet characters instead of raising)."""
        before = api.get("/repos/alice/demo/contents/README.md").json["content"]
        payload = {"message": "sneaky", "content": "QUJD####WFla"}
        response = api.put("/repos/alice/demo/contents/README.md", payload, token=alice_token)
        assert response.status == 422
        assert "base64" in response.json["message"]
        # The file is untouched — no commit happened.
        assert api.get("/repos/alice/demo/contents/README.md").json["content"] == before

    def test_contents_put_accepts_valid_base64(self, api, alice_token):
        payload = {
            "message": "legit",
            "content": base64.b64encode(b"clean bytes\n").decode("ascii"),
        }
        response = api.put("/repos/alice/demo/contents/README.md", payload, token=alice_token)
        assert response.status == 201
        assert base64.b64decode(
            api.get("/repos/alice/demo/contents/README.md").json["content"]
        ) == b"clean bytes\n"

    def test_contents_put_accepts_mime_wrapped_base64(self, api, alice_token):
        """RFC 2045 encoders wrap at 76 columns; the validation must strip
        the line breaks, not reject the payload."""
        body = bytes(range(256)) * 2
        payload = {
            "message": "wrapped",
            "content": base64.encodebytes(body).decode("ascii"),
        }
        assert "\n" in payload["content"]
        response = api.put("/repos/alice/demo/contents/blob.bin", payload, token=alice_token)
        assert response.status == 201
        assert base64.b64decode(
            api.get("/repos/alice/demo/contents/blob.bin").json["content"]
        ) == body


class TestStorageCorruptionSurfaces:
    """Storage corruption must propagate from the contents API, never be
    masked as a missing file (404 / ``path_exists() is False``)."""

    @pytest.fixture
    def ondisk_platform(self, tmp_path):
        platform = HostingPlatform()
        platform.register_user("alice")
        repo = Repository.init("ondisk", "alice", storage=f"pack:{tmp_path / 'pack'}")
        repo.write_file("/data/readme.txt", b"important bytes\n")
        repo.commit("seed", author_name="alice")
        repo.store.flush()
        platform.host_repository(repo)
        return platform, repo

    @staticmethod
    def _corrupt(repo, oid):
        """Zero the compressed body of ``oid``'s pack record in place."""
        pack, offset = repo.store.backend._packed_lookup(oid)
        data = bytearray(pack.path.read_bytes())
        newline = data.index(b"\n", offset)
        size = int(data[offset:newline].split(b" ")[3])
        data[newline + 1:newline + 1 + size] = bytes(size)
        pack.path.write_bytes(bytes(data))

    def test_corrupt_blob_propagates_from_get_file(self, ondisk_platform):
        platform, repo = ondisk_platform
        blob_oid = repo.blob_oid_at("HEAD", "/data/readme.txt")
        self._corrupt(repo, blob_oid)
        repo.store._cache.clear()  # force the next read to hit the disk
        with pytest.raises(CorruptObjectError):
            platform.get_file("alice/ondisk", "/data/readme.txt")

    def test_corrupt_tree_propagates_from_path_exists(self, ondisk_platform):
        platform, repo = ondisk_platform
        tree_oid = repo.tree_oid_of("HEAD")
        self._corrupt(repo, tree_oid)
        repo.store._cache.clear()
        with pytest.raises(CorruptObjectError):
            platform.path_exists("alice/ondisk", "/data/readme.txt")

    def test_rest_layer_maps_corruption_to_500_not_404(self, ondisk_platform):
        platform, repo = ondisk_platform
        blob_oid = repo.blob_oid_at("HEAD", "/data/readme.txt")
        self._corrupt(repo, blob_oid)
        repo.store._cache.clear()
        api = RestApi(platform)
        response = api.get("/repos/alice/ondisk/contents/data/readme.txt")
        assert response.status == 500
        assert "storage" in response.json["message"]

    def test_missing_paths_still_read_as_absent(self, ondisk_platform):
        platform, _ = ondisk_platform
        with pytest.raises(NotFoundError):
            platform.get_file("alice/ondisk", "/data/nope.txt")
        with pytest.raises(NotFoundError):
            platform.get_file("alice/ondisk", "/data/readme.txt", ref="no-such-branch")
        assert platform.path_exists("alice/ondisk", "/data/nope.txt") is False
        assert platform.path_exists("alice/ondisk", "/x", ref="no-such-branch") is False


class TestGitWireEndpoints:
    """The sync subsystem over the REST API: refs, upload-pack, receive-pack."""

    @pytest.fixture
    def api(self, platform) -> RestApi:
        return RestApi(platform)

    @staticmethod
    def _wire_clone(api, slug, token=None, owner="carol"):
        """Clone over the wire endpoints only (no platform-object access)."""
        from repro.vcs.transfer import apply_bundle, update_refs_from_bundle

        refs = api.get(f"/repos/{slug}/git/refs", token=token).json
        wants = [entry["sha"] for entry in refs["branches"]]
        response = api.post(f"/repos/{slug}/git/upload-pack", {"wants": wants}, token=token)
        assert response.ok
        data = base64.b64decode(response.json["bundle"])
        local = Repository.init("clone", owner, default_branch=refs["default_branch"])
        result = apply_bundle(local.store, data)
        update_refs_from_bundle(local, result.bundle)
        return local, refs

    @staticmethod
    def _push_bundle(local, haves):
        from repro.vcs.transfer import advertise_refs, create_bundle

        data = create_bundle(
            local.store, [local.head_oid()], haves=haves, refs=advertise_refs(local)
        )
        return {"bundle": base64.b64encode(data).decode("ascii")}

    def test_refs_advertisement_shape(self, api, platform):
        response = api.get("/repos/alice/demo/git/refs")
        assert response.ok
        body = response.json
        hosted = platform.get_repository("alice/demo")
        assert body["default_branch"] == hosted.default_branch
        names = {entry["name"]: entry["sha"] for entry in body["branches"]}
        assert names == hosted.repo.branches()
        assert body["head"]["sha"] == hosted.repo.head_oid()

    def test_wire_clone_matches_platform_clone(self, api, platform):
        local, refs = self._wire_clone(api, "alice/demo")
        hosted = platform.get_repository("alice/demo")
        assert local.head_oid() == hosted.repo.head_oid()
        assert local.snapshot() == hosted.repo.snapshot()

    def test_wire_incremental_push_transfers_only_new_objects(self, api, platform, alice_token):
        local, refs = self._wire_clone(api, "alice/demo", owner="alice")
        local.write_file("wire.txt", "pushed over the wire\n")
        tip = local.commit("wire push")
        haves = [entry["sha"] for entry in refs["branches"]]
        response = api.post(
            "/repos/alice/demo/git/receive-pack",
            self._push_bundle(local, haves),
            token=alice_token,
        )
        assert response.ok, response.json
        hosted = platform.get_repository("alice/demo")
        branch = refs["default_branch"]
        assert response.json["updated"][branch] == tip
        assert hosted.repo.head_oid() == tip
        # Thin bundle: one commit, the new blob and the dirty tree chain.
        assert response.json["objects_in_bundle"] <= 5
        assert hosted.repo.read_file_at(tip, "/wire.txt") == b"pushed over the wire\n"

    def test_receive_pack_requires_write_permission(self, api, platform, bob_token):
        local, refs = self._wire_clone(api, "alice/demo", owner="bob")
        local.write_file("nope.txt", "n")
        local.commit("unauthorised")
        payload = self._push_bundle(local, [entry["sha"] for entry in refs["branches"]])
        assert api.post("/repos/alice/demo/git/receive-pack", payload).status == 401
        assert api.post("/repos/alice/demo/git/receive-pack", payload, token=bob_token).status == 403
        # And a read-capable collaborator is still not enough.
        platform.add_collaborator("alice/demo", "bob", Permission.READ)
        assert api.post("/repos/alice/demo/git/receive-pack", payload, token=bob_token).status == 403

    def test_receive_pack_rejects_corrupt_bundle_untouched(self, api, platform, alice_token):
        local, refs = self._wire_clone(api, "alice/demo", owner="alice")
        local.write_file("wire.txt", "will be corrupted\n")
        local.commit("doomed")
        payload = self._push_bundle(local, [entry["sha"] for entry in refs["branches"]])
        raw = base64.b64decode(payload["bundle"])
        position = len(raw) * 2 // 3
        corrupted = raw[:position] + bytes([raw[position] ^ 0x55]) + raw[position + 1:]
        hosted = platform.get_repository("alice/demo")
        head_before = hosted.repo.head_oid()
        objects_before = set(hosted.repo.store.iter_oids())
        response = api.post(
            "/repos/alice/demo/git/receive-pack",
            {"bundle": base64.b64encode(corrupted).decode("ascii")},
            token=alice_token,
        )
        assert response.status == 422
        assert hosted.repo.head_oid() == head_before
        assert set(hosted.repo.store.iter_oids()) == objects_before
        # Malformed base64 is also a 422, not a crash.
        assert api.post(
            "/repos/alice/demo/git/receive-pack", {"bundle": "!!!"}, token=alice_token
        ).status == 422

    def test_receive_pack_rejects_non_fast_forward(self, api, platform, alice_token):
        local, refs = self._wire_clone(api, "alice/demo", owner="alice")
        hosted = platform.get_repository("alice/demo")
        hosted.repo.write_file("server-side.txt", "advanced\n")
        server_tip = hosted.repo.commit("server advances")
        local.write_file("diverged.txt", "d")
        local.commit("diverged")
        payload = self._push_bundle(local, [entry["sha"] for entry in refs["branches"]])
        response = api.post(
            "/repos/alice/demo/git/receive-pack", payload, token=alice_token
        )
        assert response.status == 422
        assert hosted.repo.head_oid() == server_tip
        forced = dict(payload)
        forced["force"] = True
        response = api.post(
            "/repos/alice/demo/git/receive-pack", forced, token=alice_token
        )
        assert response.ok
        assert hosted.repo.head_oid() == local.head_oid()

    def test_upload_pack_validates_wants(self, api, alice_token):
        assert api.post(
            "/repos/alice/demo/git/upload-pack", {"wants": []}, token=alice_token
        ).status == 422
        assert api.post(
            "/repos/alice/demo/git/upload-pack", {"wants": ["no-such-ref"]}, token=alice_token
        ).status == 404

    def test_wire_endpoints_are_rate_limited(self, platform, alice_token):
        platform.rate_limiter = RateLimiter(authenticated_limit=2)
        api = RestApi(platform)
        assert api.get("/repos/alice/demo/git/refs", token=alice_token).ok
        assert api.get("/repos/alice/demo/git/refs", token=alice_token).ok
        response = api.post(
            "/repos/alice/demo/git/receive-pack", {"bundle": ""}, token=alice_token
        )
        assert response.status == 429

    def test_upload_pack_rejects_non_string_wants_and_haves(self, api, alice_token):
        refs = api.get("/repos/alice/demo/git/refs", token=alice_token).json
        tip = refs["branches"][0]["sha"]
        assert api.post(
            "/repos/alice/demo/git/upload-pack",
            {"wants": [tip], "haves": [["not", "a", "string"]]},
            token=alice_token,
        ).status == 422
        assert api.post(
            "/repos/alice/demo/git/upload-pack",
            {"wants": [42]},
            token=alice_token,
        ).status == 422
