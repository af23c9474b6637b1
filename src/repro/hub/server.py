"""The hosting platform: accounts, repositories, permissions, forks, contents.

:class:`HostingPlatform` is the stateful "GitHub" the GitCite components talk
to.  It hosts :class:`~repro.vcs.repository.Repository` objects, enforces the
member/non-member distinction the browser extension relies on ("if the user
is not a project member ... they will not be allowed to use the Add/Delete
button functionalities", Section 3), and implements the platform-side halves
of ForkCite (fork) and the local tool's publish step (receive a push).

Thread-safety contract
----------------------
The platform serves concurrent requests (it sits behind
:class:`~repro.hub.httpd.HubHttpServer`, one thread per connection):

* account and repository *registration* (register_user, host_repository,
  fork) runs under the platform lock so two requests cannot claim the same
  login or slug;
* ref moves (put_file, delete_file, apply_citation_operation,
  receive_pack's ref update) and their journal appends serialise on a
  per-slug lock, so journal order is ref order.  Hosted repositories are
  bare: a contents commit is built from the branch tip's tree and a push
  moves refs, and neither touches a worktree or an index.  A citation
  operation reads the branch tip's ``citation.cite`` under the same lock,
  so its read-modify-write is atomic per branch;
* the expensive part of a push — bundle verification and object install in
  :func:`~repro.vcs.transfer.session.apply_bundle` — deliberately runs
  *outside* any platform lock (the object store tolerates concurrent
  writers), so large pushes do not starve the contents API;
* pure reads (get_file, list_tree, git_refs, upload_pack, commits,
  generate_citation) take no repository lock and may overlap everything
  above.  The parsed ``citation.cite`` cache, shared by all repositories
  (a blob oid names its bytes), sits behind its own small lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from repro.citation.citefile import (
    CITATION_FILE_PATH,
    ParseCache,
    dump_citation_bytes,
    load_citation_bytes,
)
from repro.citation.function import CitationFunction, ResolvedCitation
from repro.citation.operators import CitationOperation, apply_operation
from repro.errors import (
    AuthenticationError,
    BundleChecksumError,
    BundleError,
    CitationError,
    InvalidObjectError,
    InvalidPathError,
    NotFoundError,
    ObjectNotFoundError,
    PermissionDeniedError,
    RefError,
    RemoteError,
    ServiceUnavailableError,
    StorageError,
    TransferCorruptError,
    ValidationError,
    VCSError,
)
from repro.hub.auth import TokenAuthority
from repro.hub.models import AccessToken, HostedRepository, Permission, User
from repro.hub.ratelimit import RateLimiter
from repro.utils.timeutil import now_utc
from repro.vcs.objects import Blob
from repro.vcs.remote import clone_repository, fork_repository
from repro.vcs.repository import Repository
from repro.vcs.transfer import (
    RefAdvertisement,
    advertise_refs,
    apply_bundle,
    create_bundle,
    update_refs_from_bundle,
)
from repro.vcs.treeops import flatten_tree

__all__ = ["CitationView", "HostingPlatform"]


@dataclass(frozen=True)
class CitationView:
    """GenCite of one node, evaluated on the hub, plus the caller's permission."""

    ref: str
    sha: str
    permission: Permission
    resolved: ResolvedCitation


class HostingPlatform:
    """An in-process, multi-user repository hosting service."""

    def __init__(self, url_base: str = "https://github.com", rate_limiter: RateLimiter | None = None) -> None:
        self.url_base = url_base.rstrip("/")
        self.users: dict[str, User] = {}
        self.repositories: dict[str, HostedRepository] = {}
        self.tokens = TokenAuthority()
        self.rate_limiter = rate_limiter or RateLimiter()
        #: Guards the account/repository registries (see module docstring).
        self._lock = threading.RLock()
        #: One lock per hosted slug, ordering ref moves against journal appends.
        self._repo_locks: dict[str, threading.RLock] = {}
        #: Per-slug write-ahead journals (``repro.hub.durability.PushJournal``).
        #: When a slug has one attached, every acknowledged mutation is
        #: journalled *before* the response leaves — see :meth:`_journal_append`.
        self._journals: dict[str, object] = {}
        #: Optional :class:`repro.hub.lifecycle.ServingState`; a journal write
        #: failure flips it to degraded so subsequent writes are shed upstream.
        self._lifecycle = None
        #: Parsed ``citation.cite`` files by blob oid.  Entries are shared and
        #: read-only; a citation operation copies before it applies.
        self._parsed_lock = threading.Lock()
        self._parsed = ParseCache()  # guarded-by: _parsed_lock

    def attach_journal(self, slug: str, journal) -> None:
        """Journal every acknowledged mutation of ``slug`` through ``journal``."""
        self._journals[slug] = journal

    def bind_lifecycle(self, state) -> None:
        """Let the platform flip ``state`` to degraded on durability failures."""
        self._lifecycle = state

    def _journal_append(self, slug: str, bundle_data: bytes, force: bool = False) -> None:
        """Persist an acknowledged mutation, or refuse the acknowledgement.

        Called under the per-slug lock, *after* the ref transaction committed,
        so journal order matches ref order — replay's prerequisite chain is
        exactly the order clients observed.  If the disk refuses the append,
        the in-memory state has moved but the client gets a retryable 503
        instead of an acknowledgement: losing an *unacknowledged* mutation on
        crash preserves the durability contract, and the hub goes degraded
        (read-only) until a ``/healthz`` probe sees the disk take writes again.
        """
        journal = self._journals.get(slug)
        if journal is None:
            return
        try:
            journal.append(bundle_data, force=force)
        except OSError as exc:
            if self._lifecycle is not None:
                self._lifecycle.mark_degraded(
                    f"push journal write failed: {exc}", recoverable=True
                )
            raise ServiceUnavailableError(
                f"could not persist the update durably ({exc}); the hub is "
                "degraded (read-only) until its disk recovers",
                retry_after=5.0,
            ) from exc

    def _journal_contents_commit(self, repo: Repository, slug: str, branch: str, commit_oid: str) -> None:
        """Journal a contents-API commit as a single-commit push bundle.

        The journal speaks one record shape — a push bundle — so a commit
        made through put_file/delete_file is wrapped as the bundle the
        equivalent push would have sent: the new commit thin against the
        branch's previous tip, advertising only the branch it moved.  Replay
        then needs no second code path.  Called under the per-slug lock.
        """
        if self._journals.get(slug) is None:
            return
        bundle_data = create_bundle(
            repo.store,
            [commit_oid],
            haves=repo.store.commit_parents(commit_oid),
            refs=RefAdvertisement.of_branch(branch, commit_oid),
        )
        self._journal_append(slug, bundle_data, force=False)

    def _repo_lock(self, slug: str) -> threading.RLock:
        """The per-slug mutation lock (created on first use)."""
        with self._lock:
            lock = self._repo_locks.get(slug)
            if lock is None:
                lock = self._repo_locks[slug] = threading.RLock()
            return lock

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------

    def register_user(self, login: str, name: str | None = None, email: str | None = None) -> User:
        """Create an account (logins are unique)."""
        with self._lock:
            if login in self.users:
                raise ValidationError(f"login already taken: {login!r}")
            user = User(login=login, name=name or login, email=email or f"{login}@example.org")
            self.users[login] = user
            return user

    def get_user(self, login: str) -> User:
        try:
            return self.users[login]
        except KeyError:
            raise NotFoundError(f"no such user: {login!r}") from None

    def issue_token(self, login: str, scopes: tuple[str, ...] = ("repo",)) -> AccessToken:
        """Issue a personal access token for an existing account."""
        return self.tokens.issue(self.get_user(login), scopes=scopes)

    def _require_user(self, token_value: Optional[str]) -> Optional[User]:
        token = self.tokens.authenticate(token_value)
        if token is None:
            return None
        return self.get_user(token.login)

    # ------------------------------------------------------------------
    # Repositories
    # ------------------------------------------------------------------

    def create_repository(
        self,
        owner_login: str,
        name: str,
        private: bool = False,
        description: str = "",
        default_branch: str = "main",
    ) -> HostedRepository:
        """Create an empty hosted repository owned by ``owner_login``."""
        owner = self.get_user(owner_login)
        repo = Repository.init(
            name=name, owner=owner.login, default_branch=default_branch, description=description
        )
        return self.host_repository(repo, private=private)

    def host_repository(self, repo: Repository, private: bool = False,
                        forked_from: Optional[str] = None) -> HostedRepository:
        """Host an existing repository object under its owner's account."""
        with self._lock:
            if repo.owner not in self.users:
                self.register_user(repo.owner)
            slug = repo.full_name
            if slug in self.repositories:
                raise ValidationError(f"repository already exists: {slug!r}")
            hosted = HostedRepository(
                repo=repo, private=private, created_at=now_utc(), forked_from=forked_from
            )
            self.repositories[slug] = hosted
            return hosted

    def get_repository(self, slug: str, token: Optional[str] = None) -> HostedRepository:
        """Look up ``owner/name``, honouring private-repository visibility."""
        hosted = self.repositories.get(slug)
        if hosted is None:
            raise NotFoundError(f"no such repository: {slug!r}")
        user = self._require_user(token)
        if hosted.permission_for(user.login if user else None) == Permission.NONE:
            # Private repositories are indistinguishable from missing ones.
            raise NotFoundError(f"no such repository: {slug!r}")
        return hosted

    def repository_url(self, slug: str) -> str:
        return f"{self.url_base}/{slug}"

    def list_repositories(self, login: Optional[str] = None) -> list[HostedRepository]:
        """All repositories, or the ones owned by ``login``."""
        hosted = sorted(self.repositories.values(), key=lambda h: h.full_name)
        if login is None:
            return hosted
        return [h for h in hosted if h.owner == login]

    def add_collaborator(self, slug: str, login: str, permission: Permission | str,
                         token: Optional[str] = None) -> None:
        """Grant a user access to a repository (requires admin)."""
        hosted = self.get_repository(slug, token=token)
        if token is not None:
            self._require_permission(hosted, token, Permission.ADMIN)
        if isinstance(permission, str):
            permission = Permission.from_label(permission)
        self.get_user(login)
        hosted.collaborators[login] = permission

    def permission_for(self, slug: str, token: Optional[str]) -> Permission:
        """The effective permission the token's user has on ``slug``."""
        hosted = self.repositories.get(slug)
        if hosted is None:
            raise NotFoundError(f"no such repository: {slug!r}")
        user = self._require_user(token)
        return hosted.permission_for(user.login if user else None)

    def _require_permission(self, hosted: HostedRepository, token: Optional[str],
                            needed: Permission) -> User:
        user = self._require_user(token)
        if user is None:
            raise AuthenticationError("this operation requires authentication")
        have = hosted.permission_for(user.login)
        if have < needed:
            raise PermissionDeniedError(
                f"{user.login!r} needs {needed.label!r} access to {hosted.full_name!r} "
                f"but only has {have.label!r}"
            )
        return user

    # ------------------------------------------------------------------
    # Forks and clones
    # ------------------------------------------------------------------

    def fork(self, slug: str, token: str, new_name: Optional[str] = None) -> HostedRepository:
        """Fork a repository into the authenticated user's account.

        This is the platform operation ForkCite rides on: the full history —
        including every version's ``citation.cite`` — is copied.
        """
        hosted = self.get_repository(slug, token=token)
        user = self._require_permission(hosted, token, Permission.READ)
        forked = fork_repository(hosted.repo, new_owner=user.login, new_name=new_name)
        return self.host_repository(forked, private=hosted.private, forked_from=slug)

    def clone(self, slug: str, token: Optional[str] = None) -> Repository:
        """Return a full local clone (what the local executable tool works on)."""
        hosted = self.get_repository(slug, token=token)
        return clone_repository(hosted.repo)

    # ------------------------------------------------------------------
    # Git wire protocol (what the sync subsystem speaks over the REST API)
    # ------------------------------------------------------------------

    def git_refs(self, slug: str, token: Optional[str] = None) -> dict:
        """The ref advertisement of a hosted repository (read visibility)."""
        hosted = self.get_repository(slug, token=token)
        return advertise_refs(hosted.repo).to_dict()

    def upload_pack(self, slug: str, wants, haves=(), token: Optional[str] = None) -> bytes:
        """Serve a bundle of the wanted history, thin against ``haves``.

        ``wants`` may be commit ids (full or abbreviated) or ref names; the
        negotiation drops ``haves`` this repository has never seen, exactly
        like a real fetch negotiation.  Requires read visibility (private
        repositories stay indistinguishable from missing ones).
        """
        hosted = self.get_repository(slug, token=token)
        repo = hosted.repo
        resolved: list[str] = []
        for want in wants:
            try:
                resolved.append(repo.resolve(str(want)))
            except (RefError, VCSError) as exc:
                raise NotFoundError(f"{slug} has no ref or commit {want!r}") from exc
        if not resolved:
            raise ValidationError("upload-pack requires at least one want")
        return create_bundle(
            repo.store, resolved, haves=tuple(haves), refs=advertise_refs(repo)
        )

    def receive_pack(self, slug: str, token: str, bundle_data: bytes,
                     force: bool = False) -> dict:
        """Accept a pushed bundle (write access required).

        The bundle is verified end to end — checksum, per-object hashes,
        prerequisites, connectivity — before any object lands, so a corrupt
        or truncated bundle changes nothing at all.  Branch updates are
        fast-forward-only unless ``force``; a non-fast-forward rejection
        moves no refs (objects already installed stay, unreachable, until
        the next gc — exactly git's behaviour).  Both failure shapes surface
        as :class:`ValidationError` (HTTP 422 at the REST boundary).
        """
        hosted = self.get_repository(slug, token=token)
        self._require_permission(hosted, token, Permission.WRITE)
        repo = hosted.repo
        try:
            # Verification + object install runs unlocked (see the module
            # docstring); only the ref move and its journal append take the
            # per-slug lock, so a contents commit cannot land between them.
            # Ref-vs-ref races are additionally resolved by the CAS
            # transaction inside update_refs_from_bundle itself.
            result = apply_bundle(repo.store, bundle_data)
            with self._repo_lock(slug):
                updated = update_refs_from_bundle(repo, result.bundle, force=force)
                # Journal unconditionally — even an apparent no-op.  A retry
                # of a push whose first attempt moved refs but failed its
                # journal append looks like a no-op here, yet *this* attempt
                # is the one that gets acknowledged, so it must be the one
                # that is durable.  Replay is idempotent; a duplicate record
                # costs bytes, a missing one costs an acknowledged push.
                self._journal_append(slug, bundle_data, force=force)
        except BundleChecksumError as exc:
            # Stream-level damage, not a semantic rejection: the sender's
            # copy is intact, so the client is told a re-send may succeed.
            raise TransferCorruptError(f"bundle damaged in transfer: {exc}") from exc
        except BundleError as exc:
            raise ValidationError(f"rejected bundle: {exc}") from exc
        except RemoteError as exc:
            raise ValidationError(str(exc)) from exc
        return result.report(updated)

    # ------------------------------------------------------------------
    # Contents API (what the browser extension uses)
    # ------------------------------------------------------------------

    def get_file(self, slug: str, path: str, ref: Optional[str] = None,
                 token: Optional[str] = None) -> bytes:
        """Read a file from a repository version (read access required)."""
        return self.file_at(slug, path, ref=ref, token=token)[1]

    def file_at(self, slug: str, path: str, ref: Optional[str] = None,
                token: Optional[str] = None) -> tuple[str, bytes]:
        """A file of a repository version as ``(blob oid, bytes)`` (read access required).

        The oid is the one the path lookup resolves, not a re-hash of the bytes.
        """
        hosted = self.get_repository(slug, token=token)
        repo = hosted.repo
        resolved_ref = ref or hosted.default_branch
        try:
            oid = repo.blob_oid_at(resolved_ref, path)
            return oid, repo.store.get_blob(oid).data
        except (StorageError, ObjectNotFoundError, InvalidObjectError):
            # Storage corruption (a blob that fails its integrity re-hash, a
            # dangling tree entry) is a server-side failure: it must surface,
            # not masquerade as a missing file.
            raise
        except VCSError as exc:
            # Ref/path resolution only: unknown ref, no such file, path is a
            # directory — the legitimate 404s.
            raise NotFoundError(f"{slug}@{resolved_ref} has no file {path!r}") from exc

    def path_exists(self, slug: str, path: str, ref: Optional[str] = None,
                    token: Optional[str] = None) -> bool:
        hosted = self.get_repository(slug, token=token)
        resolved_ref = ref or hosted.default_branch
        try:
            return hosted.repo.path_exists_at(resolved_ref, path)
        except (StorageError, ObjectNotFoundError, InvalidObjectError):
            raise  # corruption is not "the path does not exist"
        except VCSError:
            return False

    def list_tree(self, slug: str, ref: Optional[str] = None, token: Optional[str] = None) -> list[dict]:
        """List every path of a repository version (files and directories)."""
        hosted = self.get_repository(slug, token=token)
        repo = hosted.repo
        resolved_ref = ref or hosted.default_branch
        tree_oid = repo.tree_oid_of(resolved_ref)
        listing = []
        for path, (oid, mode) in sorted(flatten_tree(repo.store, tree_oid).items()):
            if path == "/":
                continue
            listing.append(
                {"path": path, "type": "tree" if mode == "040000" else "blob", "sha": oid}
            )
        return listing

    def put_file(
        self,
        slug: str,
        path: str,
        content: bytes | str,
        message: str,
        token: str,
        branch: Optional[str] = None,
        author_name: Optional[str] = None,
        timestamp: Optional[datetime] = None,
    ) -> str:
        """Create or update a file on a branch and commit (write access required).

        This is the endpoint the browser extension uses to "directly modify
        the citation file on the remote repository".
        """
        return self._commit_contents(slug, token, branch, path, content, message, author_name, timestamp)

    def delete_file(
        self,
        slug: str,
        path: str,
        message: str,
        token: str,
        branch: Optional[str] = None,
        author_name: Optional[str] = None,
        timestamp: Optional[datetime] = None,
    ) -> str:
        """Delete a file on a branch and commit (write access required)."""
        return self._commit_contents(slug, token, branch, path, None, message, author_name, timestamp)

    def _commit_contents(self, slug: str, token: str, branch: Optional[str], path: str,
                         content: bytes | str | None, message: str,
                         author_name: Optional[str], timestamp: Optional[datetime]) -> str:
        """Commit one edit (``content=None`` deletes) onto a branch's tree.

        Deleting a path that is not a file is a 404; any other refusal
        (unchanged content, a path that is a directory or lies beneath a
        file) is a 422.  Storage
        corruption propagates, as in :meth:`get_file`.
        """
        hosted = self.get_repository(slug, token=token)
        user = self._require_permission(hosted, token, Permission.WRITE)
        repo = hosted.repo
        target_branch = branch or hosted.default_branch
        with self._repo_lock(slug):
            if not repo.refs.has_branch(target_branch):
                raise NotFoundError(f"{slug} has no branch {target_branch!r}")
            try:
                commit_oid = repo.commit_edit(
                    target_branch, path, content, message,
                    author_name=author_name or user.name, timestamp=timestamp,
                )
            except (StorageError, ObjectNotFoundError, InvalidObjectError):
                raise
            except (VCSError, InvalidPathError) as exc:
                if content is None:
                    raise NotFoundError(f"{slug}@{target_branch} has no file {path!r}") from exc
                raise ValidationError(f"cannot write {path!r} on {slug}@{target_branch}: {exc}") from exc
            self._journal_contents_commit(repo, slug, target_branch, commit_oid)
            return commit_oid

    # ------------------------------------------------------------------
    # Citation operations (what the browser extension uses)
    # ------------------------------------------------------------------

    def generate_citation(self, slug: str, path: str, ref: Optional[str] = None,
                          token: Optional[str] = None) -> CitationView:
        """GenCite on the hub: ``Cite(V,P)(path)`` at ``ref`` (read access required).

        ``ref`` defaults to the default branch, which the view names.  The
        caller's permission is read on every call, so a grant or revocation
        shows on the next view.  A version without ``citation.cite`` (or an
        unknown ref) is a 404; a file that does not parse, has no root
        citation or a path that is not a repository path is a 422.
        """
        hosted = self.get_repository(slug, token=token)
        user = self._require_user(token)
        permission = hosted.permission_for(user.login if user else None)
        resolved_ref = ref or hosted.default_branch
        sha, function = self._citation_function(hosted, resolved_ref)
        try:
            resolved = function.resolve(path)
        except CitationError as exc:
            raise ValidationError(f"cannot cite {path!r} on {slug}@{resolved_ref}: {exc}") from exc
        return CitationView(ref=resolved_ref, sha=sha, permission=permission, resolved=resolved)

    def apply_citation_operation(self, slug: str, operation: CitationOperation, token: str,
                                 branch: Optional[str] = None,
                                 message: Optional[str] = None) -> tuple[str, str]:
        """Apply AddCite, ModifyCite or DelCite to a branch's ``citation.cite`` and commit.

        Returns ``(commit oid, blob oid of the new citation.cite)``.  Write
        access is required.  The read of the tip's file, the operation and
        the commit run under the per-slug lock, so two members' concurrent
        operations on one branch both land.  The parse comes from the hub's
        cache, and the function just written seeds it under the new blob
        oid, so the next view or operation parses nothing.  An operation the
        citation function refuses, or one that leaves the file unchanged,
        is a 422; a branch without ``citation.cite`` is a 404.
        """
        hosted = self.get_repository(slug, token=token)
        user = self._require_permission(hosted, token, Permission.WRITE)
        repo = hosted.repo
        target_branch = branch or hosted.default_branch
        with self._repo_lock(slug):
            if not repo.refs.has_branch(target_branch):
                raise NotFoundError(f"{slug} has no branch {target_branch!r}")
            _, base = self._citation_function(hosted, repo.refs.branch_target(target_branch))
            function = base.copy()
            try:
                apply_operation(function, operation)
                data = dump_citation_bytes(function)
            except (CitationError, UnicodeEncodeError) as exc:
                # UnicodeEncodeError: a lone surrogate in a JSON string has
                # no UTF-8 encoding, so the file cannot hold it.
                raise ValidationError(f"{operation.kind} {operation.path!r} refused: {exc}") from exc
            try:
                commit_oid = repo.commit_edit(
                    target_branch, CITATION_FILE_PATH, data,
                    message or operation.describe(), author_name=user.name,
                )
            except (StorageError, ObjectNotFoundError, InvalidObjectError):
                raise
            except VCSError as exc:
                raise ValidationError(
                    f"cannot commit {operation.describe()} on {slug}@{target_branch}: {exc}"
                ) from exc
            blob_oid = Blob(data).oid
            with self._parsed_lock:
                self._parsed.put(blob_oid, function)
            self._journal_contents_commit(repo, slug, target_branch, commit_oid)
            return commit_oid, blob_oid

    def _citation_function(self, hosted: HostedRepository, ref: str) -> tuple[str, CitationFunction]:
        """``(blob oid, parse)`` of ``citation.cite`` at ``ref``; the parse is shared, read-only."""
        repo = hosted.repo
        try:
            oid = repo.blob_oid_at(ref, CITATION_FILE_PATH)
        except (StorageError, ObjectNotFoundError, InvalidObjectError):
            raise
        except VCSError as exc:
            raise NotFoundError(
                f"{hosted.full_name}@{ref} is not citation-enabled "
                f"(no {CITATION_FILE_PATH[1:]} found)"
            ) from exc
        with self._parsed_lock:
            try:
                return oid, self._parsed.get(
                    oid, lambda: load_citation_bytes(repo.store.get_blob(oid).data)
                )
            except CitationError as exc:
                raise ValidationError(f"{hosted.full_name}@{ref}: {exc}") from exc

    # ------------------------------------------------------------------
    # History metadata (used when building citations for remote versions)
    # ------------------------------------------------------------------

    def branches(self, slug: str, token: Optional[str] = None) -> dict[str, str]:
        hosted = self.get_repository(slug, token=token)
        return hosted.repo.branches()

    def commits(self, slug: str, ref: Optional[str] = None, token: Optional[str] = None,
                limit: Optional[int] = None) -> list[dict]:
        """GitHub-style commit listing for a ref."""
        hosted = self.get_repository(slug, token=token)
        resolved_ref = ref or hosted.default_branch
        history = hosted.repo.log(resolved_ref, limit=limit)
        return [
            {
                "sha": info.oid,
                "commit": {
                    "message": info.commit.message,
                    "author": {
                        "name": info.commit.author.name,
                        "date": info.commit.author.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    },
                },
            }
            for info in history
        ]
