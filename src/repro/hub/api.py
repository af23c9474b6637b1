"""A REST-shaped façade over the hosting platform.

The browser extension in the paper talks to GitHub through its REST API.
:class:`RestApi` reproduces the relevant endpoints — repository metadata,
permissions, contents read/write/delete, forks, commit listings — with the
same verbs, route shapes, status codes and (simplified) JSON payloads, so the
extension simulator exercises the same request/response discipline a real
extension would, including authentication failures and rate limiting.

Routes implemented::

    GET    /user
    GET    /rate_limit
    GET    /repos/{owner}/{repo}
    GET    /repos/{owner}/{repo}/branches
    GET    /repos/{owner}/{repo}/commits?sha={ref}
    GET    /repos/{owner}/{repo}/collaborators/{username}/permission
    GET    /repos/{owner}/{repo}/git/trees/{ref}
    GET    /repos/{owner}/{repo}/git/refs
    POST   /repos/{owner}/{repo}/git/upload-pack
    POST   /repos/{owner}/{repo}/git/receive-pack
    GET    /repos/{owner}/{repo}/contents/{path}?ref={ref}
    PUT    /repos/{owner}/{repo}/contents/{path}
    DELETE /repos/{owner}/{repo}/contents/{path}
    GET    /repos/{owner}/{repo}/cite/{path}?ref={ref}
    POST   /repos/{owner}/{repo}/citations
    POST   /repos/{owner}/{repo}/forks

The three ``git/*`` sync endpoints carry the have/want negotiation and the
bundle payloads of :mod:`repro.vcs.transfer`, so a client can clone, fetch
and push over the same REST discipline the browser extension uses —
authentication, permissions and rate limiting included.

``cite`` and ``citations`` are the paper's extension operations done on the
hub, one request each: the ``cite`` ``GET`` evaluates GenCite
(``Cite(V,P)(path)``) and names the caller's permission, and the
``citations`` ``POST`` applies AddCite, ModifyCite or DelCite to a branch's
``citation.cite`` and commits it.  Every route is split on ``/`` first and
each segment percent-decoded once, so ``GET .../contents/my%20file.txt``
reads ``/my file.txt`` and an encoded ``%2F`` cannot forge a segment.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass, field
from typing import Any, Callable, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from repro import faults
from repro.citation.citefile import CITATION_FILE_PATH
from repro.citation.operators import AddCite, DelCite, ModifyCite
from repro.citation.record import Citation
from repro.errors import (
    AuthenticationError,
    CitationError,
    HubError,
    InvalidObjectError,
    NotFoundError,
    ObjectNotFoundError,
    PermissionDeniedError,
    RateLimitExceededError,
    StorageError,
    ValidationError,
)
from repro.hub.models import Permission
from repro.hub.server import HostingPlatform
from repro.vcs.objects import Blob

__all__ = ["ApiResponse", "ApiVerbs", "RestApi", "raise_for_status"]


@dataclass(frozen=True)
class ApiResponse:
    """A simplified HTTP response."""

    status: int
    json: Any = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


#: The wire statuses a client turns back into the typed exception the server raised.
_STATUS_ERRORS = {
    error.status_code: error
    for error in (AuthenticationError, PermissionDeniedError, NotFoundError, ValidationError)
}


def raise_for_status(response: ApiResponse, fallback: Callable[[str], Exception]) -> None:
    """Raise the client exception of a non-2xx response; return on 2xx.

    401, 403, 404, 422 and 429 raise their :class:`HubError` subclass (a 429
    carries the body's ``retry_after``); any other status raises
    ``fallback(message)``, so each client picks its own catch-all type.
    """
    if response.ok:
        return
    body = response.json if isinstance(response.json, dict) else {}
    message = body.get("message", f"HTTP {response.status}")
    if response.status == RateLimitExceededError.status_code:
        raise RateLimitExceededError(message, retry_after=body.get("retry_after"))
    error = _STATUS_ERRORS.get(response.status, fallback)
    raise error(message)


class ApiVerbs:
    """The convenience verbs, written once over ``self.request``.

    Every layer of the client/server stack — :class:`RestApi`, the
    lifecycle guard, the retry wrapper and the HTTP transport — speaks the
    same ``request(method, url, token, payload)`` surface; mixing this in
    gives each the matching ``get``/``put``/``post``/``delete``.
    """

    def get(self, url: str, token: Optional[str] = None) -> ApiResponse:
        return self.request("GET", url, token=token)

    def put(self, url: str, payload: dict, token: Optional[str] = None) -> ApiResponse:
        return self.request("PUT", url, token=token, payload=payload)

    def post(self, url: str, payload: Optional[dict] = None, token: Optional[str] = None) -> ApiResponse:
        return self.request("POST", url, token=token, payload=payload)

    def delete(self, url: str, payload: Optional[dict] = None, token: Optional[str] = None) -> ApiResponse:
        return self.request("DELETE", url, token=token, payload=payload)


@dataclass
class _Route:
    method: str
    path: str
    #: The path's non-empty segments, each percent-decoded once.
    parts: tuple[str, ...]
    query: dict[str, str] = field(default_factory=dict)


class RestApi(ApiVerbs):
    """Dispatch REST-style requests to a :class:`HostingPlatform`."""

    def __init__(self, platform: HostingPlatform) -> None:
        self.platform = platform

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def request(
        self,
        method: str,
        url: str,
        token: Optional[str] = None,
        payload: Optional[dict] = None,
    ) -> ApiResponse:
        """Perform a request; errors become status codes instead of exceptions.

        ``wire.request`` / ``wire.response`` failpoints model the network on
        either side of the server: an ``error`` armed there surfaces as
        :class:`TransportError` in the *caller* (the request or response was
        lost in flight — the server may or may not have acted), which is the
        exact ambiguity the retry policy plus idempotent endpoints resolve.
        Error bodies carry ``retryable`` (and ``retry_after`` for 429) so a
        remote client can make the retry decision without knowing the
        server's exception hierarchy.
        """
        faults.fire("wire.request")
        route = self._parse(method, url)
        try:
            self._check_rate_limit(token, route)
            handler = self._resolve_handler(route)
            body = handler(route, token, payload or {})
            status = 201 if method.upper() in ("POST", "PUT") else 200
            if method.upper() == "DELETE":
                status = 200
            faults.fire("wire.response")
            return ApiResponse(status=status, json=body)
        except HubError as exc:
            body = {"message": str(exc), "retryable": exc.retryable}
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                body["retry_after"] = retry_after
            return ApiResponse(status=exc.status_code, json=body)
        except (StorageError, ObjectNotFoundError, InvalidObjectError) as exc:
            # The platform layer deliberately lets storage corruption
            # propagate instead of masking it as a 404; at the REST boundary
            # that is a server-side failure, not a client error.  5xx is
            # retryable by convention: the request itself was well-formed.
            return ApiResponse(
                status=500,
                json={"message": f"internal storage error: {exc}", "retryable": True},
            )
        except OSError as exc:
            # A raw disk failure mid-request (full disk, yanked volume) that
            # no layer translated.  The request may be re-sent once the disk
            # recovers — the wire endpoints are idempotent — so it sheds as
            # a retryable 503 rather than tearing down the handler thread.
            return ApiResponse(
                status=503,
                json={
                    "message": f"server disk failure: {exc}",
                    "retryable": True,
                    "retry_after": 5.0,
                },
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _parse(self, method: str, url: str) -> _Route:
        split = urlsplit(url)
        query = {key: values[0] for key, values in parse_qs(split.query).items()}
        path = split.path.rstrip("/") or "/"
        parts = tuple(unquote(part) for part in path.split("/") if part)
        return _Route(method=method.upper(), path=path, parts=parts, query=query)

    def _check_rate_limit(self, token: Optional[str], route: _Route) -> None:
        if route.path == "/rate_limit":
            return
        identity = None
        if token is not None:
            access = self.platform.tokens.authenticate(token)
            identity = access.login if access else None
        self.platform.rate_limiter.check(identity)

    def _resolve_handler(self, route: _Route):
        parts = route.parts
        method = route.method

        if route.path == "/user" and method == "GET":
            return self._get_user
        if route.path == "/rate_limit" and method == "GET":
            return self._get_rate_limit
        if len(parts) >= 3 and parts[0] == "repos":
            if len(parts) == 3 and method == "GET":
                return self._get_repo
            if len(parts) == 4 and parts[3] == "branches" and method == "GET":
                return self._get_branches
            if len(parts) == 4 and parts[3] == "commits" and method == "GET":
                return self._get_commits
            if len(parts) == 4 and parts[3] == "forks" and method == "POST":
                return self._post_fork
            if len(parts) == 4 and parts[3] == "citations" and method == "POST":
                return self._post_citations
            if len(parts) >= 4 and parts[3] == "cite" and method == "GET":
                return self._get_cite
            if len(parts) == 6 and parts[3] == "collaborators" and parts[5] == "permission" and method == "GET":
                return self._get_permission
            if len(parts) == 5 and parts[3] == "git" and parts[4] == "refs" and method == "GET":
                return self._get_git_refs
            if len(parts) == 5 and parts[3] == "git" and parts[4] == "upload-pack" and method == "POST":
                return self._post_upload_pack
            if len(parts) == 5 and parts[3] == "git" and parts[4] == "receive-pack" and method == "POST":
                return self._post_receive_pack
            if len(parts) >= 5 and parts[3] == "git" and parts[4] == "trees" and method == "GET":
                return self._get_tree
            if len(parts) >= 5 and parts[3] == "contents":
                if method == "GET":
                    return self._get_contents
                if method == "PUT":
                    return self._put_contents
                if method == "DELETE":
                    return self._delete_contents
        raise NotFoundError(f"no such endpoint: {route.method} {route.path}")

    @staticmethod
    def _slug(route: _Route) -> str:
        return f"{route.parts[1]}/{route.parts[2]}"

    @staticmethod
    def _contents_path(route: _Route) -> str:
        return "/" + "/".join(route.parts[4:])

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _get_user(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        access = self.platform.tokens.authenticate(token)
        if access is None:
            raise NotFoundError("requires authentication")
        user = self.platform.get_user(access.login)
        return {"login": user.login, "name": user.name, "email": user.email}

    def _get_rate_limit(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        access = self.platform.tokens.authenticate(token) if token else None
        status = self.platform.rate_limiter.status(access.login if access else None)
        return {
            "resources": {
                "core": {"limit": status.limit, "used": status.used, "remaining": status.remaining}
            }
        }

    def _get_repo(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        hosted = self.platform.get_repository(self._slug(route), token=token)
        body = hosted.to_dict()
        body["html_url"] = self.platform.repository_url(hosted.full_name)
        return body

    def _get_branches(self, route: _Route, token: Optional[str], payload: dict) -> list[dict]:
        branches = self.platform.branches(self._slug(route), token=token)
        return [{"name": name, "commit": {"sha": oid}} for name, oid in sorted(branches.items())]

    def _get_commits(self, route: _Route, token: Optional[str], payload: dict) -> list[dict]:
        ref = route.query.get("sha")
        limit = int(route.query["per_page"]) if "per_page" in route.query else None
        return self.platform.commits(self._slug(route), ref=ref, token=token, limit=limit)

    def _get_permission(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        username = route.parts[4]
        hosted = self.platform.get_repository(self._slug(route), token=token)
        permission = hosted.permission_for(username)
        label = {
            Permission.ADMIN: "admin",
            Permission.WRITE: "write",
            Permission.READ: "read",
            Permission.NONE: "none",
        }[permission]
        return {"permission": label, "user": {"login": username}}

    def _get_tree(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        ref = route.parts[5] if len(route.parts) > 5 else None
        listing = self.platform.list_tree(self._slug(route), ref=ref, token=token)
        return {"tree": listing, "truncated": False}

    def _get_git_refs(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        return self.platform.git_refs(self._slug(route), token=token)

    def _post_upload_pack(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        wants = payload.get("wants")
        if (
            not isinstance(wants, list)
            or not wants
            or not all(isinstance(want, str) for want in wants)
        ):
            raise ValidationError("upload-pack requires a non-empty list of 'wants' strings")
        haves = payload.get("haves") or []
        if not isinstance(haves, list) or not all(isinstance(have, str) for have in haves):
            raise ValidationError("'haves' must be a list of commit id strings")
        data = self.platform.upload_pack(
            self._slug(route), wants=wants, haves=haves, token=token
        )
        return {
            "bundle": base64.b64encode(data).decode("ascii"),
            "size": len(data),
        }

    def _post_receive_pack(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        if "bundle" not in payload:
            raise ValidationError("receive-pack requires a base64 'bundle' field")
        try:
            encoded = payload["bundle"]
            if isinstance(encoded, str):
                encoded = "".join(encoded.split())
            data = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError, TypeError) as exc:
            raise ValidationError(f"bundle is not valid base64: {exc}") from exc
        return self.platform.receive_pack(
            self._slug(route),
            token=token,
            bundle_data=data,
            force=bool(payload.get("force", False)),
        )

    def _get_contents(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        slug = self._slug(route)
        path = self._contents_path(route)
        ref = route.query.get("ref")
        oid, data = self.platform.file_at(slug, path, ref=ref, token=token)
        return {
            "path": path.lstrip("/"),
            "sha": oid,
            "encoding": "base64",
            "content": base64.b64encode(data).decode("ascii"),
            "size": len(data),
        }

    def _put_contents(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        slug = self._slug(route)
        path = self._contents_path(route)
        if "content" not in payload or "message" not in payload:
            raise ValidationError("PUT contents requires 'message' and base64 'content' fields")
        try:
            # validate=True: without it b64decode silently discards any
            # non-alphabet characters, so a corrupted payload would commit
            # garbage bytes instead of being rejected with a 422.  MIME-style
            # line wrapping (RFC 2045 encoders insert newlines every 76
            # chars; GitHub accepts it) is legitimate, so whitespace is
            # stripped before validating.
            encoded = payload["content"]
            if isinstance(encoded, str):
                encoded = "".join(encoded.split())
            content = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError, TypeError) as exc:
            raise ValidationError(f"content is not valid base64: {exc}") from exc
        commit_oid = self.platform.put_file(
            slug,
            path,
            content,
            message=payload["message"],
            token=token,
            branch=payload.get("branch"),
            author_name=(payload.get("committer") or {}).get("name"),
        )
        return {
            "content": {"path": path.lstrip("/"), "sha": Blob(content).oid},
            "commit": {"sha": commit_oid},
        }

    def _delete_contents(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        slug = self._slug(route)
        path = self._contents_path(route)
        if "message" not in payload:
            raise ValidationError("DELETE contents requires a 'message' field")
        commit_oid = self.platform.delete_file(
            slug,
            path,
            message=payload["message"],
            token=token,
            branch=payload.get("branch"),
            author_name=(payload.get("committer") or {}).get("name"),
        )
        return {"content": None, "commit": {"sha": commit_oid}}

    def _get_cite(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        view = self.platform.generate_citation(
            self._slug(route), self._contents_path(route), ref=route.query.get("ref"), token=token
        )
        resolved = view.resolved
        citation = resolved.citation.to_dict()
        return {
            "ref": view.ref,
            "sha": view.sha,
            "path": resolved.path,
            "permission": view.permission.label,
            "explicit": citation if resolved.is_explicit else None,
            "resolved": {
                "path": resolved.path,
                "source_path": resolved.source_path,
                "is_explicit": resolved.is_explicit,
                "citation": citation,
            },
        }

    def _post_citations(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        kind, path = payload.get("op"), payload.get("path")
        if kind not in ("add", "modify", "delete") or not isinstance(path, str):
            raise ValidationError(
                "POST citations requires 'op' (add, modify or delete) and a string 'path'"
            )
        branch, message = payload.get("branch"), payload.get("message")
        if not isinstance(branch, (str, type(None))) or not isinstance(message, (str, type(None))):
            raise ValidationError("'branch' and 'message' must be strings")
        if kind == "delete":
            operation = DelCite(path=path)
        else:
            raw = payload.get("citation")
            if not isinstance(raw, dict):
                raise ValidationError(f"op {kind!r} requires a 'citation' object")
            try:
                citation = Citation.from_dict(raw)
            except CitationError as exc:
                raise ValidationError(f"invalid citation: {exc}") from exc
            if kind == "add":
                operation = AddCite(path, citation, is_directory=bool(payload.get("is_directory")))
            else:
                operation = ModifyCite(path, citation)
        commit_oid, blob_oid = self.platform.apply_citation_operation(
            self._slug(route), operation, token=token, branch=branch, message=message
        )
        return {
            "content": {"path": CITATION_FILE_PATH.lstrip("/"), "sha": blob_oid},
            "commit": {"sha": commit_oid},
        }

    def _post_fork(self, route: _Route, token: Optional[str], payload: dict) -> dict:
        hosted = self.platform.fork(self._slug(route), token=token, new_name=(payload or {}).get("name"))
        body = hosted.to_dict()
        body["html_url"] = self.platform.repository_url(hosted.full_name)
        return body

