"""API-level operations of the GitCite browser extension.

The extension never touches a local checkout: every read and write goes
through the hosting platform's REST API, exactly as described in Section 3
("The extension communicates with the GitHub servers using its REST API, and
directly modifies the citation file on the remote repository").

:class:`ExtensionClient` therefore works purely in terms of
``owner/name`` slugs, refs and paths, and every extension operation is one
request.  A view (GenCite) is ``GET /repos/{slug}/cite/{path}``: the hub
evaluates ``Cite(V,P)(path)`` and answers with the resolved citation and
the caller's permission, read afresh on each request, so a grant or
revocation shows up on the next view.  Without a ref the hub uses the
default branch and names it.  AddCite, ModifyCite and DelCite are one
``POST /repos/{slug}/citations`` each: the hub applies the operation to the
branch tip's ``citation.cite`` and commits, atomically per branch, so two
members' concurrent edits both land.

:meth:`ExtensionClient.citation_function` still downloads the whole file
through the contents endpoint, for callers that want the full function; it
parses once per blob oid (the reply's ``sha``) through a
:class:`~repro.citation.citefile.ParseCache`.  The signed-in login is
memoised per token, since a token names one user for its whole life; a 401
drops it.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Optional
from urllib.parse import quote

from repro.errors import CitationFileError, HubError, PermissionDeniedError
from repro.citation.citefile import CITATION_FILE_PATH, ParseCache, load_citation_bytes
from repro.citation.function import CitationFunction, ResolvedCitation
from repro.citation.record import Citation
from repro.hub.api import RestApi, raise_for_status
from repro.hub.retry import RetryingApi, RetryPolicy
from repro.utils.paths import normalize_path

__all__ = ["ExtensionClient", "RemoteCitationView"]

#: Permission labels that make a user a project member (may modify files).
_MEMBER_PERMISSIONS = ("write", "admin")


@dataclass(frozen=True)
class RemoteCitationView:
    """What the extension knows about one node of a remote repository."""

    slug: str
    ref: str
    path: str
    is_member: bool
    explicit_citation: Optional[Citation]
    resolved: ResolvedCitation

    @property
    def generated_text(self) -> str:
        """The citation text shown in the popup's window (copy-paste ready)."""
        return str(self.resolved.citation)


class ExtensionClient:
    """The extension's network layer plus citation logic.

    Pass ``retry`` (a :class:`~repro.hub.retry.RetryPolicy`) to wrap the API
    in a :class:`~repro.hub.retry.RetryingApi`: a flaky wire — dropped
    requests, lost responses, 429s, transient 5xxs — is then retried with
    backoff instead of surfacing as a popup error on the first hiccup.
    """

    def __init__(
        self,
        api: RestApi,
        token: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.api = RetryingApi(api, policy=retry) if retry is not None else api
        self.token = token
        #: ``(token, login)`` of the last token whose login is known.
        self._login: Optional[tuple[str, str]] = None
        self._parsed = ParseCache()

    # ------------------------------------------------------------------
    # Session / identity
    # ------------------------------------------------------------------

    def sign_in(self, token: str) -> str:
        """Store credentials and return the authenticated login.

        Raises :class:`~repro.errors.AuthenticationError`-shaped API failures
        as :class:`HubError` so the popup can show them.
        """
        response = self.api.get("/user", token=token)
        if not response.ok:
            raise PermissionDeniedError(f"sign-in failed: {response.json.get('message')}")
        self.token = token
        self._login = (token, response.json["login"])
        return response.json["login"]

    def sign_out(self) -> None:
        self.token = None
        self._login = None

    def current_login(self) -> Optional[str]:
        """The login of the current token, asked of the hub once per token."""
        token = self.token
        if token is None:
            return None
        if self._login is None or self._login[0] != token:
            response = self.api.get("/user", token=token)
            if not response.ok:
                return None
            self._login = (token, response.json["login"])
        return self._login[1]

    # ------------------------------------------------------------------
    # Remote repository inspection
    # ------------------------------------------------------------------

    def repository_info(self, slug: str) -> dict:
        response = self.api.get(f"/repos/{slug}", token=self.token)
        self._raise_for_status(response)
        return response.json

    def default_branch(self, slug: str) -> str:
        return self.repository_info(slug)["default_branch"]

    def is_member(self, slug: str) -> bool:
        """Whether the signed-in user may modify files (add/delete citations).

        Asked of the hub on every call, so a changed permission is never stale.
        """
        login = self.current_login()
        if login is None:
            return False
        response = self.api.get(f"/repos/{slug}/collaborators/{login}/permission", token=self.token)
        if response.status == 401:
            self._login = None
        if not response.ok:
            return False
        return response.json["permission"] in _MEMBER_PERMISSIONS

    def citation_function(self, slug: str, ref: Optional[str] = None) -> CitationFunction:
        """The remote ``citation.cite`` of a version, parsed (a private copy)."""
        return self._function_at(slug, ref or self.default_branch(slug)).copy()

    def _function_at(self, slug: str, ref: str) -> CitationFunction:
        """The parsed ``citation.cite`` at ``ref`` — shared cache instance, read-only.

        The file is downloaded every time; it is parsed only when its blob
        oid (the reply's ``sha``) is not cached yet.
        """
        url = f"/repos/{slug}/contents{quote(CITATION_FILE_PATH, safe='/')}?ref={quote(ref, safe='')}"
        response = self.api.get(url, token=self.token)
        if response.status == 404:
            raise CitationFileError(
                f"{slug}@{ref} is not citation-enabled (no {CITATION_FILE_PATH[1:]} found)"
            )
        self._raise_for_status(response)
        body = response.json
        return self._parsed.get(
            body["sha"], lambda: load_citation_bytes(base64.b64decode(body["content"]))
        )

    # ------------------------------------------------------------------
    # GenCite (available to everyone with read access)
    # ------------------------------------------------------------------

    def view_node(self, slug: str, path: str, ref: Optional[str] = None) -> RemoteCitationView:
        """Gather what the popup needs for one node (Figure 2's main view), in one request."""
        canonical = normalize_path(path)
        url = f"/repos/{slug}/cite{quote(canonical, safe='/')}"
        if ref is not None:
            url += f"?ref={quote(ref, safe='')}"
        response = self.api.get(url, token=self.token)
        self._raise_for_citation_status(response)
        body = response.json
        resolved = body["resolved"]
        citation = Citation.from_dict(resolved["citation"])
        return RemoteCitationView(
            slug=slug,
            ref=body["ref"],
            path=body["path"],
            is_member=body["permission"] in _MEMBER_PERMISSIONS,
            explicit_citation=citation if body["explicit"] is not None else None,
            resolved=ResolvedCitation(
                path=resolved["path"],
                citation=citation,
                source_path=resolved["source_path"],
                is_explicit=resolved["is_explicit"],
            ),
        )

    def generate_citation(self, slug: str, path: str, ref: Optional[str] = None) -> ResolvedCitation:
        """GenCite for a remote node: the hub evaluates ``Cite(V,P)(path)``."""
        return self.view_node(slug, path, ref=ref).resolved

    # ------------------------------------------------------------------
    # AddCite / ModifyCite / DelCite (project members only)
    # ------------------------------------------------------------------

    def add_citation(
        self,
        slug: str,
        path: str,
        citation: Citation,
        ref: Optional[str] = None,
        is_directory: bool = False,
    ) -> str:
        """Attach a citation to a remote node; returns the commit id."""
        return self._mutate(slug, ref, "add", path, citation, is_directory)

    def modify_citation(
        self, slug: str, path: str, citation: Citation, ref: Optional[str] = None
    ) -> str:
        """Replace the citation of a remote node."""
        return self._mutate(slug, ref, "modify", path, citation)

    def delete_citation(self, slug: str, path: str, ref: Optional[str] = None) -> str:
        """Remove the explicit citation of a remote node."""
        return self._mutate(slug, ref, "delete", path)

    def _mutate(self, slug: str, ref: Optional[str], kind: str, path: str,
                citation: Optional[Citation] = None, is_directory: bool = False) -> str:
        """One ``POST citations``: the hub applies the operation and commits."""
        if self.token is None:
            raise PermissionDeniedError(
                "only project members may add, modify or delete citations "
                "(non-members can still generate citations)"
            )
        canonical = normalize_path(path)
        label = {"add": "AddCite", "modify": "ModifyCite", "delete": "DelCite"}[kind]
        payload: dict = {
            "op": kind,
            "path": canonical,
            "message": f"{label} {canonical} via GitCite extension",
        }
        if citation is not None:
            payload["citation"] = citation.to_dict()
        if is_directory:
            payload["is_directory"] = True
        if ref is not None:
            payload["branch"] = ref
        response = self.api.post(f"/repos/{slug}/citations", payload, token=self.token)
        self._raise_for_citation_status(response)
        return response.json["commit"]["sha"]

    # ------------------------------------------------------------------

    def _raise_for_status(self, response) -> None:
        if response.status == 401:
            self._login = None
        raise_for_status(response, HubError)

    def _raise_for_citation_status(self, response) -> None:
        """:meth:`_raise_for_status`, but a 404 raises :class:`CitationFileError`.

        As in :meth:`_function_at`: the version has no ``citation.cite``, or
        the ref, branch or repository does not exist (or is not visible).
        """
        if response.status == 404:
            body = response.json if isinstance(response.json, dict) else {}
            raise CitationFileError(body.get("message", "not citation-enabled"))
        self._raise_for_status(response)
