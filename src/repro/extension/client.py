"""API-level operations of the GitCite browser extension.

The extension never touches a local checkout: every read and write goes
through the hosting platform's REST API, exactly as described in Section 3
("The extension communicates with the GitHub servers using its REST API, and
directly modifies the citation file on the remote repository").

:class:`ExtensionClient` therefore works purely in terms of
``owner/name`` slugs, refs and paths; it downloads ``citation.cite`` through
the contents endpoint, evaluates the citation function locally, and — for
project members — uploads the modified file back through the same endpoint.

Repeated views are cheap.  The contents reply carries the file's blob oid
(``sha``), and a version's ``citation.cite`` never changes for a given oid,
so parses are memoised in a :class:`~repro.citation.citefile.ParseCache`
keyed by it.  The signed-in login is memoised per token, since a token
names one user for its whole life; a 401 drops it.  Membership is never
cached: each view asks for the permission again, so a grant or revocation
shows up on the next view.  A view therefore makes two requests, the
contents ``GET`` and the permission ``GET``.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Optional

from repro.errors import CitationFileError, HubError, PermissionDeniedError
from repro.citation.citefile import (
    CITATION_FILE_PATH,
    ParseCache,
    dumps_citation_file,
    load_citation_bytes,
)
from repro.citation.function import CitationFunction, ResolvedCitation
from repro.citation.operators import AddCite, DelCite, ModifyCite, apply_operation
from repro.citation.record import Citation
from repro.hub.api import RestApi, raise_for_status
from repro.hub.retry import RetryingApi, RetryPolicy
from repro.utils.paths import normalize_path

__all__ = ["ExtensionClient", "RemoteCitationView"]


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
        return response.json["permission"] in ("write", "admin")

    def citation_function(self, slug: str, ref: Optional[str] = None) -> CitationFunction:
        """The remote ``citation.cite`` of a version, parsed (a private copy)."""
        return self._function_at(slug, ref or self.default_branch(slug)).copy()

    def _function_at(self, slug: str, ref: str) -> CitationFunction:
        """The parsed ``citation.cite`` at ``ref`` — shared cache instance, read-only.

        The file is downloaded every time; it is parsed only when its blob
        oid (the reply's ``sha``) is not cached yet.
        """
        url = f"/repos/{slug}/contents{CITATION_FILE_PATH}?ref={ref}"
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
        """Gather what the popup needs for one node (Figure 2's main view)."""
        ref = ref or self.default_branch(slug)
        function = self._function_at(slug, ref)
        canonical = normalize_path(path)
        return RemoteCitationView(
            slug=slug,
            ref=ref,
            path=canonical,
            is_member=self.is_member(slug),
            explicit_citation=function.get_explicit(canonical),
            resolved=function.resolve(canonical),
        )

    def generate_citation(self, slug: str, path: str, ref: Optional[str] = None) -> ResolvedCitation:
        """GenCite for a remote node: evaluate ``Cite(V,P)(path)`` remotely."""
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
        """Attach a citation to a remote node by rewriting ``citation.cite``."""
        return self._mutate(
            slug,
            ref,
            AddCite(path=path, citation=citation, is_directory=is_directory),
            f"AddCite {normalize_path(path)} via GitCite extension",
        )

    def modify_citation(
        self, slug: str, path: str, citation: Citation, ref: Optional[str] = None
    ) -> str:
        """Replace the citation of a remote node."""
        return self._mutate(
            slug,
            ref,
            ModifyCite(path=path, citation=citation),
            f"ModifyCite {normalize_path(path)} via GitCite extension",
        )

    def delete_citation(self, slug: str, path: str, ref: Optional[str] = None) -> str:
        """Remove the explicit citation of a remote node."""
        return self._mutate(
            slug,
            ref,
            DelCite(path=path),
            f"DelCite {normalize_path(path)} via GitCite extension",
        )

    def _mutate(self, slug: str, ref: Optional[str], operation, message: str) -> str:
        if not self.is_member(slug):
            raise PermissionDeniedError(
                "only project members may add, modify or delete citations "
                "(non-members can still generate citations)"
            )
        ref = ref or self.default_branch(slug)
        function = self._function_at(slug, ref).copy()
        apply_operation(function, operation)
        payload = {
            "message": message,
            "content": base64.b64encode(dumps_citation_file(function).encode("utf-8")).decode("ascii"),
            "branch": ref,
        }
        response = self.api.put(
            f"/repos/{slug}/contents{CITATION_FILE_PATH}", payload, token=self.token
        )
        self._raise_for_status(response)
        return response.json["commit"]["sha"]

    # ------------------------------------------------------------------

    def _raise_for_status(self, response) -> None:
        if response.status == 401:
            self._login = None
        raise_for_status(response, HubError)
