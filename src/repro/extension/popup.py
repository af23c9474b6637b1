"""The popup state machine of the GitCite browser extension (Figure 2).

Section 3 describes the popup's behaviour precisely:

* users provide their credentials to obtain access to the repository, then
  click on a node;
* if the user is **not** a project member the extension *immediately
  generates the citation* (shown in the text window) so it can be copy-pasted
  into a bibliography manager, and the Add/Delete buttons are disabled;
* if the user **is** a project member, the text box shows the citation
  *explicitly attached* to the node if one exists (which they may modify);
  otherwise the box stays empty, and the user may type a citation or press
  "Generate Citation" to see the closest ancestor's citation, edit it, and
  attach it to the current node.

:class:`PopupSession` models exactly those interactions so the reproduction
of Figure 2 (``tests/test_scenarios_integration.py``) can assert on the rendered
state, not just on API effects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.errors import CitationError
from repro.citation.record import Citation
from repro.extension.client import ExtensionClient
from repro.utils.jsonutil import stable_loads
from repro.utils.paths import normalize_path

__all__ = ["PopupView", "PopupSession"]


@dataclass(frozen=True)
class PopupView:
    """A rendering of the popup for the currently selected node."""

    slug: str
    ref: str
    path: str
    signed_in_as: Optional[str]
    is_member: bool
    text_box: str
    generated_text: str
    add_enabled: bool
    delete_enabled: bool
    modify_enabled: bool
    generate_enabled: bool

    def as_lines(self) -> list[str]:
        """A plain-text rendering (used by the example scripts)."""
        def mark(enabled: bool) -> str:
            return "enabled" if enabled else "disabled"

        return [
            f"Repository : {self.slug} @ {self.ref}",
            f"Node       : {self.path}",
            f"User       : {self.signed_in_as or '(anonymous)'}"
            + ("  [project member]" if self.is_member else "  [not a member]"),
            f"Citation   : {self.text_box or '(empty)'}",
            f"[Generate Citation: {mark(self.generate_enabled)}] "
            f"[Add: {mark(self.add_enabled)}] "
            f"[Modify: {mark(self.modify_enabled)}] "
            f"[Delete: {mark(self.delete_enabled)}]",
        ]


class PopupSession:
    """Drive the popup through its states: sign in → select node → act."""

    def __init__(self, client: ExtensionClient) -> None:
        self.client = client
        self.slug: Optional[str] = None
        self.ref: Optional[str] = None
        self.path: Optional[str] = None
        self._text_box: str = ""

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def sign_in(self, token: str) -> str:
        """Provide credentials (the popup's token field)."""
        return self.client.sign_in(token)

    def open_repository(self, slug: str, ref: Optional[str] = None) -> None:
        """Point the popup at a repository page."""
        self.slug = slug
        self.ref = ref or self.client.default_branch(slug)
        self.path = None
        self._text_box = ""

    def select_node(self, path: str) -> PopupView:
        """Click on a file or directory of the repository page."""
        if self.slug is None or self.ref is None:
            raise CitationError("open a repository before selecting a node")
        self.path = normalize_path(path)
        view = self._render()
        self._text_box = view.text_box
        return view

    def _render(self) -> PopupView:
        assert self.slug and self.ref and self.path
        node = self.client.view_node(self.slug, self.path, ref=self.ref)
        signed_in_as = self.client.current_login()
        if node.is_member:
            # Members see the explicit citation (or an empty box inviting input).
            text_box = (
                json.dumps(node.explicit_citation.to_dict(), indent=2, sort_keys=True)
                if node.explicit_citation is not None
                else ""
            )
        else:
            # Non-members immediately get the generated citation to copy-paste.
            text_box = node.generated_text
        return PopupView(
            slug=self.slug,
            ref=self.ref,
            path=self.path,
            signed_in_as=signed_in_as,
            is_member=node.is_member,
            text_box=text_box,
            generated_text=node.generated_text,
            add_enabled=node.is_member and node.explicit_citation is None,
            delete_enabled=node.is_member and node.explicit_citation is not None,
            modify_enabled=node.is_member and node.explicit_citation is not None,
            generate_enabled=True,
        )

    # ------------------------------------------------------------------
    # Button actions
    # ------------------------------------------------------------------

    def press_generate(self) -> str:
        """The "Generate Citation" button: fill the box with Cite(V,P)(node)."""
        self._require_node()
        resolved = self.client.generate_citation(self.slug, self.path, ref=self.ref)
        self._text_box = json.dumps(resolved.citation.to_dict(), indent=2, sort_keys=True)
        return self._text_box

    def edit_text_box(self, citation: Citation) -> str:
        """Type/replace the citation shown in the text box (members only edit)."""
        self._require_node()
        self._text_box = json.dumps(citation.to_dict(), indent=2, sort_keys=True)
        return self._text_box

    def press_add(self, is_directory: bool = False) -> str:
        """The "Add" button: attach the box's citation to the selected node."""
        citation = self._citation_from_box()
        commit = self.client.add_citation(
            self.slug, self.path, citation, ref=self.ref, is_directory=is_directory
        )
        return commit

    def press_modify(self) -> str:
        """Save an edited citation over the node's existing one."""
        citation = self._citation_from_box()
        return self.client.modify_citation(self.slug, self.path, citation, ref=self.ref)

    def press_delete(self) -> str:
        """The "Delete" button: remove the node's explicit citation."""
        self._require_node()
        return self.client.delete_citation(self.slug, self.path, ref=self.ref)

    # ------------------------------------------------------------------

    def _require_node(self) -> None:
        if not (self.slug and self.ref and self.path):
            raise CitationError("select a node in an open repository first")

    def _citation_from_box(self) -> Citation:
        self._require_node()
        if not self._text_box.strip():
            raise CitationError("the citation text box is empty; generate or type a citation first")
        try:
            return Citation.from_dict(stable_loads(self._text_box))
        except (ValueError, CitationError) as exc:
            raise CitationError(f"the text box does not contain a valid citation: {exc}") from exc
