"""Citation records.

A :class:`Citation` is the value attached to a node (file or directory) of a
project version by the citation function.  Its fields follow the entries of
the paper's Listing 1 — repository name, owner, committed date, commit id,
URL and author list — extended with the optional metadata the introduction
motivates (DOI, version label, license, title), so generated citations can
satisfy the FORCE11 / Software Sustainability Institute recommendations.

Records are immutable value objects: citation operators never mutate a
citation in place, they attach a new record (which is what makes the merge
and conflict-resolution semantics easy to reason about).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime
from typing import Any, Mapping, Optional

from repro.errors import InvalidCitationError
from repro.utils.timeutil import format_timestamp, parse_timestamp

__all__ = ["Citation"]

#: JSON keys used by the on-disk format, in the order the paper lists them.
_REQUIRED_KEYS = ("repoName", "owner", "committedDate", "commitID", "url", "authorList")
_OPTIONAL_KEYS = ("doi", "version", "license", "title", "description", "swhid")


class _FrozenDict(dict):
    """A JSON object inside a citation: read-only and hashable, and still
    written out as a JSON object."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def _read_only(self, *args, **kwargs):
        raise TypeError("citation values are immutable")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def _freeze(value: Any) -> Any:
    """``value`` with every JSON array a tuple and every object a :class:`_FrozenDict`.

    The writers emit both as before, so ``citation.cite`` bytes do not change.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return _FrozenDict((key, _freeze(item)) for key, item in value.items())
    return value


@dataclass(frozen=True)
class Citation:
    """A citation value as stored in ``citation.cite``.

    Parameters
    ----------
    repo_name:
        Name of the repository that hosts the cited code.
    owner:
        Account (person or organisation) that owns the repository.
    committed_date:
        The committed date of the cited version.
    commit_id:
        The (possibly abbreviated) commit id of the cited version.
    url:
        The HTTP address (or DOI URL) of the cited version.
    authors:
        The people credited for the cited node.
    doi, version, license, title, description, swhid:
        Optional metadata recommended by software-citation standards.
    extra:
        Any further key/value pairs found in a citation entry are preserved
        round-trip so foreign fields survive merge/copy/fork.
    """

    repo_name: str
    owner: str
    committed_date: datetime
    commit_id: str
    url: str
    authors: tuple[str, ...] = ()
    doi: Optional[str] = None
    version: Optional[str] = None
    license: Optional[str] = None
    title: Optional[str] = None
    description: Optional[str] = None
    swhid: Optional[str] = None
    extra: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.repo_name:
            raise InvalidCitationError("citation is missing the repository name")
        if not self.owner:
            raise InvalidCitationError("citation is missing the repository owner")
        if not self.commit_id:
            raise InvalidCitationError("citation is missing the commit id")
        if not self.url:
            raise InvalidCitationError("citation is missing the url")
        if not isinstance(self.committed_date, datetime):
            raise InvalidCitationError("committed_date must be a datetime")
        object.__setattr__(self, "authors", tuple(self.authors))
        # JSON arrays and objects become hashable, as a frozen value must be.
        for name in _OPTIONAL_KEYS:  # the optional keys are the field names
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "extra", tuple((key, _freeze(value)) for key, value in self.extra))

    # ------------------------------------------------------------------
    # Serialisation (the citation.cite JSON value format of Listing 1)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Render the citation as the JSON object stored in ``citation.cite``."""
        payload: dict[str, Any] = {
            "repoName": self.repo_name,
            "owner": self.owner,
            "committedDate": format_timestamp(self.committed_date),
            "commitID": self.commit_id,
            "url": self.url,
            "authorList": list(self.authors),
        }
        for key, attribute in (
            ("doi", self.doi),
            ("version", self.version),
            ("license", self.license),
            ("title", self.title),
            ("description", self.description),
            ("swhid", self.swhid),
        ):
            if attribute is not None:
                payload[key] = attribute
        for key, value in self.extra:
            payload.setdefault(key, value)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Citation":
        """Parse a citation entry value (tolerant of unknown extra keys)."""
        missing = [key for key in _REQUIRED_KEYS if key not in payload]
        if missing:
            raise InvalidCitationError(f"citation entry is missing required keys: {missing}")
        authors = payload["authorList"]
        if isinstance(authors, str):
            authors = [authors]
        if not isinstance(authors, (list, tuple)):
            raise InvalidCitationError("authorList must be a list of author names")
        try:
            committed = parse_timestamp(str(payload["committedDate"]))
        except ValueError as exc:
            raise InvalidCitationError(
                f"cannot parse committedDate {payload['committedDate']!r}"
            ) from exc
        known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
        extra = tuple(sorted((k, v) for k, v in payload.items() if k not in known))
        return cls(
            repo_name=str(payload["repoName"]),
            owner=str(payload["owner"]),
            committed_date=committed,
            commit_id=str(payload["commitID"]),
            url=str(payload["url"]),
            authors=tuple(str(a) for a in authors),
            doi=payload.get("doi"),
            version=payload.get("version"),
            license=payload.get("license"),
            title=payload.get("title"),
            description=payload.get("description"),
            swhid=payload.get("swhid"),
            extra=extra,
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_changes(self, **changes: Any) -> "Citation":
        """Return a copy with the given fields replaced (immutable update)."""
        if "authors" in changes:
            changes["authors"] = tuple(changes["authors"])
        return replace(self, **changes)

    @property
    def committed_date_string(self) -> str:
        return format_timestamp(self.committed_date)

    @property
    def primary_author(self) -> str:
        """The first listed author (falling back to the repository owner)."""
        return self.authors[0] if self.authors else self.owner

    @property
    def year(self) -> int:
        return self.committed_date.year

    def identity(self) -> tuple[str, str, str]:
        """A coarse identity used when comparing citations across repositories."""
        return (self.owner, self.repo_name, self.commit_id)

    def __str__(self) -> str:
        authors = ", ".join(self.authors) if self.authors else self.owner
        return (
            f"{authors}. {self.title or self.repo_name} ({self.year}). "
            f"{self.owner}/{self.repo_name}@{self.commit_id}. {self.url}"
        )
