"""Data model of the hosting platform: users, tokens, permissions, repositories."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.errors import ValidationError
from repro.vcs.repository import Repository

__all__ = ["User", "AccessToken", "Permission", "HostedRepository"]


class Permission(enum.IntEnum):
    """Access levels, ordered so comparisons express "at least"."""

    NONE = 0
    READ = 1
    WRITE = 2
    ADMIN = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Permission":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValidationError(f"unknown permission level: {label!r}") from None


@dataclass(frozen=True)
class User:
    """An account on the platform."""

    login: str
    name: str
    email: str

    def __post_init__(self) -> None:
        if not self.login or "/" in self.login or " " in self.login:
            raise ValidationError(f"illegal login: {self.login!r}")


@dataclass(frozen=True)
class AccessToken:
    """A personal access token ("users provide their credentials", Section 3)."""

    value: str
    login: str
    created_at: datetime
    scopes: tuple[str, ...] = ("repo",)


@dataclass
class HostedRepository:
    """A repository hosted on the platform, with collaboration metadata."""

    repo: Repository
    private: bool = False
    created_at: Optional[datetime] = None
    collaborators: dict[str, Permission] = field(default_factory=dict)
    forked_from: Optional[str] = None
    stars: int = 0
    archived: bool = False

    @property
    def owner(self) -> str:
        return self.repo.owner

    @property
    def name(self) -> str:
        return self.repo.name

    @property
    def full_name(self) -> str:
        return self.repo.full_name

    @property
    def default_branch(self) -> str:
        return self.repo.refs.default_branch

    def permission_for(self, login: Optional[str]) -> Permission:
        """The effective permission of a user (or of an anonymous client)."""
        if login == self.owner:
            return Permission.ADMIN
        if login is not None and login in self.collaborators:
            return self.collaborators[login]
        return Permission.NONE if self.private else Permission.READ

    def is_member(self, login: Optional[str]) -> bool:
        """Project members are users allowed to modify files (Section 3)."""
        return self.permission_for(login) >= Permission.WRITE

    def to_dict(self) -> dict:
        """A GitHub-style repository JSON summary."""
        return {
            "full_name": self.full_name,
            "name": self.name,
            "owner": {"login": self.owner},
            "private": self.private,
            "description": self.repo.description,
            "default_branch": self.default_branch,
            "fork": self.forked_from is not None,
            "parent": self.forked_from,
            "archived": self.archived,
            "stargazers_count": self.stars,
        }
