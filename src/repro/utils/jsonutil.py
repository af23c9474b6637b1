"""Canonical JSON helpers.

The ``citation.cite`` file, the hosting-platform API payloads and the archive
simulator all serialise to JSON.  Canonical serialisation (sorted keys, fixed
separators, UTF-8, trailing newline) keeps object ids stable across runs: the
same citation function always serialises to the same bytes, so the commit that
snapshots ``citation.cite`` always has the same id — which is what makes the
Listing 1 reproduction exact.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["canonical_dumps", "canonical_dump_bytes", "stable_loads", "pretty_dumps"]


def canonical_dumps(value: Any) -> str:
    """Serialise ``value`` as canonical JSON (sorted keys, compact separators)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_dump_bytes(value: Any) -> bytes:
    """Serialise ``value`` as canonical UTF-8 JSON bytes with a trailing newline."""
    return (canonical_dumps(value) + "\n").encode("utf-8")


def pretty_dumps(value: Any) -> str:
    """Serialise ``value`` as human-readable JSON (2-space indent, sorted keys)."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def stable_loads(data: str | bytes) -> Any:
    """Parse JSON from text or UTF-8 bytes, raising ``ValueError`` on failure.

    Nesting deeper than the parser can recurse is malformed input like any
    other, so its ``RecursionError`` surfaces as ``ValueError`` too.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
