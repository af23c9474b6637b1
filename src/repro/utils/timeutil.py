"""Timestamp handling.

The paper's ``citation.cite`` entries carry committed dates in the GitHub API
format (``"2018-09-04T02:35:20Z"``).  The substrate therefore represents all
timestamps as timezone-aware UTC :class:`~datetime.datetime` objects and
serialises them in exactly that format.

Determinism matters for reproduction: the scenario builders that regenerate
Listing 1 pass explicit timestamps everywhere, and tests may install a fake
clock via :func:`set_clock` so object ids remain stable.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Callable, Optional

__all__ = [
    "now_utc",
    "set_clock",
    "reset_clock",
    "format_timestamp",
    "parse_timestamp",
    "FixedClock",
]

_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

_clock: Optional[Callable[[], datetime]] = None


def now_utc() -> datetime:
    """Return the current UTC time (or the installed fake clock's time)."""
    if _clock is not None:
        value = _clock()
    else:
        value = datetime.now(timezone.utc)
    return value.astimezone(timezone.utc).replace(microsecond=0)


def set_clock(clock: Callable[[], datetime]) -> None:
    """Install a callable used instead of the wall clock (tests/benchmarks)."""
    global _clock
    _clock = clock


def reset_clock() -> None:
    """Restore wall-clock behaviour."""
    global _clock
    _clock = None


class FixedClock:
    """A deterministic clock that advances by a fixed step on every call.

    >>> clock = FixedClock(datetime(2018, 9, 4, 2, 35, 20, tzinfo=timezone.utc))
    >>> clock().isoformat()
    '2018-09-04T02:35:20+00:00'
    >>> clock().isoformat()
    '2018-09-04T02:35:21+00:00'
    """

    def __init__(self, start: datetime, step_seconds: int = 1) -> None:
        if start.tzinfo is None:
            start = start.replace(tzinfo=timezone.utc)
        self._current = start.astimezone(timezone.utc)
        self._step_seconds = step_seconds

    def __call__(self) -> datetime:
        from datetime import timedelta

        value = self._current
        self._current = self._current + timedelta(seconds=self._step_seconds)
        return value


def format_timestamp(value: datetime) -> str:
    """Serialise a datetime in the GitHub API format used by Listing 1."""
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value.astimezone(timezone.utc).strftime(_TIMESTAMP_FORMAT)


def _parse_canonical(value: str) -> Optional[datetime]:
    """Slice-parse exactly ``YYYY-MM-DDTHH:MM:SSZ``; ``None`` for anything else.

    Every object read parses two commit signatures, so this is a hot path:
    field slicing is several times cheaper than :func:`datetime.strptime`.
    Any input it does not accept — another shape, a non-ASCII digit, an
    out-of-range field — goes to ``strptime``, which parses it or raises
    exactly the error it always raised.
    """
    if (
        len(value) != 20
        or value[4] != "-" or value[7] != "-" or value[10] != "T"
        or value[13] != ":" or value[16] != ":" or value[19] != "Z"
    ):
        return None
    digits = value[0:4] + value[5:7] + value[8:10] + value[11:13] + value[14:16] + value[17:19]
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return datetime(
            int(value[0:4]), int(value[5:7]), int(value[8:10]),
            int(value[11:13]), int(value[14:16]), int(value[17:19]),
            tzinfo=timezone.utc,
        )
    except ValueError:
        return None


def parse_timestamp(value: str) -> datetime:
    """Parse a timestamp in the GitHub API format (``YYYY-MM-DDTHH:MM:SSZ``).

    The paper's listing contains whitespace introduced by typesetting
    (``"2018 -09 -04 T02:35:20Z"``); stray spaces are tolerated.  The
    canonical shape is sliced directly; everything else goes through
    ``strptime`` (which raises :class:`ValueError` for invalid input).
    """
    cleaned = value.replace(" ", "")
    parsed = _parse_canonical(cleaned)
    if parsed is not None:
        return parsed
    return datetime.strptime(cleaned, _TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
