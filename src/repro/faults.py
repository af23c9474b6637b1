"""Fault injection: a process-global registry of named failpoints.

Durable-write sites, the transfer stream and the wire layer are instrumented
with *failpoints* — named hooks that are no-ops in production but that a test
(or a fleet fault schedule) can **arm** with a deterministic action:

* ``crash``    — raise :class:`SimulatedCrash` *before* the protected effect,
  modelling a process death at that instant;
* ``truncate`` — let the caller write only the first ``keep`` bytes, then
  raise :class:`SimulatedCrash`, modelling a crash mid-write (the classic
  torn temp file);
* ``flip``     — XOR one byte of the payload and let the operation complete,
  modelling silent on-disk / in-flight corruption that only an integrity
  scan can catch;
* ``error``    — raise a caller-supplied exception (connection reset, disk
  full, …) without crashing the process.

Every site calls :func:`fire` (control points) or :func:`corrupt` /
:func:`consume` (data points) with its failpoint name.  Hits are counted per
name whether or not anything is armed, so a sweep harness can dry-run an
operation sequence, read :func:`hits`, and then re-run it once per
``(failpoint, hit index)`` pair with a crash armed — the exhaustive
crash-point sweep the durability tests perform.

Arming is keyed by a 1-based hit index (``at``) and an optional repeat count
(``times``; ``None`` repeats forever), so a schedule like "crash the third
pack flush" or "drop every wire response twice" is a single :func:`arm`
call.  :class:`SimulatedCrash` deliberately derives from ``BaseException``:
blanket ``except Exception`` recovery code must *not* swallow a simulated
process death, exactly as it could not swallow a real one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

__all__ = [
    "SimulatedCrash",
    "FaultAction",
    "register",
    "registered_failpoints",
    "arm",
    "disarm",
    "reset",
    "hits",
    "all_hits",
    "fire",
    "consume",
    "corrupt",
    "armed",
]


class SimulatedCrash(BaseException):
    """An injected process death at a named failpoint.

    Derives from ``BaseException`` so ordinary ``except Exception`` error
    handling cannot absorb it — recovery from a simulated crash must happen
    the way it would for a real one: by reopening the store from disk.
    """

    def __init__(self, failpoint: str, detail: str = "") -> None:
        message = f"simulated crash at failpoint {failpoint!r}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.failpoint = failpoint


@dataclass
class FaultAction:
    """What an armed failpoint does when its hit index comes up."""

    kind: str = "crash"  # "crash" | "truncate" | "flip" | "error"
    #: 1-based hit index at which the action first triggers.
    at: int = 1
    #: How many consecutive hits trigger (``None`` = every hit from ``at``).
    times: Optional[int] = 1
    #: ``truncate``: number of payload bytes the caller gets to write.
    keep: int = 0
    #: ``flip``: byte offset to corrupt (clamped into the payload).
    offset: int = 0
    #: ``flip``: XOR mask applied to the corrupted byte.
    xor: int = 0xFF
    #: ``error``: exception instance, class or zero-arg factory to raise.
    error: Optional[Callable[[], BaseException]] = None
    #: How many times this action has actually triggered.
    triggered: int = field(default=0, compare=False)

    def matches(self, hit: int) -> bool:
        if hit < self.at:
            return False
        return self.times is None or hit < self.at + self.times

    def make_error(self, failpoint: str) -> BaseException:
        if self.error is None:
            return SimulatedCrash(failpoint, "error action without an exception")
        made = self.error() if callable(self.error) else self.error
        if isinstance(made, BaseException):
            return made
        return SimulatedCrash(failpoint, f"error factory returned {made!r}")


#: The canonical failpoints the instrumented modules fire.  ``register`` may
#: add more at runtime; these exist up front so sweep harnesses can enumerate
#: the full crash-point space without importing every instrumented module.
_CANONICAL = (
    "storage.flush",   # pack backend flush (new pack file)
    "pack.idx",        # per-pack fanout index write
    "pack.midx",       # multi-pack index write
    "pack.repack",     # repack/gc replacement pack write
    "state.save",      # working-copy state.json write
    "worktree.write",  # one working-copy file write (every save and checkout)
    "bundle.read",     # transfer stream entering the bundle parser
    "bundle.apply",    # verified objects about to land in the store
    "wire.request",    # REST request leaving the client
    "wire.response",   # REST response returning to the client
    "journal.append",  # write-ahead push journal append (serve durability)
    "serve.recover",   # per-record journal replay during serve startup
)

_hits: dict[str, int] = {name: 0 for name in _CANONICAL}
_arms: dict[str, list[FaultAction]] = {}


def register(name: str) -> str:
    """Declare a failpoint name (idempotent); returns the name."""
    _hits.setdefault(name, 0)
    return name


def registered_failpoints() -> tuple[str, ...]:
    """Every known failpoint name, sorted."""
    return tuple(sorted(_hits))


def hits(name: str) -> int:
    """How many times ``name`` has fired since the last :func:`reset`."""
    return _hits.get(name, 0)


def all_hits() -> dict[str, int]:
    """Snapshot of every failpoint's hit count."""
    return dict(_hits)


def arm(name: str, action: str | FaultAction = "crash", **kwargs) -> FaultAction:
    """Arm ``name`` with an action (kind string plus keyword options)."""
    register(name)
    armed_action = action if isinstance(action, FaultAction) else FaultAction(kind=action, **kwargs)
    if armed_action.kind not in ("crash", "truncate", "flip", "error"):
        raise ValueError(f"unknown fault action kind {armed_action.kind!r}")
    _arms.setdefault(name, []).append(armed_action)
    return armed_action


def disarm(name: str | None = None) -> None:
    """Remove the arms of one failpoint, or all of them."""
    if name is None:
        _arms.clear()
    else:
        _arms.pop(name, None)


def reset() -> None:
    """Disarm everything and zero every hit counter."""
    _arms.clear()
    for name in _hits:
        _hits[name] = 0


@contextmanager
def armed(name: str, action: str | FaultAction = "crash", **kwargs) -> Iterator[FaultAction]:
    """Context manager: arm for the duration of the block, then disarm it."""
    armed_action = arm(name, action, **kwargs)
    try:
        yield armed_action
    finally:
        actions = _arms.get(name)
        if actions is not None:
            try:
                actions.remove(armed_action)
            except ValueError:
                pass
            if not actions:
                _arms.pop(name, None)


def consume(name: str | None) -> FaultAction | None:
    """Record one hit of ``name`` and return the triggering action, if any.

    This is the primitive the durable-write helper uses to get the full
    action semantics (truncate-then-crash needs the caller's cooperation);
    most sites use :func:`fire` or :func:`corrupt` instead.  ``None`` names
    are accepted and ignored so call sites can thread an optional failpoint.
    """
    if name is None:
        return None
    hit = _hits.get(name, 0) + 1
    _hits[name] = hit
    for action in _arms.get(name, ()):
        if action.matches(hit):
            action.triggered += 1
            return action
    return None


def fire(name: str | None) -> None:
    """A pure control point: crash or raise if armed, otherwise a no-op.

    ``truncate``/``flip`` actions have no payload to act on here and behave
    like ``crash`` — arming them at a control point still denotes "die at
    this site".
    """
    action = consume(name)
    if action is None:
        return
    if action.kind == "error":
        raise action.make_error(name or "?")
    raise SimulatedCrash(name or "?")


def corrupt(name: str | None, data: bytes) -> bytes:
    """A data point for in-flight payloads: mangle, crash or pass through.

    ``truncate`` and ``flip`` return the damaged bytes (the transfer layer's
    checksums are expected to catch them); ``crash``/``error`` raise.
    """
    action = consume(name)
    if action is None:
        return data
    if action.kind == "truncate":
        return data[: max(0, action.keep)]
    if action.kind == "flip":
        if not data:
            return data
        position = min(max(action.offset, 0), len(data) - 1)
        mutated = bytearray(data)
        mutated[position] ^= action.xor or 0xFF
        return bytes(mutated)
    if action.kind == "error":
        raise action.make_error(name or "?")
    raise SimulatedCrash(name or "?")
