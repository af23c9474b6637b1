"""Hub serving lifecycle: drain, overload shedding, degraded mode, health.

:mod:`repro.hub.durability` makes an acknowledged push survive the process;
this module governs the process itself.  It is deliberately transport-
agnostic — everything operates on the :class:`~repro.hub.api.RestApi` verb
surface, so the same guarantees hold for the in-process API the tests use
and the live socket ``gitcite serve`` runs.

* :class:`ServingState` — the one shared, lock-protected view of the
  server's mode (``serving`` / ``degraded`` / ``draining``), its in-flight
  request gauge and its shed/overrun counters.
* :class:`GuardedApi` — wraps any ``RestApi``-shaped object and enforces
  the lifecycle contract around every request:

  - ``GET /healthz`` answers from :class:`ServingState` without touching
    the platform (and, while degraded-recoverable, probes the disk so a
    healed failure flips the hub back to serving);
  - while **draining**, every request is shed with a retryable 503 — the
    client's retry lands on the restarted server;
  - while **degraded**, write requests are shed with a retryable 503 and
    reads pass through — a hub that lost objects to quarantine still
    serves clones of the intact history;
  - the **in-flight gauge** bounds concurrent handler work; request
    ``max_in_flight + 1`` is shed immediately with a retryable 503 and a
    ``retry_after`` hint instead of queueing without bound;
  - a per-request **deadline** is watched: a request that blew it is
    counted, and a *failed* response past the deadline is converted to a
    retryable 503 (the client has long stopped waiting; a successful
    mutation is never discarded — the acknowledgement is the contract).

* :func:`drain` — the shutdown half: stop accepting, wait for in-flight
  requests under a deadline, report whether the drain was clean.

Every shed response carries the ``retryable`` / ``retry_after`` body
fields documented in ``docs/WIRE_PROTOCOL.md``, which
:class:`~repro.hub.retry.RetryingApi` already honours — a well-behaved
client rides out a drain/overload/degradation window without new code.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.hub.api import ApiResponse, ApiVerbs

__all__ = ["ServingState", "GuardedApi", "drain", "HEALTH_ROUTE"]

HEALTH_ROUTE = "/healthz"

#: Routes that mutate hosted state.  ``POST git/upload-pack`` is a read
#: (it only serialises a bundle); every other POST/PUT/DELETE writes.
_READ_METHODS = frozenset({"GET", "HEAD"})


def _is_write(method: str, url: str) -> bool:
    if method.upper() in _READ_METHODS:
        return False
    path = url.split("?", 1)[0].rstrip("/")
    return not path.endswith("/git/upload-pack")


def _shed(status: int, message: str, retry_after: Optional[float]) -> ApiResponse:
    body: dict = {"message": message, "retryable": True}
    if retry_after is not None:
        body["retry_after"] = retry_after
    return ApiResponse(status=status, json=body)


class ServingState:
    """Thread-safe lifecycle state shared by the transport and the platform.

    Mode transitions: ``serving → draining`` (one-way, at shutdown);
    ``serving ⇄ degraded`` (a disk failure flips in, a successful
    ``/healthz`` probe flips back out when ``recoverable``; an unclean
    recovery pins ``recoverable=False`` so only operator action clears it).
    """

    def __init__(self, max_in_flight: int = 64, request_deadline: float = 30.0) -> None:
        self.max_in_flight = max(1, int(max_in_flight))
        self.request_deadline = float(request_deadline)
        self._lock = threading.Lock()
        self._in_flight = 0  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._degraded_reason: Optional[str] = None  # guarded-by: _lock
        self._degraded_recoverable = True  # guarded-by: _lock
        # ``_idle`` shares the state lock, so waiting on the condition and
        # checking ``_in_flight`` are one critical section.
        self._idle = threading.Condition(self._lock)
        #: Observability counters (exact under the lock).
        self.shed_overload = 0  # guarded-by: _lock
        self.shed_draining = 0  # guarded-by: _lock
        self.shed_degraded = 0  # guarded-by: _lock
        self.deadline_overruns = 0  # guarded-by: _lock
        self.requests_served = 0  # guarded-by: _lock

    # -- mode ----------------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def degraded(self) -> Optional[str]:
        """The degradation reason, or ``None`` while fully serving."""
        with self._lock:
            return self._degraded_reason

    @property
    def mode(self) -> str:
        with self._lock:
            if self._draining:
                return "draining"
            if self._degraded_reason is not None:
                return "degraded"
            return "serving"

    def start_draining(self) -> None:
        with self._lock:
            self._draining = True

    def mark_degraded(self, reason: str, recoverable: bool = True) -> None:
        with self._lock:
            self._degraded_reason = reason
            self._degraded_recoverable = recoverable

    def clear_degraded(self) -> None:
        with self._lock:
            self._degraded_reason = None
            self._degraded_recoverable = True

    @property
    def degraded_recoverable(self) -> bool:
        with self._lock:
            return self._degraded_recoverable

    # -- the in-flight gauge -------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def try_enter(self) -> bool:
        """Claim an in-flight slot, or refuse (the caller sheds)."""
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                self.shed_overload += 1
                return False
            self._in_flight += 1
            return True

    def leave(self) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            self.requests_served += 1
            if self._in_flight == 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight (or ``timeout`` elapses)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def note_shed_draining(self) -> None:
        with self._lock:
            self.shed_draining += 1

    def note_shed_degraded(self) -> None:
        with self._lock:
            self.shed_degraded += 1

    def note_deadline_overrun(self) -> None:
        with self._lock:
            self.deadline_overruns += 1

    # -- health --------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "status": (
                    "draining" if self._draining
                    else "degraded" if self._degraded_reason is not None
                    else "ok"
                ),
                "degraded_reason": self._degraded_reason,
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
                "requests_served": self.requests_served,
                "shed": {
                    "overload": self.shed_overload,
                    "draining": self.shed_draining,
                    "degraded": self.shed_degraded,
                },
                "deadline_overruns": self.deadline_overruns,
            }


class GuardedApi(ApiVerbs):
    """Lifecycle enforcement around any ``RestApi``-shaped object.

    ``probe`` is the degradation-recovery check ``/healthz`` runs while the
    state is degraded-recoverable — typically
    :meth:`repro.hub.durability.PushJournal.verify_writable`.  Returning
    ``True`` clears the degradation.
    """

    def __init__(
        self,
        api,
        state: ServingState,
        probe: Optional[Callable[[], bool]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.api = api
        self.state = state
        self.probe = probe
        self.clock = clock

    # ------------------------------------------------------------------

    def _health(self) -> ApiResponse:
        state = self.state
        if state.degraded is not None and state.degraded_recoverable and self.probe is not None:
            # The probe is itself the recovery attempt: a journal fsync that
            # succeeds means the disk took writes again, so flip back.
            if self.probe():
                state.clear_degraded()
        body = state.snapshot()
        status = 200 if body["status"] == "ok" else 503
        return ApiResponse(status=status, json=body)

    def request(self, method, url, token=None, payload=None) -> ApiResponse:
        state = self.state
        path = url.split("?", 1)[0].rstrip("/") or "/"
        if path == HEALTH_ROUTE and method.upper() == "GET":
            return self._health()
        if state.draining:
            state.note_shed_draining()
            return _shed(503, "server is draining for shutdown", 1.0)
        degraded = state.degraded
        if degraded is not None and _is_write(method, url):
            state.note_shed_degraded()
            return _shed(503, f"hub is degraded (read-only): {degraded}", 5.0)
        if not state.try_enter():
            return _shed(
                503,
                f"server is at its in-flight capacity ({state.max_in_flight})",
                0.05,
            )
        started = self.clock()
        try:
            response = self.api.request(method, url, token=token, payload=payload)
        finally:
            state.leave()
        elapsed = self.clock() - started
        if elapsed > state.request_deadline:
            state.note_deadline_overrun()
            if not response.ok:
                # The client gave up long ago; a late failure is re-shaped
                # into "try again" rather than a stale semantic rejection.
                # Late *successes* are returned untouched: an acknowledged
                # mutation must never be re-labelled retryable-failed.
                return _shed(
                    503,
                    f"request exceeded its {state.request_deadline:.1f}s deadline",
                    None,
                )
        return response


def drain(state: ServingState, http_server=None, timeout: float = 10.0) -> bool:
    """Graceful shutdown: stop accepting, finish in-flight work, report.

    Marks ``state`` draining (new requests shed retryable 503), stops the
    HTTP accept loop if one is given, then waits up to ``timeout`` seconds
    for the in-flight gauge to reach zero.  Returns ``True`` when every
    in-flight request finished — the caller may then take the final save
    knowing no handler is mid-mutation.
    """
    state.start_draining()
    if http_server is not None:
        http_server.stop()
    return state.wait_idle(timeout)
