"""Retrying wire transport: exponential backoff, jitter, ``Retry-After``.

The wire between a client and the hub can fail three ways: the request is
lost before the server sees it, the server fails transiently (a 5xx, a
damaged-in-flight upload, a 429), or the *response* is lost after the
server already acted.  :class:`RetryPolicy` + :class:`RetryingApi` make all
three survivable with one mechanism, because every wire endpoint is
idempotent — re-sending an identical receive-pack is a no-op success
(see :func:`repro.vcs.transfer.session.apply_bundle`), reads are pure, and
ref updates converge to the same tips.

Determinism is injected, never assumed: the backoff jitter comes from a
seeded RNG, sleeping goes through a caller-supplied ``sleep`` callable, so
tests (and the fleet's fault schedules) replay byte-identical retry traces
with a fake clock — a ``sleep`` that *advances* that clock makes 429
windows genuinely expire mid-test.

Retry classification:

* raised :class:`~repro.errors.TransportError` — always retry (the request
  or response died in flight);
* HTTP 429 — retry after the response's ``retry_after`` hint (the rate
  window's actual remaining time) or the backoff delay, whichever is later;
* HTTP 5xx — retry (server-side failure of a well-formed request);
* any response whose body carries ``retryable: true`` (e.g. a 422 from a
  checksum-corrupt upload, where the sender's copy is intact) — retry;
* everything else — return immediately; semantic rejections do not heal
  with repetition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import TransportError
from repro.hub.api import ApiVerbs

__all__ = ["RetryPolicy", "RetryingApi"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter and a hard attempt cap."""

    #: Total tries, including the first (1 = no retries at all).
    max_attempts: int = 5
    base_delay: float = 0.1
    max_delay: float = 30.0
    multiplier: float = 2.0
    #: Fraction of each delay randomised away (0 = fully deterministic).
    jitter: float = 0.5
    seed: int = 0

    def delays(self) -> "_DelaySequence":
        return _DelaySequence(self)


class _DelaySequence:
    """The per-operation delay stream (owns this operation's RNG state)."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._rng = random.Random(policy.seed)

    def delay_for(self, attempt: int, retry_after: Optional[float] = None) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        A server-provided ``retry_after`` is a floor, never a cap: sleeping
        less than the rate window's remaining time would burn an attempt on
        a guaranteed 429.
        """
        policy = self.policy
        delay = min(policy.max_delay, policy.base_delay * policy.multiplier ** (attempt - 1))
        if policy.jitter:
            spread = delay * policy.jitter
            delay = delay - spread + self._rng.random() * 2 * spread
        if retry_after is not None:
            delay = max(delay, retry_after)
        return min(delay, max(policy.max_delay, retry_after or 0.0))


def _should_retry(response) -> bool:
    if response.status == 429 or response.status >= 500:
        return True
    body = response.json if isinstance(response.json, dict) else {}
    return bool(body.get("retryable"))


def _retry_after_hint(response) -> Optional[float]:
    body = response.json if isinstance(response.json, dict) else {}
    hint = body.get("retry_after")
    return float(hint) if isinstance(hint, (int, float)) else None


class RetryingApi(ApiVerbs):
    """A drop-in :class:`~repro.hub.api.RestApi` wrapper that retries.

    ``sleep`` is how time passes between attempts — inject a fake for
    deterministic tests (the default does nothing, because the in-process
    hub's rate windows only advance through their own injected clock).
    Exhausting the policy returns the last failed response, or re-raises
    the last :class:`TransportError`; a :class:`SimulatedCrash` always
    propagates — a retry loop must not survive its own process death.
    """

    def __init__(
        self,
        api,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.api = api
        self.policy = policy or RetryPolicy()
        self.sleep = sleep if sleep is not None else (lambda seconds: None)
        #: Total retries performed (observability for tests and benchmarks).
        self.retries = 0

    def request(self, method, url, token=None, payload=None):
        delays = self.policy.delays()
        last_error: TransportError | None = None
        response = None
        for attempt in range(1, self.policy.max_attempts + 1):
            try:
                response = self.api.request(method, url, token=token, payload=payload)
                last_error = None
            except TransportError as exc:
                last_error = exc
                response = None
            if response is not None and not _should_retry(response):
                return response
            if attempt == self.policy.max_attempts:
                break
            hint = _retry_after_hint(response) if response is not None else None
            self.sleep(delays.delay_for(attempt, retry_after=hint))
            self.retries += 1
        if last_error is not None:
            raise last_error
        return response
