"""RetryPolicy: bounded retries with exponential backoff and full jitter.

One policy object covers every retried boundary (shipping, checkpoint
save, follower poll): it classifies errors as retryable or not, spaces
attempts with full-jitter exponential backoff, and gives up against a
deadline or an attempt cap. Exhaustion is *typed* — a
:class:`~repro.errors.DurabilityError` chained from the last failure —
so callers one layer up can transition to degraded mode instead of
seeing a bare ``OSError`` bubble out of the middle of a batch.

Classification defaults are deliberately conservative:

* transient-looking ``OSError`` errnos (``EIO``, ``EAGAIN``, ``EINTR``,
  ``EBUSY``, ``ETIMEDOUT``) plus ``ConnectionError``/``TimeoutError``
  are retryable — a flaky disk or link heals under backoff;
* ``ENOSPC`` is NOT retryable: a full disk does not drain in three
  sleeps, and retrying it only delays the degraded-mode transition the
  caller should make immediately.

:class:`~repro.faults.inject.InjectedCrash` derives from
``BaseException`` and therefore sails through ``run`` untouched: a
simulated process death must never be "healed" by a retry loop, or
crash sweeps would silently stop testing recovery.

Instrumented on the shared obs substrate: every call records one
``retry_attempts_total{boundary,outcome}`` increment per attempt
(outcomes ``ok`` / ``retried`` / ``exhausted`` / ``fatal``) and each
backoff sleep lands in the ``retry_backoff_seconds{boundary}``
histogram.
"""

from __future__ import annotations

import errno as _errno
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import DurabilityError
from repro.obs import NULL_TELEMETRY

#: OSError errnos worth retrying: transient by nature.
TRANSIENT_ERRNOS = frozenset(
    {_errno.EIO, _errno.EAGAIN, _errno.EINTR, _errno.EBUSY, _errno.ETIMEDOUT}
)


def default_classifier(error: Exception) -> bool:
    """Is this error worth retrying? (ENOSPC deliberately is not.)"""
    if isinstance(error, (ConnectionError, TimeoutError)):
        return True
    if isinstance(error, OSError):
        return error.errno in TRANSIENT_ERRNOS
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and full jitter.

    Attributes
    ----------
    max_attempts:
        Total tries including the first; ``1`` means "no retries, but
        still classify and type the failure".
    base_delay_s / max_delay_s:
        Backoff envelope: attempt ``n`` sleeps a uniform draw from
        ``[0, min(max_delay_s, base_delay_s * 2**(n-1))]`` (full
        jitter — decorrelates retry storms better than equal steps).
    deadline_s:
        Wall budget across all attempts; when the next sleep would
        cross it, the policy gives up immediately instead.
    retryable:
        Error classifier; non-retryable errors re-raise unchanged on
        the spot (outcome ``fatal``).
    seed:
        Seeds the jitter RNG for deterministic tests; ``None`` draws
        from the process RNG.
    sleep / clock:
        Injectable for tests (``clock`` must be monotonic).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    max_delay_s: float = 0.25
    deadline_s: float | None = None
    retryable: Callable[[Exception], bool] = default_classifier
    seed: int | None = None
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be >= 0")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """The sleep before retry ``attempt + 1`` (full jitter)."""
        cap = min(self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1)))
        return rng.uniform(0.0, cap)

    def run(self, fn: Callable[[], Any], *, boundary: str, obs=NULL_TELEMETRY) -> Any:
        """Call ``fn`` under this policy; returns its value.

        Raises the original error unchanged when it is non-retryable,
        and :class:`~repro.errors.DurabilityError` (chained from the
        last error) when retries or the deadline exhaust.
        """
        # Built on the first backoff, not here: seeding an unseeded RNG
        # from the OS entropy pool costs more than a successful append,
        # and a seeded policy draws the same delays either way.
        rng: random.Random | None = None
        started = self.clock()
        attempts = self._counter(obs)
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = fn()
            except Exception as error:  # InjectedCrash (BaseException) passes
                last_error = error
                if not self.retryable(error):
                    self._record(attempts, boundary, "fatal")
                    raise
                if attempt == self.max_attempts:
                    break
                if rng is None:
                    rng = random.Random(self.seed)
                delay = self.backoff_s(attempt, rng)
                if (
                    self.deadline_s is not None
                    and self.clock() - started + delay > self.deadline_s
                ):
                    break
                self._record(attempts, boundary, "retried")
                if obs.enabled:
                    obs.histogram(
                        "retry_backoff_seconds", labels=("boundary",)
                    ).labels(boundary=boundary).record(delay)
                if delay > 0:
                    self.sleep(delay)
            else:
                self._record(attempts, boundary, "ok")
                return result
        self._record(attempts, boundary, "exhausted")
        raise DurabilityError(
            boundary,
            attempt,
            f"{boundary} still failing after {attempt} attempt(s): {last_error}",
        ) from last_error

    def _counter(self, obs):
        if not obs.enabled:
            return None
        return obs.counter("retry_attempts_total", labels=("boundary", "outcome"))

    @staticmethod
    def _record(counter, boundary: str, outcome: str) -> None:
        if counter is not None:
            counter.labels(boundary=boundary, outcome=outcome).inc()


#: Policy used where retrying would double work better handled above
#: (or not at all): one attempt, typed exhaustion.
NO_RETRY = RetryPolicy(max_attempts=1)

__all__ = ["NO_RETRY", "RetryPolicy", "TRANSIENT_ERRNOS", "default_classifier"]
