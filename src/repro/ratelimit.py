"""The token bucket behind admission quotas and log rate limits.

Tokens refill continuously at ``rate`` up to a ``burst`` ceiling, and a
request for N tokens atomically takes them all or is refused with a
computed retry horizon. Two users: :mod:`repro.serve` gives each tenant
a bucket for its ops/s quota (the horizon becomes the
``retry_after_s`` a :class:`repro.errors.QuotaExceeded` carries), and
:class:`repro.obs.StructuredLogger` spends one token per line. The
clock is injectable (monotonic domain) so tests are deterministic
rather than sleep-based.

This module imports nothing from the package, so both of those layers
can use it without an import cycle.
"""

from __future__ import annotations

import time
from typing import Callable


class TokenBucket:
    """A continuously-refilling token bucket (rate + burst).

    Parameters
    ----------
    rate:
        Sustained tokens (operations) per second.
    burst:
        Bucket capacity: the largest instantaneous spend. Starts full.
        ``math.inf`` never refuses (no limit).
    clock:
        Monotonic seconds source; injectable for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/s")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()

    def _refill(self) -> None:
        now = self.clock()
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    @property
    def tokens(self) -> float:
        """Tokens available right now (after refill)."""
        self._refill()
        return self._tokens

    def try_acquire(self, n: int = 1) -> float | None:
        """Take ``n`` tokens atomically; all-or-nothing.

        Returns ``None`` on success, or the seconds until ``n`` tokens
        *would* be available. A request larger than ``burst`` can never
        succeed whole — the returned horizon is still finite (time to
        accrue the shortfall at ``rate``), and the caller's remedy is to
        split the batch.
        """
        if n <= 0:
            return None
        self._refill()
        if n <= self._tokens:
            self._tokens -= n
            return None
        return (n - self._tokens) / self.rate
