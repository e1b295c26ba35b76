"""Measurement helpers: percentiles, visibility bookkeeping, self time.

Everything here is independent of :mod:`repro`, so the helpers can be
unit-tested on tiny inputs (``perfbench/test_helpers.py``).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from collections import deque
from typing import Callable, Hashable, Iterable

#: A percentile is only reported as "supported" when at least this many
#: samples lie beyond it.
MIN_TAIL = 10


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest sample.

    Always returns one of the samples, never an interpolation, so a
    reported latency is one a caller actually saw.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q`` percentile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_TAIL` beyond ``q``."""
    return samples_beyond(n, q) >= MIN_TAIL


def summarize_ms(values_s: list[float], qs: Iterable[float]) -> dict:
    """Percentiles of second-valued samples, in milliseconds, with counts.

    ``{"n": 120, "p90": 3.4, "p90_beyond": 12, "p90_supported": True}``:
    how many samples lie beyond each percentile, and whether that is at
    least :data:`MIN_TAIL`.
    """
    n = len(values_s)
    out: dict = {"n": n}
    for q in qs:
        tag = f"p{round(q * 100):d}"
        out[tag] = percentile(values_s, q) * 1e3
        out[f"{tag}_beyond"] = samples_beyond(n, q)
        out[f"{tag}_supported"] = supported(n, q)
    return out


# ---------------------------------------------------------------------------
# Visibility: write start -> first call after which a read sees the add
# ---------------------------------------------------------------------------
class VisibilityTracker:
    """FIFO bookkeeping of adds waiting to become visible.

    Per key (a tenant, or a replica), adds become visible in the order
    they were written: rounds are cut first-in first-out, so when the
    oldest pending add is not yet visible, no later one is. A probe
    therefore only tests the front of each queue.

    An add removed again before it became visible never will be; it is
    dropped and counted as ``superseded``. Adds still pending when the
    run ends are resolved by :meth:`finish`: the ones the final flush
    made visible are counted as ``excluded`` rather than sampled, since
    their latency measures the end of the run, not the system.
    """

    def __init__(self) -> None:
        self._pending: dict[Hashable, deque] = {}
        self.samples: list[float] = []
        self.superseded = 0
        self.excluded = 0
        self.never_visible = 0

    def pending(self, key: Hashable) -> int:
        return len(self._pending.get(key, ()))

    def wrote(self, key: Hashable, obj_id: int, started: float) -> None:
        """Record an add of ``obj_id`` whose write call began at ``started``."""
        self._pending.setdefault(key, deque()).append((obj_id, started))

    def removed(self, key: Hashable, obj_id: int) -> None:
        """Drop a pending add that a later remove superseded."""
        queue = self._pending.get(key)
        if not queue:
            return
        for index, (pending_id, _) in enumerate(queue):
            if pending_id == obj_id:
                del queue[index]
                self.superseded += 1
                return

    def probe(
        self, key: Hashable, returned: float, is_visible: Callable[[int], bool]
    ) -> list[int]:
        """After a call that returned at ``returned``, sample visible adds.

        Returns the ids of the adds that became visible.
        """
        queue = self._pending.get(key)
        seen = []
        while queue and is_visible(queue[0][0]):
            obj_id, started = queue.popleft()
            self.samples.append(returned - started)
            seen.append(obj_id)
        return seen

    def finish(self, is_visible: Callable[[Hashable, int], bool]) -> None:
        """Resolve every pending add after the final flush (not sampled)."""
        for key, queue in self._pending.items():
            for obj_id, _ in queue:
                if is_visible(key, obj_id):
                    self.excluded += 1
                else:
                    self.never_visible += 1
            queue.clear()


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
class SelfTimer:
    """Nested timing of named layer calls, with self-time subtraction.

    Each :meth:`enter`/:meth:`leave` pair is one span. A span's self
    time is its duration minus the durations of the spans directly
    inside it. ``busy`` counts only the outermost span of each name, so
    a layer that re-enters itself (``update_object`` calling
    ``remove_object``) is not counted twice; ``calls`` likewise counts
    outermost entries. ``enabled=False`` turns every span into a
    pass-through without accounting.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        # [name, start, child_time]
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self._depth[name] = self._depth.get(name, 0) + 1

    def leave(self) -> float:
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.busy[name] = self.busy.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def inside(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def total_self(self) -> float:
        return sum(self.self_time.values())


# ---------------------------------------------------------------------------
# Machine fingerprint
# ---------------------------------------------------------------------------
def calibration_kernel(n: int = 200_000) -> int:
    """A fixed pure-Python workload: integer arithmetic, dicts, a sort."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) % 4096
        table[key] = table.get(key, 0) + i
        acc ^= key * 31 + (i & 255)
    ordered = sorted(table.values())
    return acc + ordered[len(ordered) // 2]


def calibration_score(repeats: int = 5) -> float:
    """Calibration kernels per second (best of ``repeats``; higher is faster)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return 1.0 / best


def fs_type(path) -> str:
    """Filesystem type of the mount holding ``path`` (``unknown`` if unreadable)."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                left, _, right = line.partition(" - ")
                fields = left.split()
                mount_point = fields[4] if len(fields) > 4 else ""
                if (
                    target == mount_point
                    or target.startswith(mount_point.rstrip("/") + "/")
                ) and len(mount_point) >= len(best):
                    best, kind = mount_point, (right.split() or ["unknown"])[0]
    except OSError:
        pass
    return kind


def fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "calibration_per_s": round(calibration_score(), 3),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
