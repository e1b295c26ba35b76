"""Service telemetry: per-round latency, throughput and engine counters.

KnobCF-style instrumentation as a first-class service concern: every
applied round records its latency and operation counts per shard, and
the engine's own :class:`~repro.core.dynamicc.RoundStats` counters
(merges, splits, verifications…) are accumulated alongside. A
:meth:`MetricsRegistry.snapshot` is a plain dict, ready for a JSON
endpoint or a benchmark artefact.

Latency series are :class:`repro.obs.Histogram`-backed, so every
``*_latency`` entry in a snapshot carries streaming p50/p95/p99
alongside the mean — percentiles are what SLO-aware batching and the
tuning work consume; means alone hide the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import Histogram


class LatencyStat(Histogram):
    """Streaming summary of a latency series in seconds (with percentiles)."""

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.minimum if self.count else 0.0,
            "max_s": self.maximum,
            "last_s": self.last,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
        }


@dataclass
class ShardMetrics:
    """Counters for one shard's engine."""

    rounds_observed: int = 0
    rounds_predicted: int = 0
    ops_applied: int = 0
    ops_ignored: int = 0
    round_latency: LatencyStat = field(default_factory=LatencyStat)
    # Accumulated RoundStats counters (prediction rounds only).
    merges_applied: int = 0
    splits_applied: int = 0
    moves_applied: int = 0
    verifications: int = 0
    candidates_scored: int = 0
    rejected: int = 0
    rounds_capped: int = 0

    def record_round(self, phase: str, n_ops: int, ignored: int, latency: float, round_stats=None) -> None:
        if phase == "observe":
            self.rounds_observed += 1
        else:
            self.rounds_predicted += 1
        self.ops_applied += n_ops
        self.ops_ignored += ignored
        self.round_latency.record(latency)
        if round_stats is not None:
            self.merges_applied += round_stats.merges_applied
            self.splits_applied += round_stats.splits_applied
            self.moves_applied += round_stats.moves_applied
            self.verifications += round_stats.verifications
            self.candidates_scored += round_stats.candidates_scored
            self.rejected += round_stats.rejected
            self.rounds_capped += round_stats.capped

    def to_dict(self) -> dict:
        latency = self.round_latency.to_dict()
        return {
            # Canonical stats() shape (shared by stream/replica/serve):
            # every component reports ops_total and p50_s/p95_s/p99_s.
            "ops_total": self.ops_applied,
            "p50_s": latency["p50_s"],
            "p95_s": latency["p95_s"],
            "p99_s": latency["p99_s"],
            "rounds_observed": self.rounds_observed,
            "rounds_predicted": self.rounds_predicted,
            "ops_applied": self.ops_applied,
            "ops_ignored": self.ops_ignored,
            "round_latency": latency,
            "merges_applied": self.merges_applied,
            "splits_applied": self.splits_applied,
            "moves_applied": self.moves_applied,
            "verifications": self.verifications,
            "candidates_scored": self.candidates_scored,
            "rejected": self.rejected,
            "rounds_capped": self.rounds_capped,
        }


class MetricsRegistry:
    """All service-level counters, keyed by shard plus stream totals."""

    def __init__(self, n_shards: int) -> None:
        self.shards = [ShardMetrics() for _ in range(n_shards)]
        self.events_ingested = 0
        self.batches_applied = 0
        self.batch_latency = LatencyStat()
        self.checkpoints_taken = 0
        self.recoveries = 0

    def shard(self, index: int) -> ShardMetrics:
        return self.shards[index]

    def throughput_events_per_s(self) -> float:
        """Applied operations per second of round-processing time."""
        busy = sum(shard.round_latency.total for shard in self.shards)
        applied = sum(shard.ops_applied for shard in self.shards)
        return applied / busy if busy > 0 else 0.0

    def snapshot(self, legacy: bool = True) -> dict:
        """Counters as one dict, in the canonical stats() key shape.

        ``ops_total`` and the ``p50_s``/``p95_s``/``p99_s`` percentile
        trio (of batch-apply latency) are the cross-layer contract;
        ``legacy=True`` (the default, for one release) additionally
        emits the pre-1.4 alias ``events_ingested``.
        """
        latency = self.batch_latency.to_dict()
        out = {
            "ops_total": self.events_ingested,
            "p50_s": latency["p50_s"],
            "p95_s": latency["p95_s"],
            "p99_s": latency["p99_s"],
            "batches_applied": self.batches_applied,
            "batch_latency": latency,
            "throughput_events_per_s": self.throughput_events_per_s(),
            "checkpoints_taken": self.checkpoints_taken,
            "recoveries": self.recoveries,
            "shards": [shard.to_dict() for shard in self.shards],
        }
        if legacy:
            out["events_ingested"] = self.events_ingested
        return out
