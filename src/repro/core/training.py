"""Training-data pipeline: sample collection, buffer, θ selection (§5.2–5.4).

One *round* of the training phase works as follows. After the round's
data operations are applied (initial processing, §6.1) DynamicC holds
the old clustering; the batch algorithm then produces the new
clustering. The old→new difference is derived as merge/split evolution
steps (:mod:`repro.core.transformation`), replayed on a copy of the old
clustering so each step's participating clusters can be featurised *in
the state where the decision was made*:

* each merge step yields two positive Merge-model samples (both merged
  clusters),
* each split step yields one positive Split-model sample,
* clusters the round left untouched are the negative pool, sampled with
  the §5.3 active-cluster weighting.

θ (Eq. 2's decision threshold) is chosen per model as the minimum
predicted probability over positive training samples — 100% training
recall (§5.4) — and can be swept for the Fig. 4 trade-off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.clustering.state import Clustering
from repro.evolution import EvolutionLog, MergeOp, SplitOp
from repro.ml.base import BinaryClassifier

from .config import DynamicCConfig
from .features import ClusterFeatures, cluster_features
from .sampling import sample_negatives
from .transformation import derive_transformation


@dataclass
class RoundSamples:
    """Labelled feature vectors extracted from one training round."""

    merge_positive: list[ClusterFeatures] = field(default_factory=list)
    split_positive: list[ClusterFeatures] = field(default_factory=list)
    merge_negative: list[ClusterFeatures] = field(default_factory=list)
    split_negative: list[ClusterFeatures] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        return {
            "merge_positive": len(self.merge_positive),
            "split_positive": len(self.split_positive),
            "merge_negative": len(self.merge_negative),
            "split_negative": len(self.split_negative),
        }


def collect_round_samples(
    old_clustering: Clustering,
    new_partition: frozenset[frozenset[int]],
    changed: set[int],
    rng: np.random.Generator,
    config: DynamicCConfig | None = None,
    log: EvolutionLog | None = None,
) -> RoundSamples:
    """Extract one round's training samples (§5.2 + §5.3).

    Parameters
    ----------
    old_clustering:
        State before the batch re-clustering (after initial processing).
        Not mutated — replay happens on a copy.
    new_partition:
        The batch algorithm's result as a canonical partition.
    changed:
        Object ids added/updated this round ("relevant" objects, §4.3;
        they also seed the active components for negative sampling).
    rng:
        Randomness source for negative sampling.
    log:
        Pre-derived evolution steps; derived from the two partitions
        when omitted.
    """
    config = config or DynamicCConfig()
    if log is None:
        log = derive_transformation(old_clustering.as_partition(), new_partition)

    samples = RoundSamples()
    replay = old_clustering.copy()
    touched: set[int] = set()

    for op in log:
        if isinstance(op, MergeOp):
            cid_left = _resolve_cluster(replay, op.left)
            cid_right = _resolve_cluster(replay, op.right)
            samples.merge_positive.append(cluster_features(replay, cid_left))
            samples.merge_positive.append(cluster_features(replay, cid_right))
            replay.merge(cid_left, cid_right)
            touched |= op.left | op.right
        else:
            cid = _resolve_cluster(replay, op.cluster)
            samples.split_positive.append(cluster_features(replay, cid))
            replay.split(cid, set(op.part))
            touched |= op.cluster

    # Negative pool: old clusters no evolution step touched.
    active_objects = old_clustering.graph.component_of(changed)
    negatives_active: list[ClusterFeatures] = []
    negatives_inactive: list[ClusterFeatures] = []
    for cid in old_clustering.cluster_ids():
        members = old_clustering.members_view(cid)
        if members & touched:
            continue
        features = cluster_features(old_clustering, cid)
        if members & active_objects:
            negatives_active.append(features)
        else:
            negatives_inactive.append(features)

    merge_count = int(round(config.negatives_per_positive * len(samples.merge_positive)))
    split_count = int(round(config.negatives_per_positive * len(samples.split_positive)))
    samples.merge_negative = sample_negatives(
        negatives_active,
        negatives_inactive,
        merge_count,
        rng,
        config.negative_active_weight,
        config.negative_inactive_weight,
    )
    samples.split_negative = sample_negatives(
        negatives_active,
        negatives_inactive,
        split_count,
        rng,
        config.negative_active_weight,
        config.negative_inactive_weight,
    )
    return samples


def _resolve_cluster(clustering: Clustering, members: frozenset[int]) -> int:
    """Find the live cluster equal to ``members`` during replay."""
    cid = clustering.cluster_of(next(iter(members)))
    if clustering.members_view(cid) != members:
        raise ValueError(
            "evolution step does not match replay state "
            f"(expected cluster {sorted(members)[:6]}..., "
            f"found {sorted(clustering.members_view(cid))[:6]}...)"
        )
    return cid


class TrainingBuffer:
    """Bounded FIFO store of labelled samples for the two models (§5.3).

    "We remove those old samples when the size of training data becomes
    too large" — oldest samples fall off when ``max_size`` is exceeded,
    keeping the model focused on recent workload behaviour.
    """

    def __init__(self, max_size: int = 20_000) -> None:
        self.max_size = max_size
        self._merge: deque[tuple[np.ndarray, int]] = deque(maxlen=max_size)
        self._split: deque[tuple[np.ndarray, int]] = deque(maxlen=max_size)

    def add_round(self, samples: RoundSamples) -> None:
        for features in samples.merge_positive:
            self._merge.append((features.merge_vector(), 1))
        for features in samples.merge_negative:
            self._merge.append((features.merge_vector(), 0))
        for features in samples.split_positive:
            self._split.append((features.split_vector(), 1))
        for features in samples.split_negative:
            self._split.append((features.split_vector(), 0))

    def add_merge_sample(self, features: ClusterFeatures, label: int) -> None:
        self._merge.append((features.merge_vector(), int(label)))

    def add_split_sample(self, features: ClusterFeatures, label: int) -> None:
        self._split.append((features.split_vector(), int(label)))

    # ------------------------------------------------------------------
    def merge_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        return self._matrix(self._merge, width=4)

    def split_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        return self._matrix(self._split, width=3)

    @staticmethod
    def _matrix(store, width: int) -> tuple[np.ndarray, np.ndarray]:
        if not store:
            return np.empty((0, width)), np.empty((0,), dtype=int)
        X = np.array([vec for vec, _ in store], dtype=float)
        y = np.array([label for _, label in store], dtype=int)
        return X, y

    # ------------------------------------------------------------------
    # Checkpointing (the buffer is part of DynamicC's durable state: it
    # feeds retraining, so crash recovery must restore it exactly)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-compatible snapshot of the buffer contents."""
        return {
            "max_size": self.max_size,
            "merge": [[vec.tolist(), label] for vec, label in self._merge],
            "split": [[vec.tolist(), label] for vec, label in self._split],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot written by :meth:`state_dict`."""
        self.max_size = int(state["max_size"])
        self._merge = deque(
            ((np.asarray(vec, dtype=float), int(label)) for vec, label in state["merge"]),
            maxlen=self.max_size,
        )
        self._split = deque(
            ((np.asarray(vec, dtype=float), int(label)) for vec, label in state["split"]),
            maxlen=self.max_size,
        )

    @property
    def merge_size(self) -> int:
        return len(self._merge)

    @property
    def split_size(self) -> int:
        return len(self._split)

    def __len__(self) -> int:
        return len(self._merge) + len(self._split)


def select_theta(
    model: BinaryClassifier,
    X: np.ndarray,
    y: np.ndarray,
    quantile: float = 0.0,
    floor: float = 0.02,
) -> float:
    """θ = minimum positive-sample probability (§5.4), 100% training recall.

    ``quantile > 0`` deliberately sacrifices training recall for fewer
    serve-time checks — the Fig. 4 trade-off knob. The floor guards
    against one outlier positive dragging θ to ~0 (which would nominate
    every cluster and destroy the latency advantage).
    """
    positives = X[np.asarray(y) == 1]
    if len(positives) == 0:
        return 0.5
    probabilities = model.predict_proba(positives)
    theta = float(np.quantile(probabilities, quantile))
    return float(min(max(theta, floor), 0.999))
