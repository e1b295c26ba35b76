"""Split algorithm — Algorithm 2 (§6.3).

For each cluster the Split model flags, try to split out *one* object:
the member "most different from the other objects in the same cluster"
first. Candidates are ranked by their total similarity to the rest of
the cluster (ascending — the stated prioritisation; the paper's
"decreasing order with their weights" wording conflicts with its own
intent, see DESIGN.md). The first candidate whose removal improves the
objective is split into a fresh singleton cluster.

Ranking reads :meth:`Clustering.weakest_members`. The clustering
maintains every member's link weight (its summed similarity to the rest
of its cluster) under each mutation, so a ranking cut to
``split_attempt_limit`` members sums fresh weights only over a
shortlist of near-weakest members instead of every member's full
adjacency row; the order and the floats compared are those of the full
row-order sort.

Splitting one object at a time is deliberate (§6.3): later rounds —
and later iterations of Algorithm 3's alternating loop — re-predict and
continue splitting if the cluster still looks unstable, and observed
splits overwhelmingly shed a small side anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.clustering.objectives.base import ObjectiveFunction
from repro.clustering.state import Clustering

from .config import DynamicCConfig
from .features import ClusterFeatures, cluster_features
from .model import DynamicCModel


@dataclass
class SplitOutcome:
    """What one run of Algorithm 2 did."""

    predicted: int = 0
    applied: list[tuple[int, int, int]] = field(default_factory=list)
    verifications: int = 0
    rejected: list[ClusterFeatures] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.applied)


def rank_split_candidates(clustering: Clustering, cid: int) -> list[int]:
    """Members ordered most-different-first (ascending link weight).

    The weight of member r is the inter-similarity between {r} and
    C − {r}: the sum of r's stored edges into the rest of the cluster.
    """
    return clustering.weakest_members(cid)


def split_algorithm(
    clustering: Clustering,
    objective: ObjectiveFunction,
    model: DynamicCModel,
    candidates: Sequence[int],
    config: DynamicCConfig | None = None,
) -> SplitOutcome:
    """Run Algorithm 2 over the candidate clusters."""
    config = config or DynamicCConfig()
    outcome = SplitOutcome()

    alive = [
        cid
        for cid in candidates
        if clustering.contains_cluster(cid) and clustering.size(cid) > 1
    ]
    features = [cluster_features(clustering, cid) for cid in alive]
    if not features:
        return outcome
    probabilities = model.split_probabilities(features)
    ranked = sorted(
        (
            (prob, cid, feats)
            for prob, cid, feats in zip(probabilities, alive, features)
            if prob >= model.split_theta
        ),
        key=lambda item: -item[0],
    )
    outcome.predicted = len(ranked)

    for _, cid, feats in ranked:
        if not clustering.contains_cluster(cid) or clustering.size(cid) < 2:
            continue
        split_done = False
        ranked_members = clustering.weakest_members(cid, config.split_attempt_limit)
        for obj_id in ranked_members:
            part = {obj_id}
            if config.verify_with_objective:
                outcome.verifications += 1
                delta = objective.delta_split(clustering, cid, part)
                if not objective.improves(delta):
                    continue
            rest_cid, part_cid = objective.apply_split(clustering, cid, part)
            outcome.applied.append((cid, rest_cid, part_cid))
            split_done = True
            break
        if not split_done:
            outcome.rejected.append(feats)
    return outcome
