"""DynamicC — the full dynamic clustering system (Algorithm 3, §6.4).

Life cycle:

1. **Training phase** — :meth:`DynamicC.observe_round` applies each
   round's data operations, runs the underlying *batch* algorithm from
   scratch, derives the cross-round evolution (§4.3) and accumulates
   labelled samples; :meth:`DynamicC.train` fits the Merge/Split models
   and selects θ (§5).
2. **Prediction phase** — :meth:`DynamicC.apply_round` (inherited
   driver) performs initial processing (§6.1), then alternates the
   Merge algorithm (Alg. 1) and Split algorithm (Alg. 2) until neither
   changes anything. Every applied change strictly improves the
   objective, so the loop converges (§6.4 "Algorithm Properties").
3. **Continuous retraining** — serve-time verification outcomes are fed
   back into the training buffer and the models are periodically
   refitted (``config.retrain_every``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.clustering.batch.hill_climbing import HillClimbing
from repro.clustering.incremental import IncrementalClusterer
from repro.clustering.objectives.base import ObjectiveFunction
from repro.clustering.state import Clustering
from repro.similarity.graph import SimilarityGraph

from .config import DynamicCConfig
from .merge import merge_algorithm
from .model import DynamicCModel, FitReport
from .split import split_algorithm
from .training import TrainingBuffer, collect_round_samples


@dataclass
class RoundStats:
    """Instrumentation of one prediction round (for benches/ablations)."""

    iterations: int = 0
    merges_applied: int = 0
    splits_applied: int = 0
    merge_predicted: int = 0
    split_predicted: int = 0
    verifications: int = 0
    rejected: int = 0
    candidates_scored: int = 0
    moves_applied: int = 0
    # 1 when the round stopped at ``max_full_iterations`` with its last
    # iteration still applying changes (it did not converge).
    capped: int = 0


@dataclass
class ObservationStats:
    """Instrumentation of one training (observation) round."""

    samples: dict[str, int] = field(default_factory=dict)
    evolution_steps: int = 0


class DynamicC(IncrementalClusterer):
    """ML-augmented dynamic clustering over an arbitrary batch algorithm.

    Parameters
    ----------
    graph:
        The method's similarity graph.
    objective:
        Objective function of the underlying clustering problem; used
        both by the batch algorithm during training and to *verify*
        predicted changes at serve time.
    batch:
        The underlying batch algorithm observed during training.
        Defaults to :class:`HillClimbing` over ``objective`` (§7.1).
    model:
        The classifier bundle; defaults to logistic regression for both
        models (the paper's default).
    config:
        Runtime/training tunables.
    seed:
        RNG seed for negative sampling.
    """

    name = "dynamicc"

    def __init__(
        self,
        graph: SimilarityGraph,
        objective: ObjectiveFunction,
        batch: HillClimbing | None = None,
        model: DynamicCModel | None = None,
        config: DynamicCConfig | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        self.objective = objective
        self.config = config or DynamicCConfig()
        self.batch = batch or HillClimbing(objective)
        self.model = model or DynamicCModel(config=self.config)
        self.buffer = TrainingBuffer(self.config.max_training_samples)
        self.last_round_stats = RoundStats()
        self._rng = np.random.default_rng(seed)
        self._rounds_since_fit = 0

    # ------------------------------------------------------------------
    # Training phase (§4 + §5)
    # ------------------------------------------------------------------
    def observe_round(
        self,
        added: Mapping[int, Any] | None = None,
        removed: Iterable[int] | None = None,
        updated: Mapping[int, Any] | None = None,
    ) -> tuple[Clustering, ObservationStats]:
        """One training round: batch re-clustering + evolution capture."""
        obs = self.obs
        changed = self._ingest(added or {}, removed or (), updated or {})
        old = self.clustering.copy()
        if obs.enabled:
            with obs.span("engine.hillclimb", objects=len(self.graph)):
                new = self.batch.cluster(self.graph)
        else:
            new = self.batch.cluster(self.graph)
        samples = collect_round_samples(
            old,
            new.as_partition(),
            changed,
            self._rng,
            self.config,
        )
        self.buffer.add_round(samples)
        self.clustering = new
        stats = ObservationStats(
            samples=samples.counts(),
            evolution_steps=len(samples.merge_positive) // 2
            + len(samples.split_positive),
        )
        return new, stats

    def train(self) -> FitReport:
        """Fit the Merge/Split models from the accumulated buffer."""
        report = self.model.fit(self.buffer)
        self._rounds_since_fit = 0
        return report

    # ------------------------------------------------------------------
    # Checkpoint / restore (the repro.stream durability hooks)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """JSON-compatible snapshot of all mutable engine state.

        Covers the clustering partition, the trained model bundle, the
        training buffer and the negative-sampling RNG — everything a
        crash recovery needs to continue with identical memberships and
        predictions — but not the similarity graph, which the caller
        owns (payloads are opaque here; :mod:`repro.stream.checkpoint`
        serialises them). Cluster *ids* are re-minted on restore: only
        the partition, not the id values, survives a roundtrip.
        """
        from repro.ml.persistence import bundle_to_dict

        return {
            # Insertion order is preserved so the restored clustering
            # iterates in the same order as the live one.
            "labels": [
                [obj_id, cid] for obj_id, cid in self.clustering.labels().items()
            ],
            "model": bundle_to_dict(self.model) if self.model.is_trained else None,
            "buffer": self.buffer.state_dict(),
            "rounds_since_fit": self._rounds_since_fit,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`checkpoint_state` snapshot.

        The similarity graph must already hold exactly the objects the
        snapshot's clustering refers to.
        """
        from repro.ml.persistence import bundle_from_dict

        self.clustering = Clustering.from_labels(
            self.graph, {int(obj_id): int(cid) for obj_id, cid in state["labels"]}
        )
        # The serialised bundle carries fitted parameters, not the
        # classifier factories — keep this engine's configured factories
        # so post-recovery refits stay in the same model family.
        merge_factory = self.model._merge_factory
        split_factory = self.model._split_factory
        if state["model"] is not None:
            self.model = bundle_from_dict(state["model"], config=self.config)
        else:
            # The snapshot was taken before training; a leftover trained
            # model on this engine must not survive the restore.
            self.model = DynamicCModel(config=self.config)
        self.model._merge_factory = merge_factory
        self.model._split_factory = split_factory
        self.buffer.load_state_dict(state["buffer"])
        self._rounds_since_fit = int(state["rounds_since_fit"])
        self._rng.bit_generator.state = state["rng_state"]

    # ------------------------------------------------------------------
    # Prediction phase (Algorithm 3)
    # ------------------------------------------------------------------
    def _recluster(self, changed: set[int]) -> None:
        if not self.model.is_trained:
            raise RuntimeError(
                "DynamicC is not trained; call observe_round() over the "
                "training workload and then train()"
            )
        obs = self.obs
        stats = RoundStats()
        active_objects: set[int] | None = None
        if self.config.candidate_scope == "affected":
            active_objects = self.graph.component_of(changed)
        elif self.config.candidate_scope == "local":
            active_objects = set(changed)
            for obj_id in changed:
                if obj_id in self.graph:
                    active_objects.update(self.graph.neighbors(obj_id))

        touched: set[int] | None = None  # cluster ids changed last iteration
        for _ in range(self.config.max_full_iterations):
            stats.iterations += 1
            if touched is None:
                candidates = self._candidate_clusters(active_objects)
            else:
                # Convergence argument (§6.4): a cluster untouched by the
                # previous iteration and not adjacent to a touched one
                # cannot have become mergeable/splittable — only re-score
                # the frontier.
                candidates = self._frontier_clusters(touched)
            stats.candidates_scored += len(candidates)

            if obs.enabled:
                with obs.span(
                    "engine.merge",
                    candidates=len(candidates),
                    iteration=stats.iterations,
                ):
                    merge_out = merge_algorithm(
                        self.clustering,
                        self.objective,
                        self.model,
                        candidates,
                        self.config,
                    )
            else:
                merge_out = merge_algorithm(
                    self.clustering, self.objective, self.model, candidates, self.config
                )
            split_candidates = [
                cid for cid in candidates if self.clustering.contains_cluster(cid)
            ]
            split_candidates.extend(
                new_cid
                for _, _, new_cid in merge_out.applied
                if self.clustering.contains_cluster(new_cid)
            )
            if obs.enabled:
                with obs.span(
                    "engine.split",
                    candidates=len(split_candidates),
                    iteration=stats.iterations,
                ):
                    split_out = split_algorithm(
                        self.clustering,
                        self.objective,
                        self.model,
                        split_candidates,
                        self.config,
                    )
            else:
                split_out = split_algorithm(
                    self.clustering,
                    self.objective,
                    self.model,
                    split_candidates,
                    self.config,
                )
            touched = set()
            for _, _, new_cid in merge_out.applied:
                touched.add(new_cid)
            for _, rest_cid, part_cid in split_out.applied:
                touched.add(rest_cid)
                touched.add(part_cid)

            stats.merges_applied += len(merge_out.applied)
            stats.splits_applied += len(split_out.applied)
            stats.merge_predicted += merge_out.predicted
            stats.split_predicted += split_out.predicted
            stats.verifications += merge_out.verifications + split_out.verifications
            stats.rejected += len(merge_out.rejected) + len(split_out.rejected)

            if self.config.record_feedback:
                for feats in merge_out.rejected:
                    self.buffer.add_merge_sample(feats, 0)
                for feats in split_out.rejected:
                    self.buffer.add_split_sample(feats, 0)

            if not merge_out.changed and not split_out.changed:
                break
        else:
            stats.capped = 1

        if self.config.refine_moves:
            stats.moves_applied += self._move_refinement()

        self.last_round_stats = stats
        self._rounds_since_fit += 1
        if (
            self.config.retrain_every
            and self._rounds_since_fit >= self.config.retrain_every
        ):
            self.train()

    def _move_refinement(self) -> int:
        """Apply objective-proposed moves (each verified by its delta).

        A *move* is a split immediately followed by a merge (§4.1);
        objectives with a hard cluster-count constraint (fixed-k
        k-means) make the intermediate split unverifiable on its own,
        so boundary rebalancing must be proposed as atomic moves. Only
        objectives implementing ``refinement_moves`` participate.
        """
        proposals = self.objective.refinement_moves(self.clustering)
        if not proposals:
            return 0
        applied = 0
        for obj_id, target in proposals:
            if obj_id not in self.clustering or not self.clustering.contains_cluster(
                target
            ):
                continue
            if self.clustering.cluster_of(obj_id) == target:
                continue
            delta = self.objective.delta_move(self.clustering, obj_id, target)
            if self.objective.improves(delta):
                self.objective.apply_move(self.clustering, obj_id, target)
                applied += 1
        return applied

    def _frontier_clusters(self, touched: set[int]) -> list[int]:
        """Clusters changed last iteration plus their graph neighbours."""
        frontier: set[int] = set()
        for cid in touched:
            if not self.clustering.contains_cluster(cid):
                continue
            frontier.add(cid)
            frontier.update(self.clustering.neighbor_clusters(cid))
        return [cid for cid in frontier if self.clustering.contains_cluster(cid)]

    def _candidate_clusters(self, active_objects: set[int] | None) -> list[int]:
        """Clusters the models should score this iteration."""
        if active_objects is None:
            return list(self.clustering.cluster_ids())
        seen: set[int] = set()
        for obj_id in active_objects:
            if obj_id in self.clustering:
                seen.add(self.clustering.cluster_of(obj_id))
        return list(seen)
