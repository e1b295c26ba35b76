"""The DynamicC model bundle: Merge model + Split model + θ thresholds (§5).

Each model is a binary classifier over the §5.1 cluster features. The
bundle owns the θ decision thresholds of Eq. (2), set after fitting via
the recall-first rule of §5.4, and exposes batched probability queries
the runtime algorithms use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ml.base import BinaryClassifier, ConstantClassifier
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.metrics import accuracy, recall

from .config import DynamicCConfig
from .features import ClusterFeatures
from .training import TrainingBuffer, select_theta

ModelFactory = Callable[[], BinaryClassifier]


@dataclass
class FitReport:
    """Training-set diagnostics produced by :meth:`DynamicCModel.fit`."""

    merge_samples: int
    split_samples: int
    merge_accuracy: float
    merge_recall: float
    split_accuracy: float
    split_recall: float
    merge_theta: float
    split_theta: float


class DynamicCModel:
    """Merge + Split classifiers with θ thresholds.

    Parameters
    ----------
    merge_factory / split_factory:
        Zero-argument callables building fresh classifiers (default:
        logistic regression, the paper's default model).
    config:
        θ-selection settings.
    """

    def __init__(
        self,
        merge_factory: ModelFactory | None = None,
        split_factory: ModelFactory | None = None,
        config: DynamicCConfig | None = None,
    ) -> None:
        self._merge_factory = merge_factory or LogisticRegressionClassifier
        self._split_factory = split_factory or (split_factory or self._merge_factory)
        self.config = config or DynamicCConfig()
        self.merge_model: BinaryClassifier | None = None
        self.split_model: BinaryClassifier | None = None
        self.merge_theta: float = 0.5
        self.split_theta: float = 0.5

    @property
    def is_trained(self) -> bool:
        return self.merge_model is not None and self.split_model is not None

    # ------------------------------------------------------------------
    def fit(self, buffer: TrainingBuffer) -> FitReport:
        """Fit both models from the buffer and select θs (§5.4)."""
        merge_X, merge_y = buffer.merge_matrix()
        split_X, split_y = buffer.split_matrix()
        if len(merge_y) == 0 and len(split_y) == 0:
            raise ValueError("training buffer is empty")
        self.merge_model, self.merge_theta, merge_accuracy, merge_recall = self._fit_one(
            self._merge_factory, merge_X, merge_y
        )
        self.split_model, self.split_theta, split_accuracy, split_recall = self._fit_one(
            self._split_factory, split_X, split_y
        )
        return FitReport(
            merge_samples=len(merge_y),
            split_samples=len(split_y),
            merge_accuracy=merge_accuracy,
            merge_recall=merge_recall,
            split_accuracy=split_accuracy,
            split_recall=split_recall,
            merge_theta=self.merge_theta,
            split_theta=self.split_theta,
        )

    def _fit_one(
        self, factory: ModelFactory, X: np.ndarray, y: np.ndarray
    ) -> tuple[BinaryClassifier, float, float, float]:
        """One side's model, θ, and training accuracy and recall."""
        # A side with no samples at all (e.g. a workload whose batch
        # evolution never split a cluster) gets a constant "no change"
        # model — the correct prediction until such evolution is seen.
        if not len(y):
            return ConstantClassifier(0.0), 0.5, 1.0, 1.0
        model = factory().fit(X, y)
        theta = select_theta(
            model,
            X,
            y,
            quantile=self.config.theta_quantile,
            floor=self.config.theta_floor,
        )
        predicted = model.predict(X)
        return model, theta, accuracy(y, predicted), recall(y, predicted)

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise RuntimeError(
                "DynamicC model is not trained; run the training phase first"
            )

    # ------------------------------------------------------------------
    # Probability queries
    # ------------------------------------------------------------------
    def merge_probabilities(self, features: Sequence[ClusterFeatures]) -> np.ndarray:
        """Batched ``P(merge = 1)`` for a list of clusters."""
        self._require_trained()
        if not features:
            return np.empty(0)
        # One array of tuples: the columns of ClusterFeatures.merge_vector.
        X = np.array(
            [(f.intra, f.max_inter, f.size, f.partner_size) for f in features],
            dtype=float,
        )
        return self.merge_model.predict_proba(X)

    def split_probabilities(self, features: Sequence[ClusterFeatures]) -> np.ndarray:
        self._require_trained()
        if not features:
            return np.empty(0)
        # The columns of ClusterFeatures.split_vector.
        X = np.array([(f.intra, f.max_inter, f.size) for f in features], dtype=float)
        return self.split_model.predict_proba(X)

    def merge_probability(self, features: ClusterFeatures) -> float:
        return float(self.merge_probabilities([features])[0])

    def split_probability(self, features: ClusterFeatures) -> float:
        return float(self.split_probabilities([features])[0])

    def predicts_merge(self, features: ClusterFeatures) -> bool:
        """Eq. (2): label 1 iff ``P ≥ θ``."""
        return self.merge_probability(features) >= self.merge_theta

    def predicts_split(self, features: ClusterFeatures) -> bool:
        return self.split_probability(features) >= self.split_theta

    # ------------------------------------------------------------------
    # Persistence ("train once, serve" — the models survive restarts)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the trained bundle (both models + θs) to a JSON file."""
        import json
        import pathlib

        from repro.ml.persistence import bundle_to_dict

        self._require_trained()
        pathlib.Path(path).write_text(json.dumps(bundle_to_dict(self)))

    @classmethod
    def load(cls, path, config: DynamicCConfig | None = None) -> "DynamicCModel":
        """Load a bundle written by :meth:`save`."""
        import json
        import pathlib

        from repro.ml.persistence import bundle_from_dict

        return bundle_from_dict(json.loads(pathlib.Path(path).read_text()), config=config)

    def with_thetas(self, merge_theta: float, split_theta: float) -> "DynamicCModel":
        """Shallow copy with different θs (the Fig. 4 trade-off sweep)."""
        clone = DynamicCModel(self._merge_factory, self._split_factory, self.config)
        clone.merge_model = self.merge_model
        clone.split_model = self.split_model
        clone.merge_theta = merge_theta
        clone.split_theta = split_theta
        return clone
