"""Logistic regression — DynamicC's default ML model (§7.1).

Full-batch gradient descent with L2 regularisation and internal feature
standardisation. The training sets DynamicC produces are small (a few
hundred to a few thousand 4–5 dimensional samples, Table 4), so batch
gradient descent converges in milliseconds — the paper reports model
training "less than 1 second … when the number of samples is 20K".

In serving, every engine fits its own models on a few to a few dozen
samples, and the loop usually runs all ``max_iter`` steps. At that size
a step costs what its numpy calls cost to dispatch, not what they
compute, so the loop is written as a fixed sequence of ufunc calls into
buffers allocated once, with no Python-level numpy wrappers
(``np.clip``, ``ndarray.mean``, ``np.linalg.norm``). Every rewrite
gives the same floats as the textbook form::

    p = 1 / (1 + exp(-clip(X @ w + b, -35, 35)))
    e = (p - y) * sample_weight
    w -= rate * (X.T @ e / n + l2 * w);  b -= rate * mean(e)
    stop when norm(X.T @ e / n + l2 * w) + |mean(e)| < tol

* IEEE rounding is symmetric in sign and the clip bounds are ±35, so
  ``(-X) @ w + (-b)`` clipped is exactly ``-clip(X @ w + b)``: the
  negated matrix is built once and the per-step negation disappears
  (``predict_proba`` likewise forms ``(mean - x) / scale``).
* On floats ``np.clip`` is ``minimum(maximum(x, lo), hi)``, NaN
  propagation included, and ``reciprocal(t)`` is the correctly rounded
  ``1 / t``.
* ``mean`` is the pairwise sum (``np.add.reduce``) divided by ``n``,
  and a 1-D ``norm`` is ``sqrt(g.dot(g))``.
* ``a.dot(v, out=...)`` reaches the same BLAS matrix-vector kernel as
  ``a @ v`` (for ``X`` and for the transposed view ``X.T``) at less
  dispatch cost; the oracle test below fails on a platform where the
  two round differently.
* Python floats passed to a ufunc are converted on every call, so the
  constants are 0-d arrays holding the same doubles.
* Without ``class_weight`` every sample weight is 1.0, and multiplying
  by 1.0 is exact, so the multiply only happens for ``"balanced"``.
* Labels become floats once; subtracting an int label converts it to
  the same float on every step.

``tests/test_ml.py`` keeps the textbook loop as an oracle and checks
coefficients and probabilities bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .base import BinaryClassifier, as_2d, as_labels
from .scaler import StandardScaler

_LOW, _HIGH, _ONE = np.array(-35.0), np.array(35.0), np.array(1.0)


def _sigmoid_of_negation(t: np.ndarray) -> np.ndarray:
    """Overwrite ``t`` with ``sigmoid(-t)`` and return it.

    Clipping keeps exp() in range; beyond ±35 the sigmoid saturates
    anyway.
    """
    np.maximum(t, _LOW, out=t)
    np.minimum(t, _HIGH, out=t)
    np.exp(t, out=t)
    np.add(t, _ONE, out=t)
    return np.reciprocal(t, out=t)


class LogisticRegressionClassifier(BinaryClassifier):
    """L2-regularised logistic regression trained by gradient descent.

    Parameters
    ----------
    learning_rate:
        Gradient step size (on standardised features).
    l2:
        L2 penalty strength on the weights (not the intercept).
    max_iter:
        Maximum gradient steps.
    tol:
        Stop when the gradient norm falls below this.
    class_weight:
        ``"balanced"`` reweights samples inversely to class frequency
        (useful when negative sampling is disabled); ``None`` keeps
        uniform weights.
    """

    name = "logistic-regression"

    def __init__(
        self,
        learning_rate: float = 0.5,
        l2: float = 1e-3,
        max_iter: int = 500,
        tol: float = 1e-6,
        class_weight: str | None = None,
    ) -> None:
        self.learning_rate = learning_rate
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol
        self.class_weight = class_weight
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._scaler = StandardScaler()

    def fit(self, X, y) -> "LogisticRegressionClassifier":
        data = as_2d(X)
        labels = as_labels(y)
        if len(labels) != len(data):
            raise ValueError("X and y length mismatch")
        if not len(data):
            raise ValueError("cannot fit on zero samples")
        data = self._scaler.fit_transform(data)
        n, d = data.shape

        sample_weight = None
        if self.class_weight == "balanced":
            positives = max(int(labels.sum()), 1)
            negatives = max(n - positives, 1)
            sample_weight = np.where(labels == 1, n / (2 * positives), n / (2 * negatives))

        rate, l2 = np.array(self.learning_rate), np.array(self.l2)
        count = np.array(float(n))
        targets = labels.astype(float)
        negated = -data
        data_t = data.T
        weights = np.zeros(d)
        intercept = 0.0
        error = np.empty(n)
        grad_w = np.empty(d)
        scratch = np.empty(d)
        for _ in range(self.max_iter):
            negated.dot(weights, out=error)
            _sigmoid_of_negation(np.add(error, -intercept, out=error))
            np.subtract(error, targets, out=error)
            if sample_weight is not None:
                np.multiply(error, sample_weight, out=error)
            data_t.dot(error, out=grad_w)
            np.divide(grad_w, count, out=grad_w)
            np.add(grad_w, np.multiply(weights, l2, out=scratch), out=grad_w)
            grad_b = float(np.add.reduce(error)) / n
            np.subtract(weights, np.multiply(grad_w, rate, out=scratch), out=weights)
            intercept -= self.learning_rate * grad_b
            if math.sqrt(grad_w.dot(grad_w)) + abs(grad_b) < self.tol:
                break
        self.coef_ = weights
        self.intercept_ = intercept
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        negated = np.subtract(self._scaler.mean_, as_2d(X))
        np.divide(negated, self._scaler.scale_, out=negated)
        z = negated.dot(self.coef_)
        return _sigmoid_of_negation(np.add(z, -self.intercept_, out=z))

    def feature_weights(self) -> np.ndarray:
        """Learned weights on standardised features.

        §6.2 inspects coefficient magnitudes to reason about which
        features drive merge stability ("the maximal inter similarity
        and the size of the clusters have respectively high weights").
        """
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return self.coef_.copy()
