"""Tests for the from-scratch ML substrate (Table 4's model families)."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    LinearSVMClassifier,
    LogisticRegressionClassifier,
    StandardScaler,
    accuracy,
    confusion_matrix,
    f1_score,
    precision,
    recall,
)


def _separable(n=120, seed=0):
    """Linearly separable 2-D data with a margin."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal([-2.0, -2.0], 0.6, size=(n // 2, 2))
    X1 = rng.normal([2.0, 2.0], 0.6, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def _xorish(n=200, seed=1):
    """XOR data: not linearly separable, easy for a tree."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


ALL_MODELS = [
    LogisticRegressionClassifier,
    LinearSVMClassifier,
    DecisionTreeClassifier,
]


@pytest.mark.parametrize("model_cls", ALL_MODELS)
class TestCommonBehaviour:
    def test_separable_accuracy(self, model_cls):
        X, y = _separable()
        model = model_cls().fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.95

    def test_proba_in_unit_interval(self, model_cls):
        X, y = _separable()
        probabilities = model_cls().fit(X, y).predict_proba(X)
        assert np.all(probabilities >= 0.0) and np.all(probabilities <= 1.0)

    def test_threshold_semantics(self, model_cls):
        # Eq. (2): label 1 iff P >= θ; θ=0 ⇒ everything positive.
        X, y = _separable()
        model = model_cls().fit(X, y)
        assert np.all(model.predict(X, threshold=0.0) == 1)

    def test_predict_one(self, model_cls):
        X, y = _separable()
        model = model_cls().fit(X, y)
        assert model.predict_one(X[0]) == y[0]

    def test_unfitted_raises(self, model_cls):
        with pytest.raises(RuntimeError):
            model_cls().predict_proba([[0.0, 0.0]])

    def test_rejects_non_binary_labels(self, model_cls):
        with pytest.raises(ValueError):
            model_cls().fit([[0.0], [1.0]], [0, 2])

    def test_length_mismatch(self, model_cls):
        with pytest.raises(ValueError):
            model_cls().fit([[0.0], [1.0], [2.0]], [0, 1])


class TestLogisticRegression:
    def test_probabilities_ordered_along_margin(self):
        X, y = _separable()
        model = LogisticRegressionClassifier().fit(X, y)
        p_neg = model.proba_one([-3.0, -3.0])
        p_mid = model.proba_one([0.0, 0.0])
        p_pos = model.proba_one([3.0, 3.0])
        assert p_neg < p_mid < p_pos

    def test_feature_weights_exposed(self):
        X, y = _separable()
        model = LogisticRegressionClassifier().fit(X, y)
        weights = model.feature_weights()
        assert weights.shape == (2,)
        assert np.all(weights > 0)  # both features push towards class 1

    def test_balanced_class_weight(self):
        rng = np.random.default_rng(3)
        X0 = rng.normal(-1.5, 0.5, size=(180, 1))
        X1 = rng.normal(1.5, 0.5, size=(20, 1))
        X = np.vstack([X0, X1])
        y = np.array([0] * 180 + [1] * 20)
        balanced = LogisticRegressionClassifier(class_weight="balanced").fit(X, y)
        assert recall(y, balanced.predict(X)) >= 0.9


def _reference_sigmoid(z):
    # The textbook form the fitted model must reproduce bit for bit.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _reference_fit(X, y, learning_rate=0.5, l2=1e-3, max_iter=500, tol=1e-6, class_weight=None):
    """Plain gradient descent: ``(scaler, coef, intercept, steps taken)``."""
    scaler = StandardScaler()
    data = scaler.fit_transform(X)
    labels = np.asarray(y).astype(int)
    n, d = data.shape
    sample_weight = np.ones(n)
    if class_weight == "balanced":
        positives = max(int(labels.sum()), 1)
        negatives = max(n - positives, 1)
        sample_weight = np.where(labels == 1, n / (2 * positives), n / (2 * negatives))
    weights = np.zeros(d)
    intercept = 0.0
    steps = 0
    for _ in range(max_iter):
        steps += 1
        probabilities = _reference_sigmoid(data @ weights + intercept)
        error = (probabilities - labels) * sample_weight
        grad_w = data.T @ error / n + l2 * weights
        grad_b = float(error.mean())
        weights -= learning_rate * grad_w
        intercept -= learning_rate * grad_b
        if np.linalg.norm(grad_w) + abs(grad_b) < tol:
            break
    return scaler, weights, intercept, steps


def _reference_proba(scaler, coef, intercept, X):
    return _reference_sigmoid(scaler.transform(X) @ coef + intercept)


def _assert_fit_matches_reference(X, y, **params):
    model = LogisticRegressionClassifier(**params).fit(X, y)
    scaler, coef, intercept, steps = _reference_fit(X, y, **params)
    assert model.coef_.tobytes() == coef.tobytes()
    assert float(model.intercept_).hex() == float(intercept).hex()
    assert model.predict_proba(X).tobytes() == _reference_proba(scaler, coef, intercept, X).tobytes()
    for row in X[:3]:
        expected = _reference_proba(scaler, coef, intercept, row.reshape(1, -1))
        assert model.predict_proba(row).tobytes() == expected.tobytes()
    return scaler, coef, intercept, steps


def _cluster_like(n, d, seed):
    """Samples shaped like the §5.1 features: similarities in [0, 1], sizes."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [rng.uniform(0, 1, n), rng.uniform(0, 0.5, n)]
        + [rng.integers(1, 40, n).astype(float) for _ in range(d - 2)]
    )
    y = (X[:, 0] - X[:, 1] + rng.normal(0, 0.2, n) < 0.4).astype(int)
    return X, y


class TestLogisticBitIdentity:
    """The fitted model equals the textbook loop float for float (no tolerance)."""

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 31, 200, 2000])
    def test_fit_and_proba(self, n, d, class_weight):
        X, y = _cluster_like(n, d, seed=n * 10 + d)
        _assert_fit_matches_reference(X, y, class_weight=class_weight)

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_constant_feature_column(self, class_weight):
        X, y = _cluster_like(31, 4, seed=5)
        X[:, 3] = 7.0
        _assert_fit_matches_reference(X, y, class_weight=class_weight)

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_single_class(self, label, class_weight):
        X, _ = _cluster_like(9, 4, seed=6)
        _assert_fit_matches_reference(X, np.full(9, label), class_weight=class_weight)

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_saturated_clip(self, class_weight):
        X, y = _separable(n=40)
        scaler, coef, intercept, _ = _assert_fit_matches_reference(
            X, y, learning_rate=50.0, l2=0.0, class_weight=class_weight
        )
        assert np.max(np.abs(scaler.transform(X) @ coef + intercept)) > 35.0

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_early_stop(self, class_weight):
        X, y = _cluster_like(31, 4, seed=7)
        *_, steps = _assert_fit_matches_reference(X, y, tol=0.05, class_weight=class_weight)
        assert 1 < steps < 500

    def test_dynamicc_model_queries(self):
        from repro.core.features import ClusterFeatures
        from repro.core.model import DynamicCModel

        X, y = _cluster_like(40, 4, seed=8)
        model = DynamicCModel()
        model.merge_model = LogisticRegressionClassifier().fit(X, y)
        model.split_model = LogisticRegressionClassifier().fit(X[:, :3], y)
        rng = np.random.default_rng(9)
        features = [
            ClusterFeatures(
                intra=1.0 if i == 0 else float(rng.uniform()),
                max_inter=np.float64(rng.uniform(0, 0.5)),
                size=int(rng.integers(1, 60)),
                partner_size=int(rng.integers(0, 60)),
            )
            for i in range(25)
        ]

        def old_path(classifier, vectors):
            return _reference_proba(
                classifier._scaler, classifier.coef_, classifier.intercept_, np.vstack(vectors)
            )

        merge_old = old_path(model.merge_model, [f.merge_vector() for f in features])
        split_old = old_path(model.split_model, [f.split_vector() for f in features])
        assert model.merge_probabilities(features).tobytes() == merge_old.tobytes()
        assert model.split_probabilities(features).tobytes() == split_old.tobytes()
        for feats in features:
            assert model.merge_probability(feats) == float(
                old_path(model.merge_model, [feats.merge_vector()])[0]
            )
            assert model.split_probability(feats) == float(
                old_path(model.split_model, [feats.split_vector()])[0]
            )


class TestLinearSVM:
    def test_decision_function_sign(self):
        X, y = _separable()
        model = LinearSVMClassifier().fit(X, y)
        margins = model.decision_function(X)
        assert accuracy(y, (margins > 0).astype(int)) >= 0.95

    def test_platt_calibration_monotone(self):
        X, y = _separable()
        model = LinearSVMClassifier().fit(X, y)
        margins = model.decision_function(X)
        probabilities = model.predict_proba(X)
        order = np.argsort(margins)
        assert np.all(np.diff(probabilities[order]) >= -1e-9)


class TestDecisionTree:
    def test_learns_xor(self):
        X, y = _xorish()
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert accuracy(y, model.predict(X)) >= 0.9

    def test_depth_respected(self):
        X, y = _xorish()
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert model.depth() <= 2

    def test_single_class_leaf(self):
        model = DecisionTreeClassifier().fit([[0.0], [1.0]], [1, 1])
        # Laplace smoothing keeps probability off exactly 1.
        assert 0.5 < model.proba_one([0.5]) < 1.0

    def test_constant_features_fall_back_to_leaf(self):
        X = np.zeros((10, 3))
        y = np.array([0, 1] * 5)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.depth() == 0
        assert model.proba_one([0, 0, 0]) == pytest.approx(0.5)


class TestScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_guard(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0]])
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform([[1.0]])


class TestMetrics:
    def test_confusion_matrix_layout(self):
        # Figure 3's layout: rows actual, columns predicted.
        matrix = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert matrix[0][0] == 1 and matrix[0][1] == 1
        assert matrix[1][0] == 0 and matrix[1][1] == 2

    def test_paper_figure3_numbers(self):
        # §5.4 example: 144 clusters, accuracy 0.889, precision ~0.889,
        # recall ~0.992 from the heat map counts (8, 15 / 1, 120).
        y_true = [0] * 23 + [1] * 121
        y_pred = [0] * 8 + [1] * 15 + [0] * 1 + [1] * 120
        assert accuracy(y_true, y_pred) == pytest.approx(128 / 144)
        assert precision(y_true, y_pred) == pytest.approx(120 / 135)
        assert recall(y_true, y_pred) == pytest.approx(120 / 121)

    def test_recall_with_no_positives_is_one(self):
        assert recall([0, 0], [0, 1]) == 1.0

    def test_precision_with_no_predictions_is_zero(self):
        assert precision([1, 1], [0, 0]) == 0.0

    def test_f1_harmonic_mean(self):
        y_true = [1, 1, 0, 0]
        y_pred = [1, 0, 1, 0]
        p, r = precision(y_true, y_pred), recall(y_true, y_pred)
        assert f1_score(y_true, y_pred) == pytest.approx(2 * p * r / (p + r))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])
