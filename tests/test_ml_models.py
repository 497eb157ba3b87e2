"""Tests for the ML substrate: trees, forests, linear models, SVMs, kNN, sparse regression."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ElasticNet,
    KernelSVC,
    KNeighborsClassifier,
    KNeighborsRegressor,
    Lasso,
    LinearRegression,
    LinearSVC,
    LogisticRegression,
    RandomForestClassifier,
    RandomForestRegressor,
    Ridge,
    SparseRegression,
    accuracy_score,
    r2_score,
)
from repro.ml.base import check_X_y, clone, is_classifier
from repro.ml.sparse_regression import l21_norm, one_hot_labels


def test_import_repro_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported inside the fitting functions that need it;
    # loading it eagerly made up about half of `import repro`
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import repro, sys; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


class TestBase:
    def test_clone_resets_fit_state(self):
        model = Ridge(alpha=2.0).fit(np.eye(3), np.arange(3.0))
        copy = clone(model)
        assert copy.alpha == 2.0
        assert copy.coef_ is None

    def test_is_classifier(self):
        assert is_classifier(RandomForestClassifier())
        assert not is_classifier(RandomForestRegressor())

    def test_check_X_y_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_X_y(np.ones((3, 2)), np.ones(4))

    def test_check_X_y_rejects_1d(self):
        with pytest.raises(ValueError):
            check_X_y(np.ones(3), np.ones(3))

    def test_set_params_validates(self):
        with pytest.raises(ValueError):
            Ridge().set_params(bogus=1)


class TestTrees:
    def test_regressor_fits_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99

    def test_classifier_perfect_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = DecisionTreeClassifier().fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_max_depth_limits_depth(self, regression_matrix):
        X, y = regression_matrix
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert model.depth() <= 3

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((1, 2)))

    def test_feature_importances_sum_to_one(self, regression_matrix):
        X, y = regression_matrix
        model = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_importances_favor_informative_features(self, regression_matrix):
        X, y = regression_matrix
        model = DecisionTreeRegressor(max_depth=8, random_state=0).fit(X, y)
        informative = model.feature_importances_[:4].sum()
        assert informative > 0.8

    def test_classifier_proba_rows_sum_to_one(self, classification_matrix):
        X, y = classification_matrix
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        probabilities = model.predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = np.full(30, 7.0)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.node_count == 1
        assert np.allclose(model.predict(X), 7.0)

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.arange(10, dtype=float)
        model = DecisionTreeRegressor(min_samples_leaf=5).fit(X, y)
        assert model.depth() <= 1


class TestForests:
    def test_regressor_beats_mean_baseline(self, regression_matrix):
        X, y = regression_matrix
        model = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        assert model.score(X, y) > 0.7

    def test_classifier_accuracy(self, classification_matrix):
        X, y = classification_matrix
        model = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        assert model.score(X, y) > 0.85

    def test_deterministic_given_seed(self, classification_matrix):
        X, y = classification_matrix
        a = RandomForestClassifier(n_estimators=5, random_state=7).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=5, random_state=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_feature_importances_normalised(self, classification_matrix):
        X, y = classification_matrix
        model = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_multiclass_predictions_are_valid_labels(self, rng):
        X = rng.normal(size=(200, 5))
        y = np.digitize(X[:, 0], [-0.5, 0.5]).astype(float)
        model = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert set(np.unique(model.predict(X))) <= {0.0, 1.0, 2.0}

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 2)))


class TestLinearModels:
    def test_ols_recovers_coefficients(self, rng):
        X = rng.normal(size=(200, 3))
        y = X @ np.array([1.0, -2.0, 3.0]) + 5.0
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, [1.0, -2.0, 3.0], atol=1e-8)
        assert model.intercept_ == pytest.approx(5.0)

    def test_ridge_shrinks_towards_zero(self, rng):
        X = rng.normal(size=(100, 3))
        y = X @ np.array([1.0, 2.0, 3.0])
        small = Ridge(alpha=0.001).fit(X, y)
        large = Ridge(alpha=1000.0).fit(X, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_lasso_zeroes_out_irrelevant(self, regression_matrix):
        X, y = regression_matrix
        model = Lasso(alpha=0.1).fit(X, y)
        assert np.abs(model.coef_[4:]).max() < np.abs(model.coef_[:4]).max()

    def test_elastic_net_predicts(self, regression_matrix):
        X, y = regression_matrix
        model = ElasticNet(alpha=0.01, l1_ratio=0.5).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.9

    def test_lasso_converges(self, regression_matrix):
        X, y = regression_matrix
        model = Lasso(alpha=0.01, max_iter=500).fit(X, y)
        assert model.n_iter_ < 500


class TestLogisticAndSVM:
    def test_logistic_binary(self, classification_matrix):
        X, y = classification_matrix
        model = LogisticRegression().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_logistic_proba_valid(self, classification_matrix):
        X, y = classification_matrix
        probabilities = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert probabilities.min() >= 0.0

    def test_logistic_multiclass(self, rng):
        X = rng.normal(size=(300, 4))
        y = np.digitize(X[:, 0] + X[:, 1], [-0.7, 0.7]).astype(float)
        model = LogisticRegression().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.8

    def test_logistic_single_class_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.ones((5, 2)), np.zeros(5))

    def test_linear_svc_binary(self, classification_matrix):
        X, y = classification_matrix
        model = LinearSVC().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9
        assert model.coef_.shape == (1, X.shape[1])

    def test_linear_svc_multiclass_coef_shape(self, rng):
        X = rng.normal(size=(200, 4))
        y = np.digitize(X[:, 0], [-0.5, 0.5]).astype(float)
        model = LinearSVC().fit(X, y)
        assert model.coef_.shape == (3, 4)

    def test_kernel_svc_nonlinear_boundary(self, rng):
        X = rng.normal(size=(300, 2))
        y = (np.sum(X**2, axis=1) < 1.0).astype(float)
        model = KernelSVC(C=5.0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_kernel_svc_explicit_gamma(self, classification_matrix):
        X, y = classification_matrix
        model = KernelSVC(gamma=0.1).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.8


class TestKNN:
    def test_classifier_memorises_training_data(self, classification_matrix):
        X, y = classification_matrix
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_regressor_interpolates(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 10.0, 20.0])
        model = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        assert model.predict(np.array([[0.6]]))[0] == pytest.approx(5.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            KNeighborsClassifier().predict(np.ones((1, 2)))


class TestSparseRegression:
    def test_l21_norm(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert l21_norm(matrix) == pytest.approx(5.0)

    def test_one_hot_labels(self):
        labels = one_hot_labels(np.array([0.0, 2.0, 0.0]))
        assert labels.shape == (3, 2)
        assert labels.sum() == 3.0

    def test_objective_is_non_increasing(self, regression_matrix):
        X, y = regression_matrix
        model = SparseRegression(gamma=1.0, max_iter=20).fit(X, y)
        history = np.array(model.objective_history_)
        assert np.all(np.diff(history) <= 1e-6)

    def test_feature_scores_favor_informative(self, regression_matrix):
        X, y = regression_matrix
        model = SparseRegression(gamma=1.0).fit(X, y)
        assert model.feature_scores_[:4].min() > model.feature_scores_[4:].max()

    def test_ranking_order(self, regression_matrix):
        X, y = regression_matrix
        model = SparseRegression(gamma=1.0).fit(X, y)
        assert set(model.ranking()[:4]) == {0, 1, 2, 3}

    def test_multi_output_classification_target(self, classification_matrix):
        X, y = classification_matrix
        model = SparseRegression(gamma=0.5).fit(X, one_hot_labels(y))
        assert model.feature_scores_.shape == (X.shape[1],)

    def test_predict_shape(self, regression_matrix):
        X, y = regression_matrix
        model = SparseRegression(gamma=0.1).fit(X, y)
        assert model.predict(X).shape == (X.shape[0],)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=30, max_value=80))
def test_forest_predictions_within_training_target_range(depth, n):
    """Property: averaged tree predictions never leave the training target range."""
    rng = np.random.default_rng(depth * 100 + n)
    X = rng.normal(size=(n, 3))
    y = rng.uniform(-5, 5, size=n)
    model = RandomForestRegressor(n_estimators=5, max_depth=depth, random_state=0).fit(X, y)
    predictions = model.predict(rng.normal(size=(20, 3)))
    assert predictions.min() >= y.min() - 1e-9
    assert predictions.max() <= y.max() + 1e-9
