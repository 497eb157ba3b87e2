"""Logistic regression (binary and multinomial) via L-BFGS."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, check_array, check_X_y


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial logistic regression with L2 regularisation.

    The coefficient matrix has one row per class; the per-feature maximum of
    ``|coef_|`` is used by the selection package as a ranking score, matching
    how the paper's "logistic reg" selector operates.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200, fit_intercept: bool = True):
        self.C = C
        self.max_iter = max_iter
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "LogisticRegression":
        """Maximise the L2-penalised multinomial log-likelihood."""
        from scipy import optimize  # lazy: keeps scipy out of `import repro`

        X, y = check_X_y(X, y)
        # standardise internally for optimisation stability
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        Xs = (X - mean) / scale

        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("LogisticRegression needs at least two classes")
        codes = np.searchsorted(self.classes_, y)
        n, d = Xs.shape
        one_hot = np.zeros((n, n_classes))
        one_hot[np.arange(n), codes] = 1.0
        reg = 1.0 / (self.C * n)

        def pack_shape(theta):
            weights = theta[: n_classes * d].reshape(n_classes, d)
            bias = theta[n_classes * d:] if self.fit_intercept else np.zeros(n_classes)
            return weights, bias

        def objective(theta):
            weights, bias = pack_shape(theta)
            logits = Xs @ weights.T + bias
            probabilities = _softmax(logits)
            probabilities = np.clip(probabilities, 1e-12, 1.0)
            loss = -np.sum(one_hot * np.log(probabilities)) / n
            loss += 0.5 * reg * np.sum(weights**2)
            grad_logits = (probabilities - one_hot) / n
            grad_weights = grad_logits.T @ Xs + reg * weights
            if self.fit_intercept:
                grad_bias = grad_logits.sum(axis=0)
                grad = np.concatenate([grad_weights.ravel(), grad_bias])
            else:
                grad = grad_weights.ravel()
            return loss, grad

        size = n_classes * d + (n_classes if self.fit_intercept else 0)
        result = optimize.minimize(
            objective,
            np.zeros(size),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        weights, bias = pack_shape(result.x)
        # undo the internal standardisation
        self.coef_ = weights / scale
        self.intercept_ = bias - self.coef_ @ mean
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw class scores (log-odds up to a constant)."""
        if self.coef_ is None:
            raise RuntimeError("model must be fitted before prediction")
        return check_array(X) @ self.coef_.T + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability estimates via softmax."""
        return _softmax(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        """Predict the most probable class."""
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]
