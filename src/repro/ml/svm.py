"""Support vector machines: a primal linear SVC and an RBF-kernel SVC.

The linear SVC minimises the L2-regularised squared hinge loss with L-BFGS and
exposes ``coef_`` for feature ranking ("linear svc" selector in the paper).
The kernel SVC uses the least-squares SVM formulation (a single linear solve
per one-vs-rest problem); the paper only uses the RBF SVM as an alternative
final estimator for classification tasks, for which LS-SVM is an adequate,
dependency-free stand-in.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, check_array, check_X_y


class LinearSVC(BaseEstimator, ClassifierMixin):
    """Linear SVM with squared hinge loss, one-vs-rest for multi-class."""

    def __init__(self, C: float = 1.0, max_iter: int = 200, fit_intercept: bool = True):
        self.C = C
        self.max_iter = max_iter
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "LinearSVC":
        """Fit one binary squared-hinge classifier per class (one-vs-rest)."""
        X, y = check_X_y(X, y)
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        Xs = (X - mean) / scale

        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("LinearSVC needs at least two classes")
        rows = []
        biases = []
        targets = self.classes_ if len(self.classes_) > 2 else self.classes_[1:]
        for cls in targets:
            signs = np.where(y == cls, 1.0, -1.0)
            weights, bias = self._fit_binary(Xs, signs)
            rows.append(weights)
            biases.append(bias)
        weights = np.vstack(rows)
        self.coef_ = weights / scale
        self.intercept_ = np.array(biases) - self.coef_ @ mean
        return self

    def _fit_binary(self, X: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, float]:
        from scipy import optimize  # lazy: keeps scipy out of `import repro`

        n, d = X.shape
        reg = 1.0 / (self.C * n)

        def objective(theta):
            weights = theta[:d]
            bias = theta[d] if self.fit_intercept else 0.0
            margins = signs * (X @ weights + bias)
            slack = np.maximum(0.0, 1.0 - margins)
            loss = np.mean(slack**2) + 0.5 * reg * weights @ weights
            grad_margin = -2.0 * slack * signs / n
            grad_weights = X.T @ grad_margin + reg * weights
            if self.fit_intercept:
                grad = np.concatenate([grad_weights, [grad_margin.sum()]])
            else:
                grad = grad_weights
            return loss, grad

        size = d + (1 if self.fit_intercept else 0)
        result = optimize.minimize(
            objective,
            np.zeros(size),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        weights = result.x[:d]
        bias = float(result.x[d]) if self.fit_intercept else 0.0
        return weights, bias

    def decision_function(self, X) -> np.ndarray:
        """Signed distances to each one-vs-rest hyperplane."""
        if self.coef_ is None:
            raise RuntimeError("model must be fitted before prediction")
        scores = check_array(X) @ self.coef_.T + self.intercept_
        return scores

    def predict(self, X) -> np.ndarray:
        """Predict the class with the largest decision value."""
        scores = self.decision_function(X)
        if scores.shape[1] == 1:
            return np.where(scores[:, 0] >= 0, self.classes_[1], self.classes_[0])
        return self.classes_[np.argmax(scores, axis=1)]


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """RBF (Gaussian) kernel matrix K[i, j] = exp(-gamma * ||a_i - b_j||^2)."""
    a_sq = np.sum(A**2, axis=1)[:, None]
    b_sq = np.sum(B**2, axis=1)[None, :]
    distances = a_sq + b_sq - 2.0 * (A @ B.T)
    np.maximum(distances, 0.0, out=distances)
    return np.exp(-gamma * distances)


class KernelSVC(BaseEstimator, ClassifierMixin):
    """RBF-kernel classifier using the least-squares SVM formulation.

    Each one-vs-rest problem solves ``(K + I / C) alpha = t`` with targets
    ``t in {-1, +1}``; prediction picks the class with the largest kernel
    expansion value.  ``gamma='scale'`` mirrors the common 1 / (d * Var[X])
    heuristic.
    """

    def __init__(self, C: float = 1.0, gamma="scale"):
        self.C = C
        self.gamma = gamma
        self.classes_: np.ndarray | None = None
        self._X_train: np.ndarray | None = None
        self._alphas: np.ndarray | None = None
        self._biases: np.ndarray | None = None
        self._gamma_value: float = 1.0

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            variance = X.var()
            return 1.0 / (X.shape[1] * variance) if variance > 0 else 1.0
        return float(self.gamma)

    def fit(self, X, y) -> "KernelSVC":
        """Solve one regularised kernel system per class."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("KernelSVC needs at least two classes")
        self._X_train = X
        self._gamma_value = self._resolve_gamma(X)
        K = rbf_kernel(X, X, self._gamma_value)
        n = X.shape[0]
        system = K + np.eye(n) / self.C
        alphas = []
        biases = []
        for cls in self.classes_:
            targets = np.where(y == cls, 1.0, -1.0)
            alpha = np.linalg.solve(system, targets - targets.mean())
            alphas.append(alpha)
            biases.append(float(targets.mean()))
        self._alphas = np.vstack(alphas)
        self._biases = np.array(biases)
        return self

    def decision_function(self, X) -> np.ndarray:
        """Kernel expansion scores for each class."""
        if self._X_train is None:
            raise RuntimeError("model must be fitted before prediction")
        K = rbf_kernel(check_array(X), self._X_train, self._gamma_value)
        return K @ self._alphas.T + self._biases

    def predict(self, X) -> np.ndarray:
        """Predict the class with the largest kernel score."""
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]
