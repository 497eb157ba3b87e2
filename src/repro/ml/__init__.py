"""Machine-learning substrate.

A compact, numpy-backed replacement for the scikit-learn components the ARDA
prototype relies on: decision trees and random forests (with impurity-based
feature importances), linear and logistic regression, lasso / elastic net,
linear and RBF-kernel SVMs, an L2,1-norm sparse-regression solver, nearest
neighbours, metrics, cross-validation utilities and a small AutoML search used
as the stand-in for the paper's Azure AutoML / Alpine Meadow comparators.
"""

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, clone
from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    log_loss,
    mean_absolute_error,
    mean_squared_error,
    precision_score,
    r2_score,
    recall_score,
    root_mean_squared_error,
)
from repro.ml.model_selection import (
    KFold,
    StratifiedKFold,
    cross_val_score,
    train_test_split,
)
from repro.ml.binning import BinnedMatrix, resolve_tree_method
from repro.ml.preprocessing import LabelEncoder, MinMaxScaler, StandardScaler
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, grow_trees
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import ElasticNet, Lasso, LinearRegression, Ridge
from repro.ml.logistic import LogisticRegression
from repro.ml.svm import KernelSVC, LinearSVC
from repro.ml.sparse_regression import SparseRegression
from repro.ml.knn import KNeighborsClassifier, KNeighborsRegressor
from repro.ml.automl import AutoMLSearch
from repro.ml.persistence import estimator_from_state, estimator_to_state

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "RegressorMixin",
    "clone",
    "accuracy_score",
    "f1_score",
    "precision_score",
    "recall_score",
    "log_loss",
    "mean_absolute_error",
    "mean_squared_error",
    "root_mean_squared_error",
    "r2_score",
    "train_test_split",
    "KFold",
    "StratifiedKFold",
    "cross_val_score",
    "StandardScaler",
    "MinMaxScaler",
    "LabelEncoder",
    "BinnedMatrix",
    "resolve_tree_method",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "grow_trees",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "LinearRegression",
    "Ridge",
    "Lasso",
    "ElasticNet",
    "LogisticRegression",
    "LinearSVC",
    "KernelSVC",
    "SparseRegression",
    "KNeighborsClassifier",
    "KNeighborsRegressor",
    "AutoMLSearch",
    "estimator_to_state",
    "estimator_from_state",
]
