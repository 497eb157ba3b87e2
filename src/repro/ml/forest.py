"""Random forests built from bagged CART trees.

Random forests serve two roles in ARDA: they are the default final estimator
used to measure augmentation quality, and (via impurity-based feature
importances) one half of the RIFS ranking ensemble.

The forest quantises the training matrix **once** (``tree_method="hist"``) and
every tree trains on the shared :class:`~repro.ml.binning.BinnedMatrix`;
bootstrap resamples are index draws into it, never matrix copies.  The trees
are split into contiguous groups, one per worker of the same pluggable
:class:`~repro.core.executor.JoinExecutor` pools the join engine uses, and
each group grows in lockstep (:func:`~repro.ml.tree.grow_trees`).  All
per-tree randomness (seed and bootstrap sample) is drawn up front from the
forest RNG in tree order — interleaved exactly like the historical serial
loop — and a tree grows byte-identically in any group, so serial, thread and
process execution with any worker count produce byte-identical forests.

Prediction walks every tree at once: after each fit or restore the forest
stacks its trees' node arrays into one :class:`~repro.ml.tree.NodeArrays`
(classifier leaf values widened to the forest's class axis), the traversal
routes all (tree, row) pairs together, and leaf values are then summed tree
by tree, in tree order.
"""

from __future__ import annotations

import numpy as np

from repro.core.executor import JoinExecutor, make_executor
from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_fit_inputs,
)
from repro.ml.binning import DEFAULT_MAX_BINS, BinnedMatrix, resolve_tree_method
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NodeArrays,
    grow_trees,
)

# (tree, row) pairs one traversal routes at most; larger batches walk in blocks
_WALK_PAIRS = 1 << 16


def _fit_forest_group(shared, group):
    """Grow one contiguous group of ``(tree, sample)`` tasks in lockstep.

    Top-level so process pools can pickle it; the training data travels via
    the executor's shared-payload channel (once per worker), never per tree.
    """
    data, y = shared
    return grow_trees([(tree, data, y, sample) for tree, sample in group])


class _BaseForest(BaseEstimator):
    """Shared bagging machinery for forest classifiers and regressors."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int | None = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        random_state: int | None = 0,
        tree_method: str | None = None,
        max_bins: int = DEFAULT_MAX_BINS,
        n_jobs: int | None = 1,
        executor: str | JoinExecutor = "thread",
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.n_jobs = n_jobs
        self.executor = executor
        self.estimators_: list = []
        self.feature_importances_: np.ndarray | None = None
        self._nodes: NodeArrays | None = None

    def _make_tree(self, seed: int):
        raise NotImplementedError

    def _leaf_values(self, tree) -> np.ndarray:
        """``tree``'s leaf values on the forest's value axis."""
        return tree._nodes.values

    def _stack_trees(self) -> None:
        """Stack the trees' node arrays for :meth:`_mean_leaf_values`."""
        if not self.estimators_:  # a zero-tree forest fits but cannot predict
            self._nodes = None
            return
        self._nodes = NodeArrays.stack(
            [tree._nodes for tree in self.estimators_],
            [self._leaf_values(tree) for tree in self.estimators_],
        )

    def _mean_leaf_values(self, X) -> np.ndarray:
        """Mean over the trees of the leaf value each row reaches.

        Accumulates tree by tree instead of ``stack().mean(axis=0)``: numpy's
        pairwise reduction blocks differently for different batch widths, so
        the stacked mean could round a row's prediction differently depending
        on how many rows it was scored with.  Sequential accumulation gives
        every row the same addition order at any batch size — a
        micro-batching server must return bit-identical predictions however
        requests get coalesced.  Rows are walked in blocks of at most
        :data:`_WALK_PAIRS` (tree, row) pairs, which bounds the traversal's
        scratch memory on large batches without touching any row's bits.
        """
        X = check_array(X)
        if not self.estimators_:
            raise RuntimeError("forest must be fitted before prediction")
        values = self._nodes.values
        total = np.zeros((X.shape[0], values.shape[1]), dtype=np.float64)
        block_rows = max(1, _WALK_PAIRS // len(self.estimators_))
        # an empty batch still walks once, so its width is checked too
        for start in range(0, max(len(X), 1), block_rows):
            block = slice(start, start + block_rows)
            for leaves in self._nodes.leaves(X[block]):
                total[block] += values[leaves]
        total /= len(self.estimators_)
        return total

    def _fit_forest(self, X, y: np.ndarray) -> None:
        if isinstance(X, BinnedMatrix):
            if resolve_tree_method(self.tree_method) == "exact":
                raise ValueError(
                    "the exact kernel cannot train on a BinnedMatrix; "
                    "pass the float matrix instead"
                )
            data = X
        elif resolve_tree_method(self.tree_method) == "hist":
            data = BinnedMatrix.from_matrix(X, max_bins=self.max_bins)
        else:
            data = X
        rng = np.random.default_rng(self.random_state)
        n, n_features = X.shape
        # per-tree randomness drawn up front, interleaved exactly like the
        # historical serial loop, so executor choice can't change the forest
        tasks = []
        for _ in range(self.n_estimators):
            tree = self._make_tree(int(rng.integers(0, 2**31 - 1)))
            sample = rng.integers(0, n, size=n) if self.bootstrap else None
            tasks.append((tree, sample))
        executor = make_executor(self.executor, self.n_jobs)
        # one contiguous group of trees per worker, each grown in lockstep
        n_groups = min(executor.n_jobs, len(tasks))
        bounds = np.linspace(0, len(tasks), n_groups + 1).astype(int)
        groups = [tasks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        try:
            grown = executor.map_with_shared(_fit_forest_group, (data, y), groups)
        finally:
            executor.shutdown()
        self.estimators_ = [tree for group in grown for tree in group]
        self._stack_trees()
        importances = np.zeros(n_features, dtype=np.float64)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        if total > 0:
            self.feature_importances_ = importances / total
        else:
            self.feature_importances_ = np.zeros(n_features, dtype=np.float64)


    # persistence ----------------------------------------------------------------

    _PARAM_NAMES = (
        "n_estimators",
        "max_depth",
        "min_samples_split",
        "min_samples_leaf",
        "max_features",
        "bootstrap",
        "random_state",
        "tree_method",
        "max_bins",
        "n_jobs",
    )

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The fitted forest as ``(plain doc, named arrays)``.

        Per-tree arrays are namespaced ``tree<i>/<name>`` so the whole forest
        flattens into one page dictionary for
        :mod:`repro.serving.artifact`.  The executor backend is stored by
        *name* (a live pool is process state, not model state); a restored
        forest predicts bit-identically but refits on whatever executor it is
        configured with.
        """
        if not self.estimators_:
            raise RuntimeError("cannot serialise an unfitted forest")
        executor = self.executor if isinstance(self.executor, str) else self.executor.name
        doc = {
            "params": {name: getattr(self, name) for name in self._PARAM_NAMES},
            "executor": executor,
            "trees": [],
        }
        arrays: dict[str, np.ndarray] = {
            "importances": np.asarray(self.feature_importances_, dtype=np.float64)
        }
        for i, tree in enumerate(self.estimators_):
            tree_doc, tree_arrays = tree.to_state()
            doc["trees"].append(tree_doc)
            for key, value in tree_arrays.items():
                arrays[f"tree{i}/{key}"] = value
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        params = doc["params"]
        for name in self._PARAM_NAMES:
            if name in params:
                setattr(self, name, params[name])
        self.executor = doc.get("executor", "thread")
        tree_cls = type(self._make_tree(0))
        self.estimators_ = []
        for i, tree_doc in enumerate(doc["trees"]):
            prefix = f"tree{i}/"
            tree_arrays = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            self.estimators_.append(tree_cls.from_state(tree_doc, tree_arrays))
        self.feature_importances_ = np.asarray(arrays["importances"], dtype=np.float64)
        self._stack_trees()

    @classmethod
    def from_state(cls, doc: dict, arrays: dict[str, np.ndarray]):
        """Rebuild a fitted forest written by :meth:`to_state`."""
        forest = cls()
        forest._restore_state(doc, arrays)
        return forest


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged ensemble of CART regression trees (prediction = mean of trees)."""

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
            tree_method=self.tree_method,
            max_bins=self.max_bins,
        )

    def fit(self, X, y) -> "RandomForestRegressor":
        """Fit the forest on training data (a float matrix or a BinnedMatrix)."""
        X, y = check_fit_inputs(X, y)
        self._fit_forest(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        """Average the predictions of all trees."""
        return self._mean_leaf_values(X)[:, 0]


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged ensemble of CART classification trees (soft voting)."""

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit the forest on training data (a float matrix or a BinnedMatrix)."""
        X, y = check_fit_inputs(X, y)
        self.classes_ = np.unique(y)
        self._fit_forest(X, y)
        return self

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
            tree_method=self.tree_method,
            max_bins=self.max_bins,
        )

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """See :meth:`_BaseForest.to_state`; adds the forest-level class vector."""
        doc, arrays = super().to_state()
        arrays["classes"] = np.asarray(self.classes_, dtype=np.float64)
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        # the class axis must be known before the trees are stacked
        self.classes_ = np.asarray(arrays["classes"], dtype=np.float64)
        super()._restore_state(doc, arrays)

    def _leaf_values(self, tree) -> np.ndarray:
        """Class frequencies widened from the tree's classes to the forest's.

        A tree whose bootstrap sample missed a class gets a zero column for
        it; adding that exact zero leaves the running sum's bits unchanged.
        """
        values = tree._nodes.values
        wide = np.zeros((len(values), len(self.classes_)), dtype=np.float64)
        wide[:, np.searchsorted(self.classes_, tree.classes_)] = values
        return wide

    def predict_proba(self, X) -> np.ndarray:
        """Average the class-probability estimates of all trees.

        Columns correspond to ``self.classes_``; trees that never saw a class
        contribute zero probability for it.
        """
        return self._mean_leaf_values(X)

    def predict(self, X) -> np.ndarray:
        """Predict the class with the highest averaged probability."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
