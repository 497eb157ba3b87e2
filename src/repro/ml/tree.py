"""CART decision trees for classification and regression.

Two split-search kernels share one construction driver:

* ``tree_method="exact"`` — the classic greedy search: at every node each
  candidate feature is sorted and every boundary between distinct values is
  evaluated with a vectorised impurity computation (Gini for classification,
  variance for regression).  This is the reference implementation the
  histogram kernel is property-tested against.
* ``tree_method="hist"`` — the feature is quantised once (per tree, or once
  per forest / RIFS run when a shared :class:`~repro.ml.binning.BinnedMatrix`
  is passed in) and the node accumulates per-bin count/sum histograms, then
  scans at most ``max_bins`` boundaries instead of sorting ``n`` rows.  On
  features whose distinct-value count fits into the bin budget the two kernels
  are bit-identical (see :mod:`repro.ml.binning` for why).

Construction works on *row-index arrays* into the training data, so a
forest's bootstrap resample is an index draw, not a matrix copy.  One driver,
:func:`grow_trees`, grows every tree: a single tree is a group of one, a
forest hands each worker a contiguous group of its trees.  The trees of a
group grow in **lockstep**: each keeps its own explicit depth-first stack and
its own random generator, advances until its next node needs a split search,
and one batched histogram search then serves the pending node of every tree
in the group.  Per-tree draw order and per-node arithmetic do not depend on
the group, so a tree grows byte-identically alone or beside any other trees.
Feature importances are accumulated as impurity decrease weighted by the
number of samples reaching the node, matching the quantity the paper's
Random-Forest ranker consumes.

A fitted tree is a set of flat node arrays (:class:`NodeArrays`):
``feature``, ``threshold``, ``left``, ``right`` and ``values``, built once
when growth finishes, written as-is by ``to_state`` and adopted as-is by
``from_state``.  One level-synchronous traversal, :meth:`NodeArrays.leaves`,
routes every (tree, row) pair at once: a tree walks its one root, a forest
walks the stacked arrays of all its trees.  Fitted trees always predict on
raw float matrices: histogram splits are translated back to float thresholds
at fit time.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_fit_inputs,
)
from repro.ml.binning import DEFAULT_MAX_BINS, BinnedMatrix, resolve_tree_method


class NodeArrays:
    """Fitted trees as flat node arrays, and the traversal that routes rows.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]``: rows with
    ``X[:, feature] <= threshold`` go to ``left[i]``, all others — NaN cells
    included — to ``right[i]``.  Leaves have ``feature == -1`` and carry
    ``values[i]`` (class frequencies, or ``[mean]`` for regression).
    ``roots`` holds one root id per tree: a single tree is ``[0]``; a stack
    of trees (:meth:`stack`) offsets every tree's child ids to stack-wide ids.
    """

    __slots__ = ("feature", "threshold", "left", "right", "values", "roots", "n_features")

    def __init__(self, feature, threshold, left, right, values, n_features, roots=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.values = values
        self.n_features = n_features
        self.roots = np.zeros(1, dtype=np.int64) if roots is None else roots

    @classmethod
    def stack(cls, trees: list["NodeArrays"], values: list[np.ndarray]) -> "NodeArrays":
        """Stack single trees into one forest; ``values`` replaces each tree's."""
        sizes = np.array([len(tree.feature) for tree in trees], dtype=np.int64)
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        # leaves keep -1: the walk never follows a leaf's child ids
        pairs = list(zip(trees, roots))
        left = [np.where(tree.left >= 0, tree.left + root, -1) for tree, root in pairs]
        right = [np.where(tree.right >= 0, tree.right + root, -1) for tree, root in pairs]
        return cls(
            np.concatenate([tree.feature for tree in trees]),
            np.concatenate([tree.threshold for tree in trees]),
            np.concatenate(left),
            np.concatenate(right),
            np.concatenate(values),
            trees[0].n_features,
            roots,
        )

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """The leaf each (tree, row) pair reaches, shape ``(trees, rows)``.

        Level-synchronous: every step moves all pairs still at a split node
        one level down with a handful of whole-array operations, so the cost
        is a few numpy calls per level instead of per node.
        """
        n_rows, width = X.shape
        if width != self.n_features:
            raise ValueError(
                f"X has {width} features, but the model was fitted on "
                f"{self.n_features} features"
            )
        node = np.repeat(self.roots, n_rows)
        cells = np.ascontiguousarray(X).ravel()
        # the pairs still at a split node: their index, node and row offset
        # in ``cells``; pairs that reach a leaf are written back and dropped
        pending = np.arange(len(node))
        at = node
        row_start = np.tile(np.arange(n_rows, dtype=np.int64) * width, len(self.roots))
        while True:
            feature = self.feature[at]
            inner = feature >= 0
            if not inner.all():
                node[pending] = at
                pending, at, feature = pending[inner], at[inner], feature[inner]
                row_start = row_start[inner]
            if not len(pending):
                return node.reshape(len(self.roots), n_rows)
            go_left = cells[row_start + feature] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])


def _resolve_max_features(option, n_features: int) -> int:
    """Turn a max_features option into an integer count."""
    if option is None or option == "all":
        return n_features
    if option == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if option == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(option, float) and 0 < option <= 1:
        return max(1, int(option * n_features))
    if isinstance(option, (int, np.integer)) and option > 0:
        return min(int(option), n_features)
    raise ValueError(f"invalid max_features {option!r}")


# One batched histogram search covers at most this many scratch cells (see
# _batches), so a step whose pending nodes are all large — the roots — is
# searched in several batches instead of one unbounded one.
_BATCH_CELLS = 8192


class _Growth:
    """Construction state of one tree inside a lockstep group.

    The tree's nodes are produced in depth-first pre-order from an explicit
    stack, exactly as a recursive build would emit them.  :meth:`advance`
    pops nodes (finishing leaves on the spot) until one needs a split search,
    draws its candidate features from the tree's own generator and leaves it
    *pending* (``rows``, ``node_y``, ``candidates``) for the group's search;
    :meth:`apply` then splits it or keeps it a leaf.
    """

    __slots__ = (
        "tree", "binned", "X", "y", "n_classes", "n_bins", "rng",
        "feature", "threshold", "left", "right", "values",
        "importances", "n_total", "n_candidates", "stack",
        "index", "rows", "depth", "node_y", "candidates",
    )

    def __init__(self, tree: "_BaseDecisionTree", X, y, sample_indices) -> None:
        X, y = check_fit_inputs(X, y)
        method = resolve_tree_method(tree.tree_method)
        if isinstance(X, BinnedMatrix):
            if method == "exact":
                raise ValueError(
                    "the exact kernel cannot train on a BinnedMatrix; "
                    "pass the float matrix instead"
                )
            self.binned, self.X = X, None
        elif method == "hist":
            self.binned, self.X = BinnedMatrix.from_matrix(X, max_bins=tree.max_bins), None
        else:
            self.binned, self.X = None, X
        # histogram width: every bin code of the matrix is below it
        self.n_bins = 0 if self.binned is None else int(self.binned.n_bins.max(initial=1))
        n_rows, tree.n_features_ = X.shape
        self.tree = tree
        self.y, self.n_classes = tree._prepare_target(y, sample_indices)
        self.rng = np.random.default_rng(tree.random_state)
        # the node arrays under construction, one entry per node
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.values: list[np.ndarray] = []
        self.importances = np.zeros(tree.n_features_, dtype=np.float64)
        self.n_candidates = _resolve_max_features(tree.max_features, tree.n_features_)
        if sample_indices is None:
            rows = np.arange(n_rows)
        else:
            rows = np.asarray(sample_indices, dtype=np.int64)
        self.n_total = len(rows)
        # (rows, depth, parent index, is-left-child); the root has no parent
        self.stack = [(rows, 0, -1, True)]

    def advance(self) -> bool:
        """Pop nodes until one needs a split search; ``False`` once grown."""
        tree = self.tree
        while self.stack:
            rows, depth, parent, is_left = self.stack.pop()
            index = len(self.feature)
            if parent >= 0:
                (self.left if is_left else self.right)[parent] = index
            y = self.y[rows]
            n = len(rows)
            # np.add.reduce(...)/n is bit-identical to np.mean / np.var
            if self.n_classes is None:
                mean = np.add.reduce(y) / n
                value = np.array([float(mean)])
            else:
                counts = np.bincount(y, minlength=self.n_classes)
                value = counts / max(counts.sum(), 1)
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.left.append(-1)
            self.right.append(-1)
            self.values.append(value)
            if n < tree.min_samples_split or (
                tree.max_depth is not None and depth >= tree.max_depth
            ):
                continue
            if self.n_classes is None:
                deviation = y - mean
                impurity = float(np.add.reduce(deviation * deviation) / n)
            else:
                impurity = float(1.0 - np.sum(value**2))
            if impurity <= 1e-12:
                continue
            n_features = tree.n_features_
            if self.n_candidates < n_features:
                candidates = self.rng.choice(n_features, size=self.n_candidates, replace=False)
            elif n_features:
                candidates = np.arange(n_features)
            else:  # zero-feature matrices grow a single constant leaf
                continue
            self.index, self.rows, self.depth = index, rows, depth
            self.node_y, self.candidates = y, candidates
            return True
        return False

    def search_exact(self):
        """The pending node's best split with the exact (sorting) kernel."""
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for feature in self.candidates:
            gain, threshold = self.tree._best_split_for_feature(
                self.X[self.rows, feature], self.node_y
            )
            if gain > best_gain + 1e-15:
                best_gain, best_feature, best_threshold = gain, int(feature), threshold
        if best_feature < 0:
            return None
        return best_gain, best_feature, best_threshold, -1

    def apply(self, split) -> None:
        """Split the pending node (``split`` from a search, ``None`` = leaf)."""
        if split is None:
            return
        gain, feature, threshold, bin_lo = split
        rows = self.rows
        if self.binned is not None:
            mask = self.binned.codes[rows, feature] <= bin_lo
        else:
            mask = self.X[rows, feature] <= threshold
        n = len(rows)
        n_left = int(np.count_nonzero(mask))
        min_leaf = self.tree.min_samples_leaf
        if n_left < min_leaf or (n - n_left) < min_leaf:
            return
        self.importances[feature] += gain * (n / self.n_total)
        self.feature[self.index] = feature
        self.threshold[self.index] = threshold
        # right pushed first so the left subtree is grown (and numbered) first
        self.stack.append((rows[~mask], self.depth + 1, self.index, False))
        self.stack.append((rows[mask], self.depth + 1, self.index, True))

    def finish(self) -> None:
        tree = self.tree
        tree._nodes = NodeArrays(
            np.array(self.feature, dtype=np.int32),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.left, dtype=np.int32),
            np.array(self.right, dtype=np.int32),
            np.stack(self.values).astype(np.float64, copy=False),
            tree.n_features_,
        )
        total = self.importances.sum()
        if total > 0:
            tree.feature_importances_ = self.importances / total
        else:
            tree.feature_importances_ = np.zeros(tree.n_features_, dtype=np.float64)


def _hist_gains_regression(cum_n, cum_sum, m, valid):
    """Variance decrease of every boundary, shape ``(B, k, bins - 1)``."""
    total_sum = cum_sum[:, :, -1:]
    n_left = cum_n[:, :, :-1]
    n_right = m - n_left
    left_sum = cum_sum[:, :, :-1]
    right_sum = total_sum - left_sum
    safe_left = np.where(valid, n_left, 1)
    safe_right = np.where(valid, n_right, 1)
    # the exact kernel's cancelled variance-decrease expression, so the two
    # kernels stay bit-identical where binning is lossless
    return (
        left_sum**2 / safe_left + right_sum**2 / safe_right - total_sum**2 / m
    ) / m


def _hist_gains_classification(cum_n, cum_counts, m, valid):
    """Gini decrease of every boundary, shape ``(B, k, bins - 1)``."""
    total_counts = cum_counts[:, :, -1, :]  # (B, k, n_classes)
    left_counts = cum_counts[:, :, :-1, :]
    right_counts = total_counts[:, :, None, :] - left_counts
    n_left = cum_n[:, :, :-1].astype(np.float64)
    n_right = m - n_left
    safe_left = np.where(valid, n_left, 1.0)
    safe_right = np.where(valid, n_right, 1.0)
    gini_left = 1.0 - np.sum((left_counts / safe_left[..., None]) ** 2, axis=3)
    gini_right = 1.0 - np.sum((right_counts / safe_right[..., None]) ** 2, axis=3)
    gini_parent = 1.0 - np.sum((total_counts / m) ** 2, axis=2)
    return gini_parent[..., None] - (n_left / m) * gini_left - (n_right / m) * gini_right


def _hist_search(batch: list[_Growth]) -> list:
    """Best histogram split of the pending node of every tree in ``batch``.

    The batch's trees share one :class:`BinnedMatrix`, candidate count and
    class count.  Every (node, candidate, bin) triple gets one key, so one
    gather builds the keys and one ``bincount`` per statistic the histograms
    of the whole batch; each bin still accumulates its rows in row order,
    exactly as a one-node search would.  Prefix sums then run per (node,
    candidate) row over that row's non-empty bins only, zero-padded to the
    widest row — padding adds exact zeros, so every boundary statistic has
    the bits a one-node search computes, and the boundaries after empty bins
    (ties a sorted scan never cuts at) disappear.  Returns one ``(gain,
    feature, threshold, bin_lo)`` or ``None`` per tree.
    """
    first = batch[0]
    binned, n_classes, n_bins = first.binned, first.n_classes, first.n_bins
    n_batch, k = len(batch), len(first.candidates)
    sizes = [len(g.rows) for g in batch]
    candidates = np.array([g.candidates for g in batch])  # (B, k)
    keys = binned.codes[
        np.concatenate([g.rows for g in batch])[:, None],
        np.repeat(candidates, sizes, axis=0),
    ].astype(np.int64)
    slots = np.arange(n_batch * k, dtype=np.int64).reshape(n_batch, k) * n_bins
    keys += np.repeat(slots, sizes, axis=0)
    keys = keys.ravel()
    targets = np.repeat(np.concatenate([g.node_y for g in batch]), k)
    n_rows = n_batch * k
    counts = np.bincount(keys, minlength=n_rows * n_bins)
    occupied = np.flatnonzero(counts)
    # position of every non-empty bin within its (node, candidate) row
    row_of = occupied // n_bins
    rank = np.arange(len(occupied)) - np.searchsorted(row_of, row_of)
    packed_width = int(rank.max()) + 1
    if packed_width < 2:
        return [None] * n_batch
    dest = row_of * packed_width + rank
    shape = (n_batch, k, packed_width)
    bin_code = np.zeros(n_rows * packed_width, dtype=np.int64)
    bin_code[dest] = occupied % n_bins
    bin_code = bin_code.reshape(shape)
    packed_n = np.zeros(n_rows * packed_width, dtype=np.int64)
    packed_n[dest] = counts[occupied]
    cum_n = np.cumsum(packed_n.reshape(shape), axis=2)
    m = np.array(sizes, dtype=np.int64)[:, None, None]
    n_left = cum_n[:, :, :-1]
    valid = (n_left > 0) & (n_left < m)
    if n_classes is None:
        sums = np.bincount(keys, weights=targets, minlength=n_rows * n_bins)
        packed = np.zeros(n_rows * packed_width, dtype=np.float64)
        packed[dest] = sums[occupied]
        cum_stat = np.cumsum(packed.reshape(shape), axis=2)
        gains = _hist_gains_regression(cum_n, cum_stat, m, valid)
    else:
        joint = np.bincount(
            keys * n_classes + targets, minlength=n_rows * n_bins * n_classes
        ).reshape(-1, n_classes)
        packed = np.zeros((n_rows * packed_width, n_classes), dtype=np.float64)
        packed[dest] = joint[occupied]
        cum_stat = np.cumsum(packed.reshape(*shape, n_classes), axis=2)
        gains = _hist_gains_classification(cum_n, cum_stat, m, valid)
    gains = np.where(valid, gains, -np.inf)
    best = np.argmax(gains, axis=2)  # first of equal gains: the sorted scan's cut
    best_gains = gains.max(axis=2)
    best_gains = np.where(best_gains > 0, best_gains, -np.inf)
    # the exact kernel's candidate-order rule, vectorised over the batch: a
    # later candidate must beat the best so far by more than 1e-15
    top = np.zeros(n_batch)
    chosen = np.full(n_batch, -1)
    for j in range(k):
        better = best_gains[:, j] > top + 1e-15
        top = np.where(better, best_gains[:, j], top)
        chosen = np.where(better, j, chosen)
    splits = [None] * n_batch
    found = np.flatnonzero(chosen >= 0)
    slot_of = chosen[found]
    cuts = best[found, slot_of]
    # the next non-empty bin to the right of the cut fixes the threshold
    for slot, feature, gain, bin_lo, bin_hi in zip(
        found.tolist(),
        candidates[found, slot_of].tolist(),
        top[found].tolist(),
        bin_code[found, slot_of, cuts].tolist(),
        bin_code[found, slot_of, cuts + 1].tolist(),
    ):
        threshold = binned.split_threshold(feature, bin_lo, bin_hi)
        splits[slot] = (gain, feature, threshold, bin_lo)
    return splits


def _batches(group: list[_Growth]):
    """Split compatible histogram nodes into batches of bounded scratch.

    A batch's scratch is its bin keys (rows x candidates per node) plus, per
    node and candidate, a packed row of non-empty bins (at most ``min(rows,
    bins)`` wide) and the gains over it.  Nodes are taken largest first, so
    similar-sized nodes share a batch and little of it is padding; a batch
    stops below :data:`_BATCH_CELLS` cells, or at one node if that is larger.
    """
    group = sorted(group, key=lambda g: -len(g.rows))
    k, n_bins = len(group[0].candidates), group[0].n_bins
    # largest first: the first node of a batch fixes its packed width
    batch, key_cells, packed = [], 0, 0
    for g in group:
        m = len(g.rows)
        if batch and key_cells + m * k + (len(batch) + 1) * k * packed > _BATCH_CELLS:
            yield batch
            batch, key_cells = [], 0
        if not batch:
            packed = min(m, n_bins)
        batch.append(g)
        key_cells += m * k
    yield batch


def _search_pending(pending: list[_Growth]) -> None:
    """Run and apply the split search of every tree's pending node.

    Exact-kernel nodes are searched one by one.  Histogram nodes are batched
    when their trees share the binned matrix, candidate count and class
    count (padding the class axis would regroup numpy's pairwise sum over
    classes, so class counts never mix).
    """
    groups: dict[tuple, list[_Growth]] = {}
    for g in pending:
        if g.binned is None:
            g.apply(g.search_exact())
        else:
            key = (id(g.binned), len(g.candidates), g.n_classes)
            groups.setdefault(key, []).append(g)
    for group in groups.values():
        for batch in _batches(group):
            for g, split in zip(batch, _hist_search(batch)):
                g.apply(split)


def grow_trees(tasks) -> list:
    """Grow ``(tree, X, y, sample_indices)`` tasks as one lockstep group.

    Each task is what ``tree.fit(X, y, sample_indices)`` would receive; the
    trees may differ in data, target, kernel and hyper-parameters.  Every
    step advances each unfinished tree to its next node needing a split
    search and serves all of those nodes with one batched search.  Returns
    the fitted trees in task order.
    """
    growths = [_Growth(tree, X, y, sample) for tree, X, y, sample in tasks]
    active = growths
    while active:
        active = [g for g in active if g.advance()]
        _search_pending(active)
    for g in growths:
        g.finish()
    return [g.tree for g in growths]


class _BaseDecisionTree(BaseEstimator):
    """Shared CART machinery: fitting, inference and persistence."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: int | None = None,
        tree_method: str | None = None,
        max_bins: int = DEFAULT_MAX_BINS,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins
        self._nodes: NodeArrays | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    # subclasses provide these -------------------------------------------------

    def _prepare_target(self, y: np.ndarray, sample_indices) -> tuple[np.ndarray, int | None]:
        """The target as grown on, and the class count (``None``: regression)."""
        raise NotImplementedError

    def _best_split_for_feature(
        self, values: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        """Return ``(impurity_decrease, threshold)`` or ``(-inf, 0)`` if none."""
        raise NotImplementedError

    # construction --------------------------------------------------------------

    def fit(self, X, y, sample_indices: np.ndarray | None = None):
        """Grow the tree on the training data (a lockstep group of one).

        ``X`` may be a float matrix or a prebuilt (shared)
        :class:`~repro.ml.binning.BinnedMatrix`; ``sample_indices`` restricts
        training to the given rows (with repeats — a bootstrap draw) without
        copying the data.
        """
        grow_trees([(self, X, y, sample_indices)])
        return self

    # inference ------------------------------------------------------------------

    def _predict_values(self, X) -> np.ndarray:
        """The leaf value of every row, shape ``(rows, values width)``."""
        X = check_array(X)
        if self._nodes is None:
            raise RuntimeError("tree must be fitted before prediction")
        return self._nodes.values[self._nodes.leaves(X)[0]]

    # persistence ----------------------------------------------------------------

    _PARAM_NAMES = (
        "max_depth",
        "min_samples_split",
        "min_samples_leaf",
        "max_features",
        "random_state",
        "tree_method",
        "max_bins",
    )

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The fitted tree as ``(plain doc, named arrays)``.

        The doc is JSON-serialisable (hyper-parameters and shape info); node
        structure travels as flat arrays suited to the binary page format of
        :mod:`repro.serving.artifact`.  :meth:`from_state` inverts it exactly:
        a round-tripped tree predicts bit-identically.
        """
        if self._nodes is None:
            raise RuntimeError("cannot serialise an unfitted tree")
        nodes = self._nodes
        doc = {
            "params": {name: getattr(self, name) for name in self._PARAM_NAMES},
            "n_features": int(self.n_features_),
        }
        arrays = {
            "feature": nodes.feature,
            "threshold": nodes.threshold,
            "left": nodes.left,
            "right": nodes.right,
            "values": nodes.values,
            "importances": np.asarray(self.feature_importances_, dtype=np.float64),
        }
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        params = doc["params"]
        for name in self._PARAM_NAMES:
            if name in params:
                setattr(self, name, params[name])
        self.n_features_ = int(doc["n_features"])
        self._nodes = NodeArrays(
            np.asarray(arrays["feature"], dtype=np.int32),
            np.asarray(arrays["threshold"], dtype=np.float64),
            np.asarray(arrays["left"], dtype=np.int32),
            np.asarray(arrays["right"], dtype=np.int32),
            np.asarray(arrays["values"], dtype=np.float64),
            self.n_features_,
        )
        self.feature_importances_ = np.asarray(arrays["importances"], dtype=np.float64)

    @classmethod
    def from_state(cls, doc: dict, arrays: dict[str, np.ndarray]):
        """Rebuild a fitted tree written by :meth:`to_state`."""
        tree = cls()
        tree._restore_state(doc, arrays)
        return tree

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return 0 if self._nodes is None else len(self._nodes.feature)

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        if self._nodes is None:
            return 0
        nodes, level, depth = self._nodes, np.zeros(1, dtype=np.int64), 0
        while True:
            level = level[nodes.feature[level] >= 0]
            if not len(level):
                return depth
            level = np.concatenate([nodes.left[level], nodes.right[level]])
            depth += 1


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regression tree minimising within-node variance."""

    def predict(self, X) -> np.ndarray:
        """Predict the mean target of the leaf each row falls into."""
        return self._predict_values(X)[:, 0]

    def _prepare_target(self, y, sample_indices):
        return y, None

    def _best_split_for_feature(self, values, y) -> tuple[float, float]:
        order = np.argsort(values, kind="stable")
        v, t = values[order], y[order]
        n = len(t)
        if n < 2:
            return -np.inf, 0.0
        # candidate boundaries: positions where the feature value changes
        boundaries = np.nonzero(np.diff(v) > 0)[0]
        if len(boundaries) == 0:
            return -np.inf, 0.0
        csum = np.cumsum(t)
        total_sum = csum[-1]
        n_left = boundaries + 1
        n_right = n - n_left
        left_sum = csum[boundaries]
        right_sum = total_sum - left_sum
        # variance decrease with the sum-of-squares terms cancelled out:
        # (sse_parent - sse_left - sse_right) == lhs below, since the raw
        # second moments appear once positively and once negatively
        gains = (left_sum**2 / n_left + right_sum**2 / n_right - total_sum**2 / n) / n
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            return -np.inf, 0.0
        boundary = boundaries[best]
        threshold = (v[boundary] + v[boundary + 1]) / 2.0
        return float(gains[best]), float(threshold)


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classification tree minimising Gini impurity."""

    def _prepare_target(self, y, sample_indices):
        # classes are taken from the sampled rows only, matching a fit on the
        # materialised bootstrap sample; rows outside the sample may get the
        # out-of-range code len(classes_), but construction never visits them
        y_seen = y if sample_indices is None else y[np.asarray(sample_indices)]
        self.classes_ = np.unique(y_seen)
        self._class_index = {cls: i for i, cls in enumerate(self.classes_)}
        return np.searchsorted(self.classes_, y).astype(np.int64), len(self.classes_)

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability estimates (leaf class frequencies)."""
        return self._predict_values(X)

    def predict(self, X) -> np.ndarray:
        """Predict the majority class of the leaf each row falls into."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """See :meth:`_BaseDecisionTree.to_state`; adds the class vector."""
        doc, arrays = super().to_state()
        arrays["classes"] = np.asarray(self.classes_, dtype=np.float64)
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        super()._restore_state(doc, arrays)
        self.classes_ = np.asarray(arrays["classes"], dtype=np.float64)
        self._class_index = {cls: i for i, cls in enumerate(self.classes_)}

    def _best_split_for_feature(self, values, codes) -> tuple[float, float]:
        order = np.argsort(values, kind="stable")
        v = values[order]
        c = codes[order].astype(np.int64)
        n = len(c)
        if n < 2:
            return -np.inf, 0.0
        boundaries = np.nonzero(np.diff(v) > 0)[0]
        if len(boundaries) == 0:
            return -np.inf, 0.0
        n_classes = len(self.classes_)
        one_hot = np.zeros((n, n_classes), dtype=np.float64)
        one_hot[np.arange(n), c] = 1.0
        cum_counts = np.cumsum(one_hot, axis=0)
        total_counts = cum_counts[-1]
        left_counts = cum_counts[boundaries]
        right_counts = total_counts - left_counts
        n_left = (boundaries + 1).astype(np.float64)
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        gini_parent = 1.0 - np.sum((total_counts / n) ** 2)
        gains = gini_parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            return -np.inf, 0.0
        boundary = boundaries[best]
        threshold = (v[boundary] + v[boundary + 1]) / 2.0
        return float(gains[best]), float(threshold)
