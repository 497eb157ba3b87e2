"""Tree construction is pinned byte for byte.

* Golden digests: every case below grows a tree, a forest or a RIFS selection on seeded data
and hashes the arrays of its ``to_state`` (for RIFS: the selected indices and
scores).  The expected SHA-256 digests live in ``tree_growth_digests.json``
beside this file.  A change to how trees are *grown* — batching, scheduling,
the split-search arithmetic — must leave every digest unchanged; a digest
that moves means some tree now differs in a split, a threshold bit, a leaf
value or an importance.  Regenerate the file only when tree *semantics*
  change on purpose::

      PYTHONPATH=src python tests/test_tree_growth.py --record

* Batch composition: a tree grown in a lockstep group with unrelated trees
  is byte-identical to the same tree grown alone.
* Depth: unbounded trees deeper than the interpreter's recursion limit fit,
  predict and report their depth.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.binning import BinnedMatrix
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, grow_trees
from repro.selection.base import CLASSIFICATION, REGRESSION
from repro.selection.rifs import RIFS

DIGESTS_PATH = Path(__file__).with_name("tree_growth_digests.json")
MAX_BINS = 32  # well below the row count, so continuous features are quantile-binned


def _data():
    """240 rows: six continuous features, two low-cardinality ones.

    Both targets are noisy enough that unconstrained trees grow past depth 10.
    """
    rng = np.random.default_rng(2024)
    n = 240
    X = rng.normal(size=(n, 8))
    X[:, 6] = rng.integers(0, 4, size=n)
    X[:, 7] = rng.integers(0, 2, size=n)
    y_reg = 2.0 * X[:, 0] + X[:, 1] ** 2 - X[:, 6] + rng.normal(scale=1.0, size=n)
    score = X[:, 0] + 0.5 * X[:, 2] - 0.3 * X[:, 6] + rng.normal(scale=0.8, size=n)
    y_clf = np.digitize(score, [-0.6, 0.6]).astype(float)
    return X, y_reg, y_clf


def _digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _state_digest(model) -> str:
    return _digest(model.to_state()[1])


def _grid_cases():
    """The main grid: kind x task x kernel x sampling x max_features x leaf x depth."""
    X, y_reg, y_clf = _data()
    bootstrap_rows = np.random.default_rng(7).integers(0, len(X), size=len(X))
    models = {
        ("tree", "reg"): DecisionTreeRegressor,
        ("tree", "clf"): DecisionTreeClassifier,
        ("forest", "reg"): RandomForestRegressor,
        ("forest", "clf"): RandomForestClassifier,
    }
    for (kind, task), method, bootstrap, max_features, leaf, depth in itertools.product(
        models, ("hist", "exact"), (True, False), ("sqrt", 0.5, None), (1, 3), (10, None)
    ):
        case_id = (
            f"{kind}-{task}-{method}-{'boot' if bootstrap else 'full'}"
            f"-mf{max_features}-leaf{leaf}-depth{depth}"
        )
        y = y_reg if task == "reg" else y_clf
        params = dict(
            max_features=max_features, min_samples_leaf=leaf, max_depth=depth,
            tree_method=method, max_bins=MAX_BINS,
        )

        def build(kind=kind, task=task, bootstrap=bootstrap, params=params, y=y):
            cls = models[(kind, task)]
            if kind == "tree":
                sample = bootstrap_rows if bootstrap else None
                return cls(random_state=11, **params).fit(X, y, sample_indices=sample)
            return cls(
                n_estimators=4, bootstrap=bootstrap, random_state=5, **params
            ).fit(X, y)

        yield case_id, build


def _special_cases():
    X, y_reg, y_clf = _data()
    binned = BinnedMatrix.from_matrix(X, max_bins=16)

    def binned_tree():
        return DecisionTreeClassifier(random_state=3, tree_method="hist").fit(binned, y_clf)

    def binned_forest():
        return RandomForestRegressor(n_estimators=5, random_state=3).fit(binned, y_reg)

    # class 2 is absent from the sampled rows: the tree's classes are {0, 1}
    missing = np.flatnonzero(y_clf != 2)[::2]

    def sample_misses_class(method):
        return DecisionTreeClassifier(random_state=4, tree_method=method, max_bins=MAX_BINS).fit(
            X, y_clf, sample_indices=missing
        )

    # two rows of a rare class: some bootstrap samples miss it
    y_rare = (X[:, 0] > 0).astype(float)
    y_rare[[5, 177]] = 2.0

    def forest_rare_class(method):
        return RandomForestClassifier(
            n_estimators=6, random_state=8, tree_method=method, max_bins=MAX_BINS
        ).fit(X, y_rare)

    y_ten = np.floor((X[:, 0] + 3.0) * 10.0 / 6.0).clip(0, 9)

    def ten_class_tree(method):
        return DecisionTreeClassifier(
            random_state=2, max_features="sqrt", tree_method=method, max_bins=MAX_BINS
        ).fit(X, y_ten)

    def ten_class_forest(method):
        return RandomForestClassifier(
            n_estimators=4, random_state=2, tree_method=method, max_bins=MAX_BINS
        ).fit(X, y_ten)

    empty = np.empty((40, 0))

    def zero_features(model, y):
        return model.fit(empty, y[:40])

    def constant_target(model):
        return model.fit(X, np.full(len(X), 1.5))

    def rifs(task):
        selector = RIFS(n_rounds=2, random_state=9, tree_method="hist")
        y = y_reg if task == REGRESSION else y_clf
        result = selector.select(X, y, task=task)
        return {
            "selected": np.asarray(result.selected, dtype=np.int64),
            "scores": np.asarray(result.scores, dtype=np.float64),
        }

    yield "binned-tree-clf", binned_tree
    yield "binned-forest-reg", binned_forest
    for method in ("hist", "exact"):
        yield f"sample-misses-class-{method}", lambda m=method: sample_misses_class(m)
        yield f"forest-rare-class-{method}", lambda m=method: forest_rare_class(m)
        yield f"ten-class-tree-{method}", lambda m=method: ten_class_tree(m)
        yield f"ten-class-forest-{method}", lambda m=method: ten_class_forest(m)
        yield f"zero-features-tree-reg-{method}", lambda m=method: zero_features(
            DecisionTreeRegressor(tree_method=m), y_reg
        )
        yield f"zero-features-forest-clf-{method}", lambda m=method: zero_features(
            RandomForestClassifier(n_estimators=3, tree_method=m), y_clf
        )
        yield f"constant-target-tree-reg-{method}", lambda m=method: constant_target(
            DecisionTreeRegressor(tree_method=m)
        )
        yield f"constant-target-forest-clf-{method}", lambda m=method: constant_target(
            RandomForestClassifier(n_estimators=3, tree_method=m)
        )
    yield "rifs-select-regression", lambda: rifs(REGRESSION)
    yield "rifs-select-classification", lambda: rifs(CLASSIFICATION)


CASES = dict(itertools.chain(_grid_cases(), _special_cases()))


def _compute(case_id: str) -> str:
    result = CASES[case_id]()
    return _digest(result) if isinstance(result, dict) else _state_digest(result)


def _expected() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_grown_state_matches_golden_digest(case_id):
    assert _compute(case_id) == _expected()[case_id]


def test_digest_file_covers_exactly_the_cases():
    assert set(_expected()) == set(CASES)


# -- batch composition ------------------------------------------------------------


def _random_task(rng, binned, X):
    """A random tree and its ``(tree, X, y, sample_indices)`` growth task.

    ``X`` is the float matrix behind ``binned``; the exact kernel trains on it.
    """
    n = binned.n_rows
    method = "exact" if rng.random() < 0.2 else "hist"
    params = dict(
        max_depth=[None, 2, 5, 8][int(rng.integers(4))],
        min_samples_leaf=int(rng.integers(1, 4)),
        max_features=["sqrt", 0.5, None][int(rng.integers(3))],
        random_state=int(rng.integers(2**31 - 1)),
        tree_method=method,
        max_bins=binned.max_bins,
    )
    if rng.random() < 0.5:
        n_classes = int(rng.integers(2, 11))
        tree = DecisionTreeClassifier(**params)
        y = rng.integers(0, n_classes, size=n).astype(float)
    else:
        tree = DecisionTreeRegressor(**params)
        y = rng.normal(size=n) + 2.0 * (X[:, 0] > 0)
    sample = None if rng.random() < 0.3 else rng.integers(0, n, size=int(rng.integers(10, 2 * n)))
    return tree, (binned if method == "hist" else X), y, sample


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_companions=st.integers(1, 5))
def test_tree_grows_identically_alone_and_in_a_group(seed, n_companions):
    rng = np.random.default_rng(seed)

    def matrix():
        X = rng.normal(size=(int(rng.integers(20, 150)), int(rng.integers(1, 9))))
        X[:, 0] = np.round(X[:, 0], int(rng.integers(0, 3)))  # some low-cardinality
        return BinnedMatrix.from_matrix(X, max_bins=int(rng.integers(2, 64))), X

    shared, shared_X = matrix()
    target = _random_task(rng, shared, shared_X)
    # companions share the target's matrix (and so its batches) or bring their
    # own, with other row counts, bin counts, class counts and kernels
    companions = [
        _random_task(rng, *((shared, shared_X) if rng.random() < 0.6 else matrix()))
        for _ in range(n_companions)
    ]
    tree, data, y, sample = target
    alone = type(tree)(**tree.get_params()).fit(data, y, sample_indices=sample)
    tasks = companions[:]
    tasks.insert(int(rng.integers(len(tasks) + 1)), target)
    grow_trees(tasks)
    assert _state_digest(tree) == _state_digest(alone)


# -- depth ---------------------------------------------------------------------------


def test_tree_deeper_than_the_recursion_limit():
    # alternating labels along one feature: the unbounded tree is a chain
    X = np.arange(4000.0)[:, None]
    y = np.arange(4000) % 2
    tree = DecisionTreeClassifier(max_depth=None, tree_method="exact").fit(X, y)
    assert tree.depth() > sys.getrecursionlimit()
    assert np.array_equal(tree.predict(X), y)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_tree_growth.py --record")
    DIGESTS_PATH.write_text(
        json.dumps({case_id: _compute(case_id) for case_id in sorted(CASES)}, indent=1) + "\n"
    )
