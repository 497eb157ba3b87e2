"""Tree and forest predictions are pinned byte for byte.

* Golden digests: every case below fits a tree or a forest on seeded data,
  scores query batches of 1, 7 and 512 rows (with NaN cells) and hashes the
  ``predict`` and ``predict_proba`` arrays.  The expected SHA-256 digests
  live in ``tree_predict_digests.json`` beside this file.  A change to how
  fitted trees are *stored or walked* — node layout, traversal order, how a
  forest accumulates its trees — must leave every digest unchanged.  Forests
  restored through ``to_state``/``from_state`` and through a
  ``FittedPipeline`` save/load are pinned too.  Regenerate the file only
  when prediction semantics change on purpose::

      PYTHONPATH=src python tests/test_tree_predict.py --record

* Width: a matrix narrower or wider than the one a model was fitted on
  raises ``ValueError`` naming both widths, for a tree, a forest and a
  restored forest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.discovery.repository import DataRepository
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.relational.table import Table
from repro.serving import FittedPipeline
from repro.serving.pipeline import fit_pipeline_from_training

DIGESTS_PATH = Path(__file__).with_name("tree_predict_digests.json")
MAX_BINS = 32
BATCH_ROWS = (1, 7, 512)
N_FEATURES = 6


def _data():
    """250 training rows, a 512-row query matrix with NaN cells, four targets."""
    rng = np.random.default_rng(77)
    n = 250
    X = rng.normal(size=(n, N_FEATURES))
    X[:, 4] = rng.integers(0, 5, size=n)
    y_reg = 1.5 * X[:, 0] - X[:, 1] ** 2 + 0.5 * X[:, 4] + rng.normal(scale=0.7, size=n)
    score = X[:, 0] + 0.6 * X[:, 2] - 0.2 * X[:, 4] + rng.normal(scale=0.8, size=n)
    y_clf = np.digitize(score, [-0.5, 0.5]).astype(float)
    # one row of a rare class: some bootstrap samples miss it
    y_rare = (X[:, 1] > 0).astype(float)
    y_rare[141] = 2.0
    y_ten = np.floor((X[:, 0] + 3.0) * 10.0 / 6.0).clip(0, 9)
    query = rng.normal(size=(512, N_FEATURES))
    query[:, 4] = rng.integers(-1, 6, size=512)
    query[rng.random(size=query.shape) < 0.05] = np.nan
    query[0, 0] = np.nan  # the one-row batch routes a NaN cell too
    return X, query, {"reg": y_reg, "clf": y_clf, "rare": y_rare, "ten": y_ten}


def _digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _predictions(model, query) -> dict[str, np.ndarray]:
    """``predict`` (and ``predict_proba``) of every leading query batch."""
    out = {}
    for rows in BATCH_ROWS:
        batch = query[:rows]
        out[f"predict/{rows}"] = np.asarray(model.predict(batch))
        if hasattr(model, "predict_proba"):
            out[f"proba/{rows}"] = np.asarray(model.predict_proba(batch))
    return out


def _restore_state(model):
    return type(model).from_state(*model.to_state())


def _restore_pipeline(model, X, y):
    """Fit ``model`` inside a join-free pipeline, save it, load it back."""
    names = [f"f{j}" for j in range(X.shape[1])]
    table = Table.from_dict({**{n: X[:, j] for j, n in enumerate(names)}, "y": y}, name="base")
    pipeline, _X, _y = fit_pipeline_from_training(
        target="y", task="regression", base_table=table, augmented_table=table,
        kept_specs=[], repository=DataRepository([]), estimator=model, seed=0,
        soft_strategy="nearest", time_resample=False, max_categories=12,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "forest.pipeline"
        pipeline.save(path)
        return FittedPipeline.load(path).estimator


def _cases():
    X, query, targets = _data()
    models = {
        ("tree", "reg"): DecisionTreeRegressor,
        ("tree", "clf"): DecisionTreeClassifier,
        ("forest", "reg"): RandomForestRegressor,
        ("forest", "clf"): RandomForestClassifier,
    }

    def fit(kind, task, target, method, depth, restore=None):
        params = dict(max_depth=depth, tree_method=method, max_bins=MAX_BINS)
        cls = models[(kind, task)]
        if kind == "tree":
            model = cls(random_state=13, max_features="sqrt", **params)
        else:
            model = cls(n_estimators=10, random_state=21, **params)
        y = targets[target]
        model.fit(X, y)
        if restore == "state":
            model = _restore_state(model)
        elif restore == "pipeline":
            model = _restore_pipeline(model, X, y)
        return _predictions(model, query)

    for (kind, task), method, depth in itertools.product(models, ("hist", "exact"), (10, None)):
        yield (
            f"{kind}-{task}-{method}-depth{depth}",
            lambda a=(kind, task, task, method, depth): fit(*a),
        )
    for method in ("hist", "exact"):
        yield f"forest-rare-class-{method}", lambda m=method: fit("forest", "clf", "rare", m, 10)
        yield f"ten-class-tree-{method}", lambda m=method: fit("tree", "clf", "ten", m, None)
        yield f"ten-class-forest-{method}", lambda m=method: fit("forest", "clf", "ten", m, 10)
    for task in ("reg", "clf"):
        yield f"restored-state-forest-{task}", lambda t=task: fit(
            "forest", t, t, "hist", 10, restore="state"
        )
    yield "restored-state-forest-rare-class", lambda: fit(
        "forest", "clf", "rare", "hist", 10, restore="state"
    )
    yield "restored-pipeline-forest-reg", lambda: fit(
        "forest", "reg", "reg", "hist", 10, restore="pipeline"
    )


CASES = dict(_cases())


def _compute(case_id: str) -> str:
    return _digest(CASES[case_id]())


def _expected() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_predictions_match_golden_digest(case_id):
    assert _compute(case_id) == _expected()[case_id]


def test_digest_file_covers_exactly_the_cases():
    assert set(_expected()) == set(CASES)


@pytest.mark.parametrize(
    "cls, target", [(RandomForestRegressor, "reg"), (RandomForestClassifier, "rare")]
)
def test_row_scored_alone_matches_its_batch(cls, target):
    # a micro-batching server scores a row alone or beside others; every
    # row must get the same bits either way (a pairwise sum over the trees
    # would round some rows differently at width 1)
    X, query, targets = _data()
    forest = cls(n_estimators=10, random_state=21, max_bins=MAX_BINS).fit(X, targets[target])
    predict = forest.predict_proba if target == "rare" else forest.predict
    alone = np.concatenate([predict(query[i : i + 1]) for i in range(len(query))])
    assert alone.tobytes() == predict(query).tobytes()


# -- width ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [N_FEATURES - 1, N_FEATURES + 2])
def test_wrong_width_raises_naming_both_widths(width):
    X, _query, targets = _data()
    tree = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, targets["reg"])
    forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, targets["clf"])
    restored = _restore_state(forest)
    bad = np.zeros((4, width))
    pattern = rf"X has {width} features, but the model was fitted on {N_FEATURES} features"
    for predict in (tree.predict, forest.predict, forest.predict_proba, restored.predict):
        with pytest.raises(ValueError, match=pattern):
            predict(bad)
        with pytest.raises(ValueError, match=pattern):
            predict(bad[:0])


def test_empty_batch_predicts_empty():
    X, _query, targets = _data()
    tree = DecisionTreeClassifier(random_state=0).fit(X, targets["clf"])
    forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, targets["reg"])
    empty = np.empty((0, N_FEATURES))
    assert tree.predict_proba(empty).shape == (0, 3)
    assert forest.predict(empty).shape == (0,)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_tree_predict.py --record")
    DIGESTS_PATH.write_text(
        json.dumps({case_id: _compute(case_id) for case_id in sorted(CASES)}, indent=1) + "\n"
    )
