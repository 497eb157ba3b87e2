"""The composite-key packer and the three key kernels built on it.

``pack_key_codes`` packs per-column key codes mixed-radix into one ``int64``
per row and re-densifies the packed prefix whenever the running span would
pass ``2**62``.  The join probe, group identification (and with it
``is_unique_on``) and the tuple-ratio domain count are checked against the
object-tuple oracles of ``tests/key_oracles.py`` on keys whose span fits and
on keys whose span crosses ``2**62``: wide numeric keys, views of tables with
large dictionaries, missing parts, and mixed categorical/numeric keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from key_oracles import domain_size, group_rows, match_via_hash_index
from repro.relational.aggregate import (
    _group_rows,
    column_group_codes,
    is_unique_on,
    pack_key_codes,
)
from repro.relational.column import Column
from repro.relational.join import _match_first_occurrence
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table
from repro.selection.tuple_ratio import foreign_key_domain_size

seeds = st.integers(0, 2**32 - 1)


def key_span(table: Table, keys) -> int:
    """The mixed-radix span of a table's composite key (exact Python int)."""
    span = 1
    for key in keys:
        span *= column_group_codes(table.column(key))[1] + 1
    return span


def assert_kernels_match_oracles(table: Table, keys, probe: Table) -> None:
    """Group ids, uniqueness, domain size and the join probe equal the oracles."""
    ids, firsts = _group_rows(table, keys)
    ref_ids, ref_firsts = group_rows(table, keys)
    assert np.array_equal(ids, ref_ids)
    assert np.array_equal(firsts, ref_firsts)
    assert is_unique_on(table, keys) == (len(ref_firsts) == table.num_rows)
    assert foreign_key_domain_size(table, list(keys)) == domain_size(table, keys)
    left_cols = [probe.column(k) for k in keys]
    right_cols = [table.column(k) for k in keys]
    assert np.array_equal(
        _match_first_occurrence(left_cols, right_cols),
        match_via_hash_index(left_cols, right_cols),
    )


# -- the packer itself ---------------------------------------------------------


class TestPackKeyCodes:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_fitting_span_is_plain_mixed_radix(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 30))
        domains = [int(d) for d in rng.integers(1, 50, size=rng.integers(1, 5))]
        codes = [rng.integers(-1, d, size=n) for d in domains]
        (packed,) = pack_key_codes([((c,), d) for c, d in zip(codes, domains)], (n,))
        expected = np.zeros(n, dtype=np.int64)
        for c, d in zip(codes, domains):
            expected = expected * (d + 1) + (c + 1)
        assert np.array_equal(packed, expected)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_overflowing_span_stays_exact_across_sides(self, seed):
        rng = np.random.default_rng(seed)
        sizes = (int(rng.integers(1, 40)), int(rng.integers(0, 40)))
        domains = [2**40] * 4  # densifies before each of the last three parts
        pool = np.stack([rng.choice([-1, 0, d // 2, d - 1], size=8) for d in domains], axis=1)
        rows = [rng.integers(0, 8, size=n) for n in sizes]
        parts = [(tuple(pool[r, j] for r in rows), d) for j, d in enumerate(domains)]
        flat = np.concatenate(pack_key_codes(parts, sizes))
        tuples = pool[np.concatenate(rows)]
        same_packed = flat[:, None] == flat[None, :]
        same_tuple = (tuples[:, None, :] == tuples[None, :, :]).all(axis=-1)
        assert np.array_equal(same_packed, same_tuple)

    def test_no_parts_packs_every_row_to_zero(self):
        packed = pack_key_codes([], (3, 0))
        assert [p.tolist() for p in packed] == [[0, 0, 0], []]


# -- key kernels on spans that fit --------------------------------------------

cat_values = st.lists(st.one_of(st.sampled_from(["a", "b", "", "dd"]), st.none()), max_size=40)
num_values = st.lists(st.one_of(st.sampled_from([0.0, 1.0, -2.5]), st.none()), max_size=40)


@settings(max_examples=60)
@given(cat_values, num_values)
def test_domain_size_matches_oracle_on_fitting_span(ks, xs):
    n = min(len(ks), len(xs))
    table = Table.from_dict({"k": ks[:n], "x": xs[:n]}, types={"k": CATEGORICAL})
    for keys in (["k"], ["x"], ["k", "x"], ["x", "k"]):
        assert foreign_key_domain_size(table, keys) == domain_size(table, keys)


# -- key kernels on spans past 2**62 ------------------------------------------


def wide_numeric_table(rng, n_distinct: int, n_columns: int, missing: float) -> Table:
    """``n_distinct`` distinct values per column, some duplicated key tuples."""
    pool = np.stack([rng.permutation(n_distinct) for _ in range(n_columns)], axis=1)
    rows = np.concatenate([np.arange(n_distinct), rng.integers(0, n_distinct, 400)])
    values = pool[rng.permutation(rows)].astype(np.float64)
    values[rng.random(values.shape) < missing] = np.nan
    return Table.from_dict({f"k{j}": values[:, j] for j in range(n_columns)}, name="wide")


class TestOverflowingKeys:
    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_wide_numeric_keys(self, seed):
        rng = np.random.default_rng(seed)
        table = wide_numeric_table(rng, 6000, 5, missing=0.0)
        keys = [f"k{j}" for j in range(5)]
        assert key_span(table, keys) > 2**62
        probe = table.take(rng.integers(0, table.num_rows, 300))
        assert_kernels_match_oracles(table, keys, probe)

    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_wide_numeric_keys_with_missing_parts(self, seed):
        rng = np.random.default_rng(seed)
        table = wide_numeric_table(rng, 6000, 5, missing=0.02)
        keys = [f"k{j}" for j in range(5)]
        assert key_span(table, keys) > 2**62
        probe = table.take(rng.integers(0, table.num_rows, 300))
        assert_kernels_match_oracles(table, keys, probe)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_view_of_large_dictionary_table(self, seed, large_dictionary_table):
        rng = np.random.default_rng(seed)
        n = large_dictionary_table.num_rows
        keys = ["c0", "c1", "c2", "c3"]
        rows = np.append(rng.choice(n - 1, 99, replace=False), n - 1)
        hundred = large_dictionary_table.take(rng.permutation(rows))
        assert key_span(hundred, keys) > 2**62
        probe = large_dictionary_table.take(np.append(rows[:50], rng.integers(0, n, 50)))
        assert_kernels_match_oracles(hundred, keys, probe)
        duplicated = large_dictionary_table.take(rng.permutation(np.append(rows, rows[:20])))
        assert_kernels_match_oracles(duplicated, keys, probe)
        assert not is_unique_on(duplicated, keys)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_mixed_categorical_and_numeric_keys(self, seed, large_dictionary_table):
        rng = np.random.default_rng(seed)
        n = large_dictionary_table.num_rows
        rows = rng.permutation(np.concatenate([np.arange(n - 3000, n), rng.integers(0, n, 500)]))
        numeric = rng.integers(0, 3000, len(rows)).astype(np.float64)
        numeric[rng.random(len(rows)) < 0.05] = np.nan
        view = large_dictionary_table.take(rows)
        cat = [view.column(k) for k in ("c0", "c1", "c2", "c3")]
        table = Table(cat[:2] + [Column.numeric("x", numeric)] + cat[2:], name="mixed")
        keys = ["c0", "c1", "x", "c2", "c3"]
        assert key_span(table, keys) > 2**62
        assert_kernels_match_oracles(table, keys, table.take(rng.integers(0, len(rows), 300)))

        # a categorical key part never matches a numeric one
        swapped = Table([Column.numeric("c0", numeric)] + table.columns()[1:], name="swapped")
        left_cols = [swapped.column(k) for k in keys]
        right_cols = [table.column(k) for k in keys]
        got = _match_first_occurrence(left_cols, right_cols)
        assert np.array_equal(got, match_via_hash_index(left_cols, right_cols))
        assert (got == -1).all()

    def test_kernels_never_read_single_values(self, monkeypatch, large_dictionary_table):
        """Overflowing keys stay on the vectorised path: no per-row ``value_at``."""
        rng = np.random.default_rng(7)
        n = large_dictionary_table.num_rows
        view = large_dictionary_table.take(np.append(rng.integers(0, n, 199), n - 1))
        keys = ["c0", "c1", "c2", "c3"]
        assert key_span(view, keys) > 2**62

        def refuse(self, index):
            raise AssertionError("key kernels must not read values one row at a time")

        monkeypatch.setattr(Column, "value_at", refuse)
        assert_kernels_match_oracles(view, keys, view.take(rng.permutation(view.num_rows)))


@pytest.fixture(scope="module")
def large_dictionary_table() -> Table:
    """60k rows, four categorical columns with 60k-entry dictionaries, ~3% missing.

    Any view keeps the full dictionaries, so four key columns span
    ``60001**4 > 2**62`` however few rows the view has.
    """
    rng = np.random.default_rng(2024)
    n = 60_000
    dictionary = np.array([f"v{i}" for i in range(n)], dtype=object)
    columns = []
    for j in range(4):
        codes = rng.permutation(n).astype(np.int32)
        codes[rng.random(n) < 0.03] = -1
        codes[-1] = n - 1  # the last row carries every column's largest code
        columns.append(Column.from_codes(f"c{j}", codes, dictionary))
    return Table(columns, name="large_dict")
