"""Group-by aggregation.

ARDA pre-aggregates foreign tables on their join keys so that one-to-many and
many-to-many joins reduce to the row-preserving one-to-one / many-to-one cases
(paper section 4, "Join Cardinality").

Group identification is fully vectorised on top of the columnar storage:
categorical key columns contribute their dictionary codes directly, numeric
key columns are factorised once, and the per-column codes are packed into a
single ``int64`` per row by :func:`pack_key_codes` — the one composite-key
packer the hash-join probe and the tuple-ratio domain count use too.  The
packing is exact for any key width (no hashing, so distinct keys never
collide).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL, NUMERIC
from repro.relational.table import Table


def _mode(values: np.ndarray):
    """Most frequent non-missing value of an object array (None if all missing)."""
    counts: dict = {}
    for value in values:
        if value is None:
            continue
        counts[value] = counts.get(value, 0) + 1
    if not counts:
        return None
    return max(counts.items(), key=lambda kv: kv[1])[0]


def _mode_codes_per_group(
    sorted_codes: np.ndarray, sorted_group_ids: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group most frequent non-missing code (-1 where all missing).

    One ``lexsort`` over the (group, code) pairs replaces a per-group counting
    loop, so the cost is O(n log n) regardless of group count or dictionary
    size.  Ties break toward the code that appears first in the group's row
    order, matching the insertion-order tie-break of the object-array
    :func:`_mode`.
    """
    out = np.full(n_groups, -1, dtype=np.int32)
    valid = sorted_codes >= 0
    if not valid.any():
        return out
    groups = sorted_group_ids[valid].astype(np.int64)
    codes = sorted_codes[valid].astype(np.int64)
    order = np.lexsort((codes, groups))  # stable: row order survives within runs
    g, c = groups[order], codes[order]
    run_start = np.ones(len(g), dtype=bool)
    run_start[1:] = (g[1:] != g[:-1]) | (c[1:] != c[:-1])
    starts = np.nonzero(run_start)[0]
    counts = np.diff(np.append(starts, len(g)))
    pair_group = g[starts]
    pair_code = c[starts]
    first_row = order[starts]  # earliest row (slice order) of each (group, code)
    best = np.lexsort((first_row, -counts, pair_group))
    keep = np.ones(len(best), dtype=bool)
    keep[1:] = pair_group[best[1:]] != pair_group[best[:-1]]
    chosen = best[keep]
    out[pair_group[chosen]] = pair_code[chosen]
    return out


_NUMERIC_AGGS: dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda v: float(np.nanmean(v)) if np.any(~np.isnan(v)) else float("nan"),
    "sum": lambda v: float(np.nansum(v)) if np.any(~np.isnan(v)) else float("nan"),
    "min": lambda v: float(np.nanmin(v)) if np.any(~np.isnan(v)) else float("nan"),
    "max": lambda v: float(np.nanmax(v)) if np.any(~np.isnan(v)) else float("nan"),
    "median": lambda v: float(np.nanmedian(v)) if np.any(~np.isnan(v)) else float("nan"),
    "std": lambda v: float(np.nanstd(v)) if np.any(~np.isnan(v)) else float("nan"),
    "count": lambda v: float(np.sum(~np.isnan(v))),
    "first": lambda v: float(v[0]) if len(v) else float("nan"),
}

_CATEGORICAL_AGGS: dict[str, Callable[[np.ndarray], object]] = {
    "mode": _mode,
    "first": lambda v: v[0] if len(v) else None,
    "nunique": lambda v: len({x for x in v if x is not None}),
}


def column_group_codes(col: Column) -> tuple[np.ndarray, int]:
    """Per-row ``int64`` equality codes of a column, with ``-1`` for missing.

    Returns ``(codes, domain)`` where all non-missing codes are in
    ``[0, domain)``.  Categorical columns reuse their dictionary codes for
    free; float-backed columns are factorised with one ``np.unique``.
    """
    if col.ctype is CATEGORICAL:
        return col.codes.astype(np.int64), len(col.dictionary)
    values = col.values
    valid = ~np.isnan(values)
    codes = np.full(len(values), -1, dtype=np.int64)
    if valid.any():
        _, inverse = np.unique(values[valid], return_inverse=True)
        codes[valid] = inverse
        return codes, int(inverse.max()) + 1
    return codes, 0


def pack_key_codes(
    parts: Iterable[tuple[Sequence[np.ndarray], int]], sizes: Sequence[int]
) -> list[np.ndarray]:
    """Pack composite-key codes into one ``int64`` per row, exactly.

    Each part is one key column: ``(codes, domain)`` with one code array per
    side (``sizes`` gives the sides' row counts; a join passes its probe and
    build sides so both share one code space), non-missing codes in
    ``[0, domain)`` and ``-1`` for missing.  Returns one packed array per side;
    two rows, of any sides, get equal packed values exactly when all their
    key parts are equal (missing equals missing).

    Parts are packed mixed-radix (radix ``domain + 1``, missing as digit 0).
    When the running span would pass ``2**62``, the packed prefix of all sides
    is re-densified with one ``np.unique`` — leaving at most as many codes as
    rows — and packing continues from there.  Keys whose span fits never take
    that step and get the plain mixed-radix values.
    """
    packed = [np.zeros(n, dtype=np.int64) for n in sizes]
    span = 1
    for codes, domain in parts:
        radix = domain + 1
        if span * radix > 2**62:
            uniques, inverse = np.unique(np.concatenate(packed), return_inverse=True)
            packed = np.split(inverse.astype(np.int64, copy=False), np.cumsum(sizes)[:-1])
            span = len(uniques)
        packed = [prefix * radix + (c + 1) for prefix, c in zip(packed, codes)]
        span *= radix
    return packed


def _group_rows(table: Table, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised group identification.

    Returns ``(group_ids, first_rows)``: ``group_ids[i]`` is the group of row
    ``i``, groups are numbered by first appearance, and ``first_rows[g]`` is
    the first row index of group ``g``.  Missing key values participate as
    their own key symbol.
    """
    key_columns = [table.column(k) for k in keys]
    n = table.num_rows
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    parts = (column_group_codes(col) for col in key_columns)
    (packed,) = pack_key_codes((((codes,), domain) for codes, domain in parts), (n,))
    _, first_seen, inverse = np.unique(packed, return_index=True, return_inverse=True)
    appearance = np.argsort(first_seen, kind="stable")
    rank = np.empty(len(first_seen), dtype=np.int64)
    rank[appearance] = np.arange(len(first_seen))
    return rank[inverse], first_seen[appearance]


def group_by_aggregate(
    table: Table,
    keys: Sequence[str],
    numeric_agg: str = "mean",
    categorical_agg: str = "mode",
    agg_overrides: Mapping[str, str] | None = None,
) -> Table:
    """Aggregate a table so that key tuples become unique.

    Non-key numeric columns are aggregated with ``numeric_agg`` and non-key
    categorical columns with ``categorical_agg``; ``agg_overrides`` can pick a
    different aggregate per column.  The result has one row per distinct key
    tuple, with key columns first.
    """
    if not keys:
        raise ValueError("group_by_aggregate requires at least one key column")
    agg_overrides = dict(agg_overrides or {})
    group_ids, first_rows = _group_rows(table, keys)
    n_groups = len(first_rows)
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    boundaries = np.searchsorted(sorted_ids, np.arange(n_groups))
    boundaries = np.append(boundaries, len(sorted_ids))

    # key columns: the first row of each group carries the group's key values,
    # so a single take-view per key column replaces the old tuple rebuild
    out_columns: list[Column] = [table.column(key).take(first_rows) for key in keys]

    key_set = set(keys)
    for col in table.columns():
        if col.name in key_set:
            continue
        agg_name = agg_overrides.get(
            col.name, categorical_agg if col.ctype is CATEGORICAL else numeric_agg
        )
        if col.ctype is CATEGORICAL:
            out_columns.append(
                _aggregate_categorical(col, agg_name, order, boundaries, n_groups)
            )
        else:
            agg_fn = _NUMERIC_AGGS.get(agg_name)
            if agg_fn is None:
                raise ValueError(f"unknown numeric aggregate {agg_name!r}")
            data = col.values[order]
            values = np.array(
                [agg_fn(data[boundaries[g]:boundaries[g + 1]]) for g in range(n_groups)],
                dtype=np.float64,
            )
            out_columns.append(Column.from_array(col.name, values, col.ctype))
    return Table(out_columns, name=table.name)


def _aggregate_categorical(
    col: Column, agg_name: str, order: np.ndarray, boundaries: np.ndarray, n_groups: int
) -> Column:
    """Aggregate one categorical column on its code array."""
    sorted_codes = col.codes[order]
    if agg_name == "first":
        out = sorted_codes[boundaries[:-1]] if n_groups else np.empty(0, dtype=np.int32)
        return Column.from_codes(col.name, out.astype(np.int32), col.dictionary)
    if agg_name == "mode":
        sorted_ids = np.repeat(np.arange(n_groups, dtype=np.int64), np.diff(boundaries))
        out = _mode_codes_per_group(sorted_codes, sorted_ids, n_groups)
        return Column.from_codes(col.name, out, col.dictionary)
    if agg_name == "nunique":
        values = np.empty(n_groups, dtype=np.float64)
        for g in range(n_groups):
            chunk = sorted_codes[boundaries[g]:boundaries[g + 1]]
            values[g] = len(np.unique(chunk[chunk >= 0]))
        return Column.from_array(col.name, values, NUMERIC)
    raise ValueError(f"unknown categorical aggregate {agg_name!r}")


def is_unique_on(table: Table, keys: Sequence[str]) -> bool:
    """Whether the key tuples identify rows uniquely."""
    _, first_rows = _group_rows(table, keys)
    return len(first_rows) == table.num_rows
