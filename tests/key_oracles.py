"""Object-tuple reference implementations of the composite-key kernels.

The join probe, group identification and foreign-key domain count pack
composite keys into integers (``repro.relational.aggregate.pack_key_codes``).
These oracles compute the same answers the slow, obvious way — one hashable
Python tuple per row, read through ``Column.values`` — so property tests can
pit the packed kernels against them on any key width.

Missing parts collapse to ``None``; numeric parts compare as floats and
categorical parts as strings, so a categorical part never equals a numeric
one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table


def _key_tuple(columns: Sequence[Column], index: int) -> tuple:
    """Hashable key tuple for one row (missing values collapse to None)."""
    parts = []
    for col in columns:
        value = col.values[index]
        if col.ctype is CATEGORICAL:
            parts.append(value)
        else:
            parts.append(None if np.isnan(value) else float(value))
    return tuple(parts)


def match_via_hash_index(
    left_columns: Sequence[Column], right_columns: Sequence[Column]
) -> np.ndarray:
    """Dict-probe join: first right row per left key tuple, -1 if none.

    Rows with a missing key part never match.
    """
    index: dict[tuple, int] = {}
    for i in range(len(right_columns[0])):
        key = _key_tuple(right_columns, i)
        if None not in key:
            index.setdefault(key, i)
    n = len(left_columns[0])
    match_index = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        key = _key_tuple(left_columns, i)
        if None not in key:
            match_index[i] = index.get(key, -1)
    return match_index


def group_rows(table: Table, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Object-tuple group identification: ``(group_ids, first_rows)``.

    Groups are numbered by first appearance; a missing part is its own symbol.
    """
    columns = [table.column(k) for k in keys]
    index_of: dict[tuple, int] = {}
    group_ids = np.empty(table.num_rows, dtype=np.int64)
    first_rows: list[int] = []
    for i in range(table.num_rows):
        group = index_of.setdefault(_key_tuple(columns, i), len(first_rows))
        if group == len(first_rows):
            first_rows.append(i)
        group_ids[i] = group
    return group_ids, np.array(first_rows, dtype=np.int64)


def domain_size(table: Table, key_columns: Sequence[str]) -> int:
    """Number of distinct key tuples that have no missing part."""
    columns = [table.column(k) for k in key_columns]
    keys = {_key_tuple(columns, i) for i in range(table.num_rows)}
    return sum(1 for key in keys if None not in key)
