"""The Tuple-Ratio decision rule of Kumar et al. (SIGMOD 2016).

The Tuple Ratio of a candidate join is ``n_S / n_R`` where ``n_S`` is the
number of training examples in the base table and ``n_R`` is the size of the
foreign-key domain (the number of distinct join-key values in the foreign
table).  Based on a VC-dimension argument for binary classification, a foreign
table is "safe to avoid" when the ratio exceeds a threshold (Kumar et al.
suggest tuning the threshold per model; the paper finds slight gains from
per-dataset tuning and reports the threshold used per dataset in Table 4).

ARDA uses the rule in two ways:

* as a **table pre-filter** before feature selection (drop tables whose tuple
  ratio exceeds ``tau``), trading a little accuracy for speed (Table 4), and
* as a **stand-alone augmentation baseline** ("TR rule" in Figure 3 /
  Table 1): join only the tables the rule keeps and use all of their features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.relational.aggregate import column_group_codes, pack_key_codes
from repro.relational.table import Table


@dataclass
class TupleRatioDecision:
    """The rule's verdict for one candidate table."""

    table_name: str
    tuple_ratio: float
    keep: bool


def foreign_key_domain_size(table: Table, key_columns: list[str]) -> int:
    """Number of distinct (non-missing) join-key tuples in a foreign table.

    Key columns are reduced to integer codes (dictionary codes for
    categoricals) and composite keys are packed into one ``int64`` per row
    (:func:`~repro.relational.aggregate.pack_key_codes`), so counting the
    domain is a single ``np.unique`` over integers.
    """
    if not key_columns:
        return 0
    columns = [table.column(k) for k in key_columns]
    n = table.num_rows
    if n == 0:
        return 0
    complete = np.ones(n, dtype=bool)
    parts = []
    for col in columns:
        codes, domain = column_group_codes(col)
        complete &= codes >= 0
        parts.append(((codes,), domain))
    (packed,) = pack_key_codes(parts, (n,))
    return len(np.unique(packed[complete]))


def tuple_ratio(base_rows: int, foreign_table: Table, key_columns: list[str]) -> float:
    """Tuple ratio n_S / n_R of one candidate join (inf when the domain is empty)."""
    domain = foreign_key_domain_size(foreign_table, key_columns)
    if domain == 0:
        return float("inf")
    return base_rows / domain


class TupleRatioFilter:
    """Filter candidate tables by the Tuple-Ratio rule.

    ``tau`` is the threshold above which a table is considered safe to drop.
    """

    def __init__(self, tau: float = 20.0):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau

    def decide(
        self, base_rows: int, foreign_table: Table, key_columns: list[str]
    ) -> TupleRatioDecision:
        """Return the keep/drop decision for one candidate table."""
        ratio = tuple_ratio(base_rows, foreign_table, key_columns)
        return TupleRatioDecision(
            table_name=foreign_table.name, tuple_ratio=ratio, keep=ratio <= self.tau
        )

    def filter_candidates(
        self,
        base_rows: int,
        candidates: list[tuple[Table, list[str]]],
    ) -> tuple[list[int], list[TupleRatioDecision]]:
        """Apply the rule to a list of ``(table, key_columns)`` candidates.

        Returns the indices of the candidates to keep and all decisions.
        """
        keep_indices: list[int] = []
        decisions: list[TupleRatioDecision] = []
        for index, (table, key_columns) in enumerate(candidates):
            decision = self.decide(base_rows, table, key_columns)
            decisions.append(decision)
            if decision.keep:
                keep_indices.append(index)
        return keep_indices, decisions
