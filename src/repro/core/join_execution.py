"""Join execution: bring one candidate table's columns onto the base table.

Execution handles everything section 4 of the paper describes:

* hard keys via hash LEFT joins (pre-aggregating the foreign table when the
  join would otherwise be one-to-many / many-to-many),
* soft keys via nearest-neighbour or two-way nearest-neighbour joins,
* time-granularity mismatches via resampling of the finer-grained table,
* column-name collisions via per-table prefixes, and
* missing values produced by unmatched rows via the imputation layer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.executor import JoinExecutor, SerialJoinExecutor, longest_first_order
from repro.discovery.candidates import JoinCandidate
from repro.discovery.repository import DataRepository
from repro.relational.column import Column
from repro.relational.join import (
    StreamJoinStats,
    as_chunk_source,
    iter_streaming_left_join,
    left_join,
)
from repro.relational.resample import align_time_granularity
from repro.relational.schema import DATETIME
from repro.relational.soft_join import nearest_join, two_way_nearest_join
from repro.relational.table import Table, unique_name


def execute_join(
    base: Table,
    foreign: Table,
    candidate: JoinCandidate,
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    prefix_columns: bool = True,
    rng: np.random.Generator | None = None,
) -> Table:
    """LEFT-join one candidate's columns onto ``base`` and return the result.

    All base-table rows are preserved.  Foreign columns are prefixed with the
    foreign table's name so features can be traced back to their source table.
    """
    if prefix_columns:
        foreign = foreign.prefix_columns(
            f"{foreign.name}.", exclude=candidate.foreign_columns
        )
    if candidate.is_soft:
        return _execute_soft_join(
            base, foreign, candidate, soft_strategy, time_resample, rng
        )
    return left_join(base, foreign, on=candidate.key_pairs())


def _execute_soft_join(
    base: Table,
    foreign: Table,
    candidate: JoinCandidate,
    soft_strategy: str,
    time_resample: bool,
    rng: np.random.Generator | None,
) -> Table:
    """Soft-join on the (single) soft key of a candidate."""
    soft_keys = [key for key in candidate.keys if key.soft]
    hard_keys = [key for key in candidate.keys if not key.soft]
    if len(soft_keys) != 1 or hard_keys:
        # mixed composite keys: fall back to a hard join on all keys, after
        # aligning time granularity on the soft components
        working = foreign
        if time_resample:
            for key in soft_keys:
                working = align_time_granularity(
                    base, working, key.base_column, key.foreign_column
                )
        return left_join(base, working, on=candidate.key_pairs())

    key = soft_keys[0]
    working = foreign
    is_time_key = (
        base.column(key.base_column).ctype is DATETIME
        or foreign.column(key.foreign_column).ctype is DATETIME
    )
    if time_resample and is_time_key:
        working = align_time_granularity(
            base, working, key.base_column, key.foreign_column
        )
    if soft_strategy == "hard":
        return left_join(base, working, on=[(key.base_column, key.foreign_column)])
    if soft_strategy == "nearest":
        return nearest_join(base, working, key.base_column, key.foreign_column)
    if soft_strategy == "two_way_nearest":
        return two_way_nearest_join(
            base, working, key.base_column, key.foreign_column, rng=rng
        )
    raise ValueError(f"unknown soft join strategy {soft_strategy!r}")


def _contributed_columns(
    task: tuple[Table, Table, JoinCandidate, str, bool, np.random.Generator | None],
) -> list[Column]:
    """Worker: run one candidate join and return only the columns it added.

    Module-level (not a closure) so the process-pool backend can pickle it.
    The base handed in is a projection onto the candidate's key columns and
    only the new foreign columns travel back, so a process worker never
    pickles base feature data in either direction.  Categorical columns
    serialise as int32 code arrays plus their string dictionary (see
    ``Column.__getstate__``), so even the foreign payload ships no per-row
    strings.
    """
    base, foreign, candidate, soft_strategy, time_resample, rng = task
    joined = execute_join(
        base,
        foreign,
        candidate,
        soft_strategy=soft_strategy,
        time_resample=time_resample,
        rng=rng,
    )
    base_names = set(base.column_names)
    return [col for col in joined.columns() if col.name not in base_names]


def replay_kept_joins(
    base: Table,
    repository: DataRepository,
    specs: list[tuple[JoinCandidate, list[int], list[str]]],
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    rng: np.random.Generator | None = None,
    executor: JoinExecutor | None = None,
) -> Table:
    """Re-execute a list of kept joins on ``base`` under pinned output names.

    ``specs`` pairs each candidate with the *positions* (within the columns
    that candidate adds, in foreign-table column order) and the output names
    of the columns to keep.  Collision suffixes depend on which other columns
    are present when a batch is joined, so a kept column's freshly-joined
    name can differ from the name feature selection saw — matching by
    position and renaming to the pinned name guarantees the result carries
    exactly the chosen columns under the recorded names, on any base table
    that provides the key columns.

    This is the single replay kernel behind both the training-time final
    materialisation (:meth:`repro.core.arda.ARDA.augment_tables`) and the
    serving-time :meth:`repro.serving.FittedPipeline.transform` — train and
    serve cannot drift because they run the same code.  Determinism matches
    :func:`join_candidates_detailed`: per-candidate RNGs are spawned from
    ``rng``, so results are byte-identical across executor backends.
    """
    joined, added_per_candidate = join_candidates_detailed(
        base,
        repository,
        [spec[0] for spec in specs],
        soft_strategy=soft_strategy,
        time_resample=time_resample,
        rng=rng,
        executor=executor,
    )
    out_columns = list(base.columns())
    for (candidate, positions, names), added in zip(specs, added_per_candidate):
        for position, name in zip(positions, names):
            out_columns.append(joined.column(added[position]).rename(name))
    return Table(out_columns, name=base.name)


def iter_replay_kept_joins(
    source,
    repository: DataRepository,
    specs: list[tuple[JoinCandidate, list[int], list[str]]],
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    rng: np.random.Generator | None = None,
    executor: JoinExecutor | None = None,
    chunk_rows: int | None = None,
    memory_budget: int | None = None,
    spill_partitions: int | None = None,
    spill_dir: str | Path | None = None,
    stats: dict[str, StreamJoinStats] | None = None,
) -> Iterator[Table]:
    """:func:`replay_kept_joins` over a chunk source, one output chunk at a time.

    Each kept hard join runs as its own
    :func:`~repro.relational.join.iter_streaming_left_join` over the base
    chunks — zone-map pruning, the sort-order window and the Grace spill
    switch (``memory_budget`` / ``spill_partitions``) included — against a
    build side projected to its keys plus the kept columns, so dropped
    columns are never aggregated or decoded.  The kept columns are
    the last ones of each join's output chunk; they are renamed to their
    pinned names and appended to the base chunk.  Concatenating the yielded
    chunks equals ``replay_kept_joins(source.table(), ...)``, and peak memory
    stays at one chunk per kept join plus the build sides.

    An in-memory :class:`Table` source is sliced into ``chunk_rows`` chunks.
    A kept *soft* join needs global nearest-neighbour context, so its
    presence replays the whole base in memory (with ``rng``/``executor``) and
    re-slices the result the same way.  ``stats`` collects the streaming
    joins' accounting per foreign table.
    """
    source = as_chunk_source(source, chunk_rows=chunk_rows)
    if any(spec[0].is_soft for spec in specs):
        full = replay_kept_joins(
            source.table(),
            repository,
            specs,
            soft_strategy=soft_strategy,
            time_resample=time_resample,
            rng=rng,
            executor=executor,
        )
        yield from as_chunk_source(full, chunk_rows=chunk_rows).iter_chunks()
        return
    stats = {} if stats is None else stats
    width = len(source.column_names)
    streams = []
    try:
        for candidate, positions, names in specs:
            foreign = repository.get(candidate.foreign_table)
            foreign = foreign.prefix_columns(
                f"{foreign.name}.", exclude=candidate.foreign_columns
            )
            right_keys = candidate.foreign_columns
            features = [name for name in foreign.column_names if name not in right_keys]
            kept = [features[position] for position in positions]
            build = foreign.select(list(dict.fromkeys([*right_keys, *kept])))
            stream = iter_streaming_left_join(
                source,
                build,
                candidate.key_pairs(),
                memory_budget=memory_budget,
                stats=stats.setdefault(candidate.foreign_table, StreamJoinStats()),
                spill_partitions=spill_partitions,
                spill_dir=spill_dir,
            )
            streams.append((stream, names))
        for chunk, *joined in zip(source.iter_chunks(), *(s for s, _ in streams)):
            columns = list(chunk.columns())
            for part, (_stream, names) in zip(joined, streams):
                added = part.columns()[width:]
                columns.extend(col.rename(name) for col, name in zip(added, names))
            yield Table(columns, name=source.name)
    finally:
        for stream, _names in streams:
            stream.close()


def join_candidates(
    base: Table,
    repository: DataRepository,
    candidates: list[JoinCandidate],
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    rng: np.random.Generator | None = None,
    executor: JoinExecutor | None = None,
    suffix: str = "_r",
    widths: list[int] | None = None,
) -> tuple[Table, dict[str, list[str]]]:
    """Join every candidate in a batch onto ``base``.

    Returns the joined table and a mapping from foreign table name to the list
    of column names it contributed, which the pipeline uses to trace selected
    features back to tables.  See :func:`join_candidates_detailed` for the
    execution model; this wrapper only aggregates its per-candidate column
    lists by foreign table.
    """
    candidates = list(candidates)
    joined, added_per_candidate = join_candidates_detailed(
        base,
        repository,
        candidates,
        soft_strategy=soft_strategy,
        time_resample=time_resample,
        rng=rng,
        executor=executor,
        suffix=suffix,
        widths=widths,
    )
    contributed: dict[str, list[str]] = {}
    for candidate, added in zip(candidates, added_per_candidate):
        contributed.setdefault(candidate.foreign_table, []).extend(added)
    return joined, contributed


def join_candidates_detailed(
    base: Table,
    repository: DataRepository,
    candidates: list[JoinCandidate],
    soft_strategy: str = "two_way_nearest",
    time_resample: bool = True,
    rng: np.random.Generator | None = None,
    executor: JoinExecutor | None = None,
    suffix: str = "_r",
    widths: list[int] | None = None,
) -> tuple[Table, list[list[str]]]:
    """Join every candidate onto ``base``, tracking added columns per candidate.

    Every join is a LEFT join that preserves base rows and order and only adds
    columns, and candidate keys always reference base-table columns, so the
    batch decomposes into independent per-candidate tasks: each candidate is
    joined against a projection of ``base`` onto its key columns (optionally
    in parallel on ``executor``), and the contributed columns are spliced back
    in candidate order.  Column-name collisions between candidates are
    resolved at merge time with ``suffix``, and each candidate gets its own
    generator spawned deterministically from ``rng`` — both choices make the
    output identical regardless of the executor backend.

    ``widths`` optionally supplies the planner's per-candidate feature
    estimates (``JoinBatch.feature_counts``) used to schedule the widest joins
    first on a parallel executor.

    Returns the joined table and, aligned with ``candidates``, the list of
    column names each candidate added.  A candidate's columns keep a stable
    order (the foreign table's column order) even when collision suffixing
    renames them, so position within the list identifies a column across
    differently-named joins of the same candidate.
    """
    candidates = list(candidates)
    if not candidates:
        return base, []
    if executor is None:
        executor = SerialJoinExecutor()
    child_rngs = rng.spawn(len(candidates)) if rng is not None else [None] * len(candidates)
    foreigns = [repository.get(c.foreign_table) for c in candidates]
    tasks = []
    for foreign, candidate, child_rng in zip(foreigns, candidates, child_rngs):
        # ship only the key columns of the base: the join match depends on
        # nothing else, and a process worker then never pickles feature data
        base_view = base.select(list(dict.fromkeys(candidate.base_columns)))
        tasks.append((base_view, foreign, candidate, soft_strategy, time_resample, child_rng))
    # submit widest tables first (LPT scheduling) to minimise pool makespan;
    # results are mapped back to candidate order before merging
    if widths is None or len(widths) != len(candidates):
        widths = [foreign.num_columns for foreign in foreigns]
    order = longest_first_order(widths)
    mapped = executor.map(_contributed_columns, [tasks[i] for i in order])
    results: list[list[Column]] = [[] for _ in tasks]
    for rank, index in enumerate(order):
        results[index] = mapped[rank]

    out_columns = list(base.columns())
    existing = set(base.column_names)
    added_per_candidate: list[list[str]] = []
    for new_columns in results:
        added = []
        for col in new_columns:
            name = unique_name(col.name, existing, suffix)
            if name != col.name:
                col = col.rename(name)
            existing.add(name)
            out_columns.append(col)
            added.append(name)
        added_per_candidate.append(added)
    return Table(out_columns, name=base.name), added_per_candidate
