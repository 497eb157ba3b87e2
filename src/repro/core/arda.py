"""The ARDA system: end-to-end automatic relational data augmentation.

Given a base table (with a prediction target), a repository of candidate
tables and a collection of candidate joins, :class:`ARDA` produces an augmented
table containing all original columns plus the foreign columns that actually
improve a predictive model, following the workflow of section 3 of the paper:

1. (optional) discover candidate joins if none are supplied,
2. (optional) pre-filter candidates with the Tuple-Ratio rule,
3. build a coreset of base-table rows,
4. build a join plan (budget batching by default),
5. for each batch: execute the joins, impute, encode, and run feature
   selection (RIFS by default) to decide which foreign columns to keep,
6. materialise the kept columns (onto the full base table, or its coreset
   for a chunked base, optionally streaming the full output to disk) and
   train the final estimator to measure the achieved augmentation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.coreset import make_coreset_builder
from repro.coreset.base import default_coreset_size
from repro.core.config import ARDAConfig
from repro.core.executor import make_executor
from repro.core.join_execution import (
    iter_replay_kept_joins,
    join_candidates_detailed,
    replay_kept_joins,
)
from repro.core.join_plan import build_join_plan
from repro.core.results import AugmentationReport, BatchReport
from repro.datasets.bundle import AugmentationDataset
from repro.discovery.candidates import JoinCandidate
from repro.discovery.discovery import JoinDiscovery
from repro.discovery.repository import DataRepository, RepositorySnapshot
from repro.ml.automl import AutoMLSearch
from repro.relational.encoding import encode_features_binned, to_design_matrix
from repro.relational.imputation import impute_table
from repro.relational.join import StreamJoinStats, as_chunk_source
from repro.relational.persist import write_table_stream
from repro.relational.table import Table
from repro.selection import make_selector
from repro.selection.base import default_estimator, holdout_score, infer_task
from repro.selection.tuple_ratio import TupleRatioFilter

if TYPE_CHECKING:  # avoid a runtime core <-> serving import cycle
    from repro.serving.pipeline import FittedPipeline


@dataclass
class _Selection:
    """What the batch loop decided: the kept columns and how to replay them."""

    kept_columns: list[str] = field(default_factory=list)
    # (candidate, kept positions within its added columns, loop-time names)
    kept_specs: list[tuple[JoinCandidate, list[int], list[str]]] = field(
        default_factory=list
    )
    spec_batches: list[int] = field(default_factory=list)  # batch that kept each spec
    batches: list[BatchReport] = field(default_factory=list)
    join_time: float = 0.0
    selection_time: float = 0.0


class ARDA:
    """Automatic relational data augmentation system."""

    def __init__(self, config: ARDAConfig | None = None):
        self.config = config or ARDAConfig()
        # the repository opened from config.repository_dir, kept across
        # augment calls so sweeps reuse the warm catalog, LRU and profiles
        self._opened_repository: DataRepository | None = None
        self._opened_repository_key: tuple | None = None

    # -- public API -----------------------------------------------------------------

    def augment(self, dataset: AugmentationDataset) -> AugmentationReport:
        """Run the full pipeline on a prepared :class:`AugmentationDataset`."""
        return self.augment_tables(
            base_table=dataset.base_table,
            repository=dataset.repository,
            target=dataset.target,
            candidates=dataset.candidates or None,
            task=dataset.task,
            soft_key_columns=dataset.soft_key_columns,
            dataset_name=dataset.name,
        )

    def augment_tables(
        self,
        base_table: Table,
        repository: DataRepository | RepositorySnapshot | None,
        target: str,
        candidates: list[JoinCandidate] | None = None,
        task: str | None = None,
        soft_key_columns: list[str] | None = None,
        dataset_name: str = "",
        augmented_path: str | Path | None = None,
    ) -> AugmentationReport:
        """Run the full pipeline on raw tables.

        ``candidates`` may be omitted, in which case join discovery is run over
        the repository first (the paper's normal mode is to consume an external
        discovery system's output).  ``repository`` may also be omitted
        (``None``) when ``config.repository_dir`` names a directory of binary
        table files: the pipeline then opens it as a lazy disk-backed
        repository with ``config.lru_tables`` decoded tables kept alive.

        The whole run reads one pinned manifest generation
        (:meth:`~repro.discovery.repository.DataRepository.snapshot`): a
        concurrent ``replace``/``remove`` on the repository can never hand
        discovery one version of a table and the final materialisation
        another.  Pass a :class:`~repro.discovery.repository.RepositorySnapshot`
        directly to control the pinned generation yourself.

        ``base_table`` is a :class:`Table` or a chunked table source
        (:class:`~repro.relational.persist.ChunkedTableReader`); both run the
        same stages.  With ``augmented_path``, the kept joins stream over every
        base chunk into that file
        (:func:`~repro.core.join_execution.iter_replay_kept_joins`, peak memory
        one chunk per kept join plus the build sides) and ``stream_stats``
        records the per-table pruning.  The base kind decides one thing: the
        table the report materialises and scores — the full base for a
        :class:`Table`, the coreset for a chunked source (never materialised).
        """
        config = self.config
        start = time.perf_counter()
        repository = self._resolve_repository(repository)
        if isinstance(repository, DataRepository):
            # the pin is dropped when this snapshot goes out of scope at the
            # end of the call (weakref-finalised), or — if a pipeline capture
            # binds it — when the captured pipeline is dropped
            repository = repository.snapshot()
        if target not in base_table:
            raise KeyError(f"target column {target!r} not found in base table")
        if task is None:
            from repro.relational.encoding import encode_target

            task = infer_task(encode_target(base_table.column(target)))
        dataset_name = dataset_name or base_table.name

        # one executor serves the whole call: discovery's profile shards and
        # the join batches
        executor = make_executor(config.executor, config.n_jobs)
        try:
            discovery_time = 0.0
            if candidates is None:
                discovery_start = time.perf_counter()
                candidates = self._discover(
                    base_table, repository, target, soft_key_columns, executor
                )
                discovery_time = time.perf_counter() - discovery_start
            candidates = list(candidates)
            tables_considered = len(candidates)
            candidates = self._tuple_ratio_filter(base_table, repository, candidates)

            coreset_start = time.perf_counter()
            coreset = self._build_coreset(base_table, target)
            coreset_time = time.perf_counter() - coreset_start
            score_base = base_table if isinstance(base_table, Table) else coreset

            selection = self._select_batches(
                coreset, repository, candidates, target, task, executor
            )
            join_start = time.perf_counter()
            augmented, out_path, stream_stats = self._materialise(
                base_table, score_base, repository, selection.kept_specs,
                executor, augmented_path,
            )
            join_time = selection.join_time + time.perf_counter() - join_start
        finally:
            executor.shutdown()

        fit_start = time.perf_counter()
        base_score, augmented_score, pipeline = self._final_fit(
            score_base, augmented, selection, repository, target, task, dataset_name
        )
        fit_time = time.perf_counter() - fit_start

        report = AugmentationReport(
            dataset_name=dataset_name,
            task=task,
            base_score=base_score,
            augmented_score=augmented_score,
            augmented_table=augmented,
            kept_columns=selection.kept_columns,
            kept_tables=sorted({spec[0].foreign_table for spec in selection.kept_specs}),
            batches=selection.batches,
            tables_considered=tables_considered,
            tables_filtered_out=tables_considered - len(candidates),
            total_time=time.perf_counter() - start,
            selection_time=selection.selection_time,
            join_time=join_time,
            discovery_time=discovery_time,
            coreset_time=coreset_time,
            fit_time=fit_time,
            executor=executor.name,
            pipeline=pipeline,
            augmented_path=out_path,
            stream_stats=stream_stats,
        )
        report.record_metrics()
        return report

    # -- stages -----------------------------------------------------------------------

    def _discover(
        self, base_table, repository, target, soft_key_columns, executor
    ) -> list[JoinCandidate]:
        """Join discovery over the repository (when no candidates are given).

        Profiling shards fan out over ``executor``; rankings are
        byte-identical to serial, so this changes wall-clock only.
        """
        config = self.config
        discovery = JoinDiscovery(use_cache=config.cache_profiles)
        candidates = discovery.discover(
            base_table,
            repository,
            target=target,
            soft_key_columns=soft_key_columns,
            executor=executor,
        )
        if config.persist_profiles and repository.is_disk_backed:
            # the next process serves every discovery profile from the
            # sidecar without reading a single table body; a repository on
            # read-only storage just skips the save (best effort)
            try:
                repository.save_profiles()
            except OSError:
                pass
        return candidates

    def _tuple_ratio_filter(self, base_table, repository, candidates) -> list[JoinCandidate]:
        """The Tuple-Ratio pre-filter of Table 4 (a no-op when ``tuple_ratio_tau`` is unset)."""
        if self.config.tuple_ratio_tau is None:
            return candidates
        tr_filter = TupleRatioFilter(tau=self.config.tuple_ratio_tau)
        keep, _decisions = tr_filter.filter_candidates(
            base_table.num_rows,
            [(repository.get(c.foreign_table), c.foreign_columns) for c in candidates],
        )
        return [candidates[i] for i in keep]

    def _build_coreset(self, base_table, target: str) -> Table:
        """The base-row sample the join batches and feature selection run on.

        The builder samples row indices from the target column and gathers
        them with ``take``, which on a chunked reader reads only the chunks
        holding sampled rows.  ``"none"`` (or a coreset at least as large as
        the base) materialises the whole base — that is what was asked for.
        """
        config = self.config
        size = config.coreset_size or default_coreset_size(base_table.num_rows)
        if config.coreset_strategy == "none" or size >= base_table.num_rows:
            return as_chunk_source(base_table).table()
        builder = make_coreset_builder(
            config.coreset_strategy, random_state=config.random_state
        )
        return builder.reduce_table(base_table, size, target=target)

    def _select_batches(
        self, coreset: Table, repository, candidates, target: str, task: str, executor
    ) -> _Selection:
        """Plan the join batches and run feature selection on each over the coreset."""
        config = self.config
        budget = config.budget if config.budget is not None else max(coreset.num_rows, 50)
        batches = build_join_plan(
            candidates, repository, strategy=config.join_plan, budget=budget
        )
        estimator = self._make_selection_estimator(task)
        rng = np.random.default_rng(config.random_state)
        selector = make_selector(
            config.selector, random_state=config.random_state, **self._selector_options()
        )
        # selectors that advertise accepts_binned get the table's quantised
        # design matrix alongside the float one (same feature layout), so the
        # histogram kernel reads categorical dictionary codes straight into
        # bin codes without ever materialising decoded strings; the probe asks
        # the configured instance so an all-exact custom ranker list doesn't
        # pay for a binning pass it would discard
        binned_probe = getattr(selector, "uses_binned_matrix", None)
        share_binned = (
            getattr(selector, "accepts_binned", False)
            and callable(binned_probe)
            and binned_probe(task)
        )

        selection = _Selection()
        working = coreset
        for batch_index, batch in enumerate(batches):
            join_start = time.perf_counter()
            joined, added_per_candidate = join_candidates_detailed(
                working,
                repository,
                batch.candidates,
                soft_strategy=config.soft_join,
                time_resample=config.time_resample,
                rng=rng,
                executor=executor,
                widths=batch.feature_counts,
            )
            batch_join_time = time.perf_counter() - join_start
            selection.join_time += batch_join_time
            foreign_columns = [name for names in added_per_candidate for name in names]
            if not foreign_columns:
                continue

            imputed = impute_table(joined, seed=config.random_state)
            X, y, encoding = to_design_matrix(
                imputed,
                target,
                max_categories=config.max_categories,
                seed=config.random_state,
            )
            foreign_set = set(foreign_columns)
            selection_start = time.perf_counter()
            if share_binned:
                # the table is imputed two lines up, so the binning pass
                # skips its own (idempotent) imputation
                binned = encode_features_binned(
                    imputed,
                    exclude=[target],
                    max_categories=config.max_categories,
                    impute=False,
                    seed=config.random_state,
                    max_bins=config.max_bins,
                )
                result = selector.select(
                    X, y, task=task, estimator=estimator, binned=binned
                )
            else:
                result = selector.select(X, y, task=task, estimator=estimator)
            selection.selection_time += time.perf_counter() - selection_start

            selected_sources = {encoding.source_columns[i] for i in result.selected}
            newly_kept = [name for name in foreign_columns if name in selected_sources]
            batch_score = holdout_score(
                X[:, result.selected], y, task, estimator=estimator,
                random_state=config.random_state,
            ) if len(result.selected) else -np.inf
            selection.batches.append(
                BatchReport(
                    batch_index=batch_index,
                    table_names=batch.table_names,
                    columns_considered=len(foreign_columns),
                    columns_kept=newly_kept,
                    selection_time=result.elapsed,
                    holdout_score=float(batch_score),
                    join_time=batch_join_time,
                )
            )
            if newly_kept:
                selection.kept_columns.extend(newly_kept)
                newly_kept_set = set(newly_kept)
                for candidate, added in zip(batch.candidates, added_per_candidate):
                    positions = [i for i, name in enumerate(added) if name in newly_kept_set]
                    if positions:
                        selection.kept_specs.append(
                            (candidate, positions, [added[i] for i in positions])
                        )
                        selection.spec_batches.append(batch_index)
                # carry the kept columns forward so later batches can find
                # co-predictors that span tables
                carry = [c for c in joined.column_names if c not in foreign_set or c in newly_kept]
                working = joined.select(carry)
        return selection

    def _materialise(
        self, base_table, score_base: Table, repository, kept_specs, executor, augmented_path
    ) -> tuple[Table, Path | None, dict[str, StreamJoinStats] | None]:
        """Replay the kept joins on the score base; stream them to ``augmented_path``.

        The in-memory replay uses the same positional-match/pinned-name kernel
        serving uses (see :func:`~repro.core.join_execution.replay_kept_joins`).
        With a path, the kept joins also run chunk by chunk over the whole
        base into that file.  Returns the replayed table, the written path and
        the per-foreign-table streaming stats (both ``None`` without a path).
        """
        config = self.config
        replay = {
            "soft_strategy": config.soft_join,
            "time_resample": config.time_resample,
            "executor": executor,
        }
        augmented = replay_kept_joins(
            score_base, repository, kept_specs,
            rng=np.random.default_rng(config.random_state), **replay,
        )
        if augmented_path is None:
            return augmented, None, None
        stats: dict[str, StreamJoinStats] = {}
        chunks = iter_replay_kept_joins(
            base_table, repository, kept_specs,
            rng=np.random.default_rng(config.random_state),
            chunk_rows=config.chunk_rows,
            memory_budget=config.memory_budget,
            spill_partitions=config.spill_partitions,
            spill_dir=config.spill_dir,
            stats=stats,
            **replay,
        )
        write_table_stream(
            augmented_path, chunks, name=base_table.name, chunk_rows=config.chunk_rows
        )
        return augmented, Path(augmented_path), stats

    def _final_fit(
        self, score_base: Table, augmented: Table, selection: _Selection, repository,
        target: str, task: str, dataset_name: str,
    ) -> tuple[float, float, "FittedPipeline | None"]:
        """Base and augmented holdout scores, plus the captured pipeline."""
        config = self.config
        base_score = self._final_score(score_base, target, task)
        has_features = any(name != target for name in augmented.column_names)
        if not (config.capture_pipeline and has_features):
            return base_score, self._final_score(augmented, target, task), None
        # the capture path fits imputer/encoder through the serving kernels,
        # which reproduce impute_table + to_design_matrix byte-for-byte — the
        # holdout score below is therefore identical to
        # _final_score(augmented, ...)
        from repro.serving.pipeline import fit_pipeline_from_training

        pipeline, X_full, y_full = fit_pipeline_from_training(
            target=target,
            task=task,
            base_table=score_base,
            augmented_table=augmented,
            kept_specs=selection.kept_specs,
            repository=repository,
            # always the selection forest: forests round-trip through the
            # artifact bit-exactly, while an AutoML winner (which still drives
            # the reported score below) can be any unserialisable model family
            estimator=self._make_selection_estimator(task),
            seed=config.random_state,
            soft_strategy=config.soft_join,
            time_resample=config.time_resample,
            max_categories=config.max_categories,
            batch_of_spec=dict(enumerate(selection.spec_batches)),
            metadata={"dataset": dataset_name},
        )
        augmented_score = holdout_score(
            X_full,
            y_full,
            task,
            estimator=self._make_final_estimator(task),
            test_size=config.test_size,
            random_state=config.random_state,
        )
        return base_score, augmented_score, pipeline

    # -- helpers ----------------------------------------------------------------------

    def _resolve_repository(
        self, repository: DataRepository | RepositorySnapshot | None
    ) -> DataRepository | RepositorySnapshot:
        """Use the given repository, or open the configured disk-backed one.

        The opened repository is cached on this instance, so repeated
        ``augment`` calls in one process reuse the warm catalog, decoded-table
        LRU and profile cache instead of re-reading headers and sidecar.
        """
        if repository is not None:
            return repository
        if self.config.repository_dir is None:
            raise ValueError(
                "no repository given and ARDAConfig.repository_dir is not set"
            )
        key = (str(self.config.repository_dir), self.config.lru_tables)
        if self._opened_repository is None or self._opened_repository_key != key:
            self._opened_repository = DataRepository.open(
                self.config.repository_dir, lru_tables=self.config.lru_tables
            )
            self._opened_repository_key = key
        return self._opened_repository

    def _selector_options(self) -> dict:
        """Selector kwargs from config; RIFS inherits the engine-level knobs.

        Explicit ``selector_options`` always win; the executor kind and
        ``n_jobs`` are shared with the join engine and size the round fan-out.
        """
        config = self.config
        options = dict(config.selector_options)
        key = config.selector.strip().lower()
        if key in ("rifs", "random forest"):
            # forest-backed selectors train on the configured split kernel;
            # other selectors' holdout scoring already gets it via the
            # estimator this class builds
            options.setdefault("tree_method", config.tree_method)
            options.setdefault("max_bins", config.max_bins)
        if key == "rifs":
            options.setdefault("executor", config.executor)
            options.setdefault("n_jobs", config.n_jobs)
        return options

    def _make_selection_estimator(self, task: str):
        """The (cheap) estimator used inside feature-selection search loops."""
        options = dict(self.config.estimator_options)
        n_estimators = options.get("n_estimators", 20)
        return default_estimator(
            task,
            random_state=self.config.random_state,
            n_estimators=n_estimators,
            tree_method=self.config.tree_method,
            max_bins=self.config.max_bins,
        )

    def _make_final_estimator(self, task: str):
        """The final estimator used for the reported scores."""
        if self.config.estimator == "automl":
            automl_task = "classification" if task == "classification" else "regression"
            options = {"time_budget": 15.0, "max_trials": 8}
            options.update(self.config.estimator_options)
            return AutoMLSearch(
                task=automl_task, random_state=self.config.random_state, **options
            )
        return self._make_selection_estimator(task)

    def _final_score(self, table: Table, target: str, task: str) -> float:
        """Holdout score of the final estimator on a materialised table."""
        X, y, _encoding = to_design_matrix(
            impute_table(table, seed=self.config.random_state),
            target,
            max_categories=self.config.max_categories,
            seed=self.config.random_state,
        )
        return holdout_score(
            X,
            y,
            task,
            estimator=self._make_final_estimator(task),
            test_size=self.config.test_size,
            random_state=self.config.random_state,
        )
