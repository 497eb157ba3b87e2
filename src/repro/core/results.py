"""Result objects returned by the ARDA pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.relational.table import Table

if TYPE_CHECKING:  # avoid a runtime core <-> serving import cycle
    from repro.relational.join import StreamJoinStats
    from repro.serving.pipeline import FittedPipeline


@dataclass
class BatchReport:
    """What happened when one join-plan batch was evaluated."""

    batch_index: int
    table_names: list[str]
    columns_considered: int
    columns_kept: list[str]
    selection_time: float
    holdout_score: float
    join_time: float = 0.0


@dataclass
class AugmentationReport:
    """The full outcome of one ARDA run.

    Scores are "higher is better" (accuracy for classification, R^2 for
    regression) measured on a holdout split of the *full* base table with the
    final estimator; error metrics for regression reporting are derived by the
    evaluation harness.

    ``pipeline`` carries the fitted serving artifact
    (:class:`~repro.serving.pipeline.FittedPipeline`) when
    ``ARDAConfig.capture_pipeline`` is on: the accepted join plan, fitted
    encoders/imputers, selected features with provenance and the trained
    estimator, ready for ``save()`` and out-of-process inference.
    """

    dataset_name: str
    task: str
    base_score: float
    augmented_score: float
    augmented_table: Table
    kept_columns: list[str] = field(default_factory=list)
    kept_tables: list[str] = field(default_factory=list)
    batches: list[BatchReport] = field(default_factory=list)
    tables_considered: int = 0
    tables_filtered_out: int = 0
    total_time: float = 0.0
    selection_time: float = 0.0
    join_time: float = 0.0
    discovery_time: float = 0.0
    coreset_time: float = 0.0
    fit_time: float = 0.0
    executor: str = "serial"
    pipeline: "FittedPipeline | None" = None
    # runs given an ``augmented_path``: where the full augmented table was
    # streamed to, and per-foreign-table streaming-join accounting (chunks
    # probed vs pruned).  For a chunked base ``augmented_table`` holds the
    # coreset materialisation, and the scores are coreset-level.
    augmented_path: Path | None = None
    stream_stats: "dict[str, StreamJoinStats] | None" = None

    @property
    def improvement(self) -> float:
        """Absolute score improvement of augmentation over the base table."""
        return self.augmented_score - self.base_score

    @property
    def relative_improvement(self) -> float:
        """Score improvement relative to the base-table score (paper's % metric)."""
        if self.base_score == 0:
            return 0.0
        return (self.augmented_score - self.base_score) / abs(self.base_score)

    def stage_breakdown(self) -> dict[str, float]:
        """Wall-clock seconds per pipeline stage.

        ``selection_s`` is feature selection (RIFS) over the coreset batches,
        ``fit_s`` is training/scoring the final estimator on the full base and
        augmented tables, and ``other_s`` is the remainder of the total not
        attributed to a named stage (imputation, encoding, bookkeeping).
        """
        accounted = (
            self.discovery_time
            + self.coreset_time
            + self.join_time
            + self.selection_time
            + self.fit_time
        )
        return {
            "discovery_s": self.discovery_time,
            "coreset_s": self.coreset_time,
            "join_s": self.join_time,
            "selection_s": self.selection_time,
            "fit_s": self.fit_time,
            "other_s": max(0.0, self.total_time - accounted),
            "total_s": self.total_time,
        }

    def record_metrics(self, registry=None) -> None:
        """Record this run into a metrics registry.

        Stage wall-clock times go into ``arda.stage.*`` histograms (one
        observation per stage per run), the run itself increments
        ``arda.runs``, and any streaming-join accounting is added via
        :meth:`~repro.relational.join.StreamJoinStats.record_to`.  The
        registry defaults to the process-wide
        :func:`repro.observability.get_registry`; ``ARDA.augment`` calls this
        once per run, so a resident server's ``/metrics`` endpoint reports
        training activity alongside serving traffic.  The report's own
        fields and :meth:`stage_breakdown` are unchanged by this.
        """
        from repro.observability import get_registry

        registry = registry if registry is not None else get_registry()
        registry.counter("arda.runs").inc()
        registry.record_timings("arda.stage", self.stage_breakdown())
        if self.stream_stats:
            for stats in self.stream_stats.values():
                stats.record_to(registry)

    def summary(self) -> dict:
        """Compact dictionary used by reports and tests."""
        return {
            "dataset": self.dataset_name,
            "task": self.task,
            "base_score": round(self.base_score, 4),
            "augmented_score": round(self.augmented_score, 4),
            "improvement": round(self.improvement, 4),
            "kept_columns": len(self.kept_columns),
            "kept_tables": len(self.kept_tables),
            "tables_considered": self.tables_considered,
            "total_time_s": round(self.total_time, 2),
            "join_time_s": round(self.join_time, 2),
            "selection_time_s": round(self.selection_time, 2),
            "executor": self.executor,
        }
