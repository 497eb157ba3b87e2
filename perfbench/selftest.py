"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "augment-quickstart": workloads.QuickstartSizes(
        rows=120, entities=30, noise_tables=2, n_rounds=2, min_calls=1, predict_rows=20,
    ),
    "augment-corpus": workloads.CorpusSizes(
        base_rows=3_000, planted=2, decoys=2, noise_tables=3, keys=100,
        base_chunk_rows=512, lake_chunk_rows=256, lru_tables=4, coreset_rows=200,
        memory_budget=16_000, predict_rows=5,
    ),
    "serve-steady": workloads.ServeSizes(
        base_rows=300, keys=60, coreset_rows=100, request_rows=64, nominal_rps=20.0,
        hold_requests=40, ladder_rps=(30.0,), ladder_requests=30, warmup_requests=5,
    ),
    "serve-ingest": workloads.ServeSizes(
        base_rows=300, keys=60, coreset_rows=100, request_rows=64, nominal_rps=20.0,
        hold_requests=120, warmup_requests=5, ingest_rows=16,
    ),
}


# -- every workload emits every named metric -----------------------------------


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(tmp_path, name, trace):
    run, _ = workloads.WORKLOADS[name]
    ctx = workloads.Context(
        root=ROOT, work=tmp_path / "work", traces=tmp_path / "traces",
        seed=3, seconds=3.0, trace=trace,
    )
    ctx.work.mkdir()
    result = run(ctx, TINY[name])
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    metrics = result.metrics(trace)
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(isinstance(v["value"], float) for v in metrics.values())
    if trace:
        assert sorted(p.name for p in ctx.traces.iterdir()) == [
            f"{name}-s3.chrome.json", f"{name}-s3.spans.json"]
        assert metrics["trace.overhead_frac"]["value"] > 0
    else:
        for metric in ("setup_s", "latency_p50_ms", "peak_rss_mb", "discovery_recall"):
            assert metrics[metric]["value"] > 0, metric


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.PER_LAYER


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- self time ------------------------------------------------------------------


def _span(span_id, name, start, end, parent):
    return spans.Span(span_id, name, start, end, parent, "r", 0)


def test_self_time_is_exact_on_a_synthetic_tree():
    tree = [
        _span(0, "root", 0, 100, None),
        _span(1, "a", 10, 40, 0),
        _span(2, "b", 30, 60, 0),     # overlaps a: a worker thread's sibling
        _span(3, "a1", 15, 20, 1),
        _span(4, "c", 90, 120, 0),    # runs past its parent: clipped
        _span(5, "a", 70, 75, 0),
    ]
    own = spans.self_times(tree)
    assert own[0] == (100 - (60 - 10) - (75 - 70) - (100 - 90)) / 1e9
    assert own[1] == (30 - 5) / 1e9
    assert own[2] == 30 / 1e9
    assert own[3] == 5 / 1e9
    assert own[4] == 30 / 1e9
    layers = spans.layer_self_seconds(tree)
    assert layers["a"] == own[1] + own[5]
    assert spans.covered_ns([(5, 8), (0, 3), (2, 6)], 1, 7) == 6


def test_worker_thread_spans_hang_under_the_dispatching_span():
    recorder = spans.SpanRecorder("r")
    with recorder.span("outer") as outer:
        worker = threading.Thread(target=lambda: recorder.wrap("inner", lambda: None)())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == outer
    assert by_name["outer"].parent is None
    chrome = recorder.to_chrome()["traceEvents"]
    assert {e["name"] for e in chrome} == {"outer", "inner"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in chrome)


# -- open-loop rules -------------------------------------------------------------


def _series(rate, n, service_s, fail_every=0):
    """Outcomes of a FIFO server with a fixed service time under an open loop."""
    outcomes, free_at = [], 0.0
    for i in range(n):
        due = i / rate
        done = max(due, free_at) + service_s
        free_at = done
        status = "http_503" if fail_every and i % fail_every == 0 else "ok"
        outcomes.append(loadgen.Outcome(due, due, done, status))
    return outcomes


def test_backlog_detection():
    keeping_up = _series(rate=100, n=1000, service_s=0.005)
    falling_behind = _series(rate=100, n=1000, service_s=0.012)
    assert not loadgen.growing_backlog(loadgen.backlog_series(keeping_up), 2, 1000)
    assert loadgen.growing_backlog(loadgen.backlog_series(falling_behind), 2, 1000)
    steady = loadgen.summarize(100, keeping_up, 2)
    assert steady.p50_ms == pytest.approx(5.0) and steady.p95_ms == pytest.approx(5.0)
    assert not steady.growing and steady.failed == 0


def test_failures_count_as_misses():
    outcomes = _series(rate=100, n=1000, service_s=0.005, fail_every=10)
    rung = loadgen.summarize(100, outcomes, 2)
    assert rung.failed == 100
    assert rung.p95_ms == float("inf")
    assert not loadgen.passes(rung, p95_limit_ms=1000)


def test_max_rate_rule():
    def rung(rate, p95, growing=False):
        return loadgen.Rung(rate, p95 / 2, p95, 0, growing)

    ladder = [rung(25, 10), rung(35, 50), rung(45, 20, growing=True), rung(55, 20)]
    assert loadgen.max_rate(ladder, p95_limit_ms=100) == 35
    assert loadgen.max_rate(ladder, p95_limit_ms=40) == 25
    assert loadgen.max_rate([rung(25, 500)], p95_limit_ms=100) == 0.0
    assert loadgen.max_rate(list(reversed(ladder[:2])), p95_limit_ms=100) == 35


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert loadgen.quantile(values, 0.5) == 50.0
    assert loadgen.quantile(values, 0.95) == 95.0
    assert loadgen.quantile([3.0], 0.99) == 3.0


def test_open_loop_keeps_its_schedule():
    class Client:
        def call(self, index):
            return "ok"

        def close(self):
            pass

    outcomes = loadgen.run_open_loop(Client, rate=200, n_requests=100, connections=2)
    assert len(outcomes) == 100
    dues = [o.due for o in outcomes]
    assert dues == sorted(dues)
    assert dues[-1] - dues[0] == pytest.approx(99 / 200)
    assert all(o.ok and o.done >= o.sent >= o.due - 1e-3 for o in outcomes)
