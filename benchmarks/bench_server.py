"""Benchmarks for the resident serving server: latency and throughput.

Trains a pipeline once over a disk-backed repository (the same synthetic
workload as ``bench_serving.py``), starts a live
:class:`~repro.serving.server.PredictionServer` on an ephemeral port, and
measures real HTTP round trips:

* **requests-c1 / requests-c4 / requests-c16** — a fixed budget of
  single-row ``/predict`` requests issued by 1, 4 and 16 concurrent clients;
  the gated ``seconds`` is the wall-clock for the whole budget, and each
  row also reports client-observed **p50/p99 latency** and **rows/s**.
  Micro-batch coalescing is what keeps the concurrent legs from scaling
  wall-clock linearly with client count.
* **batch-1k** — one 1000-row batch ``/predict`` round trip.

Correctness is asserted alongside the timings: every served prediction must
be byte-identical to offline ``FittedPipeline.predict`` on the same rows.

Standalone on purpose (stdlib HTTP client, no extra dependencies) so CI can
smoke it:

    PYTHONPATH=src python benchmarks/bench_server.py --quick --json BENCH_server.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from bench_serving import build_base, build_foreign
from repro.core.arda import ARDA
from repro.core.config import ARDAConfig, ServingConfig
from repro.observability import MetricsRegistry
from repro.serving import FittedPipeline, PredictionServer


def _post(address: tuple[str, int], payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://{address[0]}:{address[1]}/predict",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        if response.status != 200:
            raise RuntimeError(f"predict returned HTTP {response.status}")
        return json.loads(response.read())


def run_client_level(
    address: tuple[str, int],
    rows: list[dict],
    expected: np.ndarray,
    clients: int,
    total_requests: int,
) -> dict:
    """Fire ``total_requests`` single-row requests from ``clients`` threads."""
    per_client = total_requests // clients
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[str] = []
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait()
        for i in range(per_client):
            row_index = (index * per_client + i) % len(rows)
            start = time.perf_counter()
            try:
                doc = _post(address, rows[row_index])
            except Exception as exc:  # noqa: BLE001 - recorded and reported
                errors.append(repr(exc))
                return
            latencies[index].append(time.perf_counter() - start)
            if doc["prediction"] != expected[row_index]:
                errors.append(
                    f"row {row_index}: served {doc['prediction']} != "
                    f"offline {expected[row_index]}"
                )
                return

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise AssertionError(f"{len(errors)} client failures: {errors[:3]}")
    flat = np.sort(np.concatenate([np.asarray(lat) for lat in latencies]))
    served = clients * per_client
    return {
        "bench": f"requests-c{clients}",
        "seconds": wall,
        "requests": served,
        "p50_ms": float(np.quantile(flat, 0.50)) * 1e3,
        "p99_ms": float(np.quantile(flat, 0.99)) * 1e3,
        "rows_s": served / wall,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument("--train-rows", type=int, default=20_000)
    parser.add_argument("--entities", type=int, default=500)
    parser.add_argument("--requests", type=int, default=640,
                        help="single-row request budget per concurrency level")
    parser.add_argument("--workers", type=int, default=2, help="scorer worker threads")
    parser.add_argument("--json", type=Path, default=None, help="write results as JSON")
    args = parser.parse_args()
    if args.quick:
        args.train_rows = min(args.train_rows, 5_000)
        args.requests = min(args.requests, 160)
    results: list[dict] = []

    workdir = Path(tempfile.mkdtemp(prefix="bench_server_"))
    try:
        lake = workdir / "lake"
        lake.mkdir()
        build_foreign(args.entities).save(lake / "signal.tbl")
        base = build_base(args.train_rows, args.entities)
        print(f"training on {args.train_rows} rows over disk-backed repository {lake}")
        report = ARDA(ARDAConfig(repository_dir=str(lake))).augment_tables(
            base, None, target="target"
        )
        pipeline = report.pipeline
        assert pipeline is not None and pipeline.joins, "training must keep the signal join"
        artifact = workdir / "model.pipeline"
        pipeline.save(artifact)

        serve_base = build_base(1024, args.entities, seed=9)
        rows = [serve_base.row(i) for i in range(serve_base.num_rows)]
        for row in rows:
            row.pop("target")
        from repro.discovery.repository import DataRepository
        from repro.relational.table import Table

        offline = FittedPipeline.load(artifact, repository=DataRepository.open(lake))
        types = {name: ctype for name, ctype in pipeline.base_schema}
        from repro.relational.schema import ColumnType

        expected = offline.predict(
            Table.from_rows(rows, types={k: ColumnType(v) for k, v in types.items()})
        )

        config = ServingConfig(
            port=0, workers=args.workers, reload_interval_s=0.0
        )
        with PredictionServer(
            artifact, repository=str(lake), config=config, registry=MetricsRegistry()
        ) as server:
            address = server.address
            print(f"server on http://{address[0]}:{address[1]} "
                  f"(workers={args.workers}, budget={args.requests} requests/level)")
            # one warmup round trip (connection setup, first join replay)
            _post(address, rows[0])

            for clients in (1, 4, 16):
                level = run_client_level(
                    address, rows, expected, clients, args.requests
                )
                results.append(level)
                print(
                    f"  {level['bench']:<13} {level['seconds'] * 1e3:8.1f}ms wall  "
                    f"p50={level['p50_ms']:6.2f}ms  p99={level['p99_ms']:6.2f}ms  "
                    f"{level['rows_s']:8.0f} rows/s"
                )

            batch_rows = rows[:1000]
            started = time.perf_counter()
            doc = _post(address, {"rows": batch_rows})
            batch_wall = time.perf_counter() - started
            assert np.array_equal(np.asarray(doc["predictions"]), expected[:1000]), (
                "batch predictions drifted from offline predict"
            )
            results.append(
                {
                    "bench": "batch-1k",
                    "seconds": batch_wall,
                    "requests": 1,
                    "rows_s": len(batch_rows) / batch_wall,
                }
            )
            print(
                f"  {'batch-1k':<13} {batch_wall * 1e3:8.1f}ms wall  "
                f"{len(batch_rows) / batch_wall:8.0f} rows/s"
            )
            snap = server.registry.snapshot()
            coalesced = snap["counters"]["server.requests"] / max(
                1.0, snap["counters"]["server.batches"]
            )
            print(f"  coalescing: {coalesced:.2f} requests/batch on average")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.json is not None:
        args.json.write_text(
            json.dumps({"suite": "server", "results": results}, indent=2)
        )
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
