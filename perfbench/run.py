"""End-to-end ARDA benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload augment-quickstart --seed 1 --seconds 10 --trace 0

Workloads: ``augment-quickstart``, ``augment-corpus``, ``serve-steady``,
``serve-ingest`` (see ``perfbench/workloads.py``).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced run
that reports per-layer self time, writing its spans to
``.perfbench/traces/`` as JSON and as Chrome trace events.  Human-readable
progress goes to standard error; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The run exits 1
when an output check fails and 2 when the program under test is missing.

The benchmark's own tests::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for knob in ("ARDA_CHUNK_ROWS", "ARDA_TREE_METHOD"):
        os.environ.pop(knob, None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run, sizes = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # temporary files (spill partitions, stream spills) stay in the checkout
    os.environ["TMPDIR"] = str(work)
    ctx = workloads.Context(
        root=ROOT, work=work, traces=ROOT / ".perfbench" / "traces",
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
    )
    ctx.say(workloads.sizes_line(args.workload))
    try:
        result = run(ctx, sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result.metrics(trace=bool(args.trace))
    for name, unit in {**workloads.END_TO_END, **workloads.PER_LAYER}.items():
        ctx.say(f"  {name:<40} {result.values.get(name, 0.0):14.6g} {unit}")
    for problem in result.problems:
        ctx.say(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
