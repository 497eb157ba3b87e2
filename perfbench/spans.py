"""Span recording for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, by wrapping the public
functions that :class:`repro.ARDA` calls (see :func:`instrument`); nothing
under ``src/`` is touched.  A span has a name, a start, an end, the span that
caused it and the run it belongs to.  Spans stay in memory and are written
once, at the end, as plain JSON and as Chrome trace-event JSON (viewable in
``chrome://tracing`` or Perfetto).

Parent rule: a span's parent is the innermost open span of its own thread.
A span opened on a worker thread with nothing open on that thread (RIFS and
join fan-out run on executor threads) takes the innermost open span of the
thread that created the recorder: the pool works only while that thread
waits inside the call that dispatched it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str
    thread: int


class SpanRecorder:
    """Collects spans in memory; thread-safe."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run_id,
                         threading.get_ident())
                )

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": s.span_id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "run_id": s.run_id,
                    "thread": s.thread,
                }
                for s in sorted(self.spans, key=lambda s: s.span_id)
            ],
        }

    def to_chrome(self) -> dict:
        """Chrome trace-event format: one complete ("X") event per span."""
        origin = min((s.start_ns for s in self.spans), default=0)
        return {
            "traceEvents": [
                {
                    "name": s.name,
                    "cat": s.name.split(".")[0],
                    "ph": "X",
                    "ts": (s.start_ns - origin) / 1e3,
                    "dur": (s.end_ns - s.start_ns) / 1e3,
                    "pid": 1,
                    "tid": s.thread,
                    "args": {"id": s.span_id, "parent": s.parent, "run_id": s.run_id},
                }
                for s in sorted(self.spans, key=lambda s: s.start_ns)
            ],
            "displayTimeUnit": "ms",
        }

    def write(self, directory: Path, stem: str) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        plain = directory / f"{stem}.spans.json"
        chrome = directory / f"{stem}.chrome.json"
        plain.write_text(json.dumps(self.to_json()))
        chrome.write_text(json.dumps(self.to_chrome()))
        return plain, chrome


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span's interval not covered by its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {
        s.span_id: (
            s.end_ns - s.start_ns
            - covered_ns(children.get(s.span_id, []), s.start_ns, s.end_ns)
        ) / 1e9
        for s in spans
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.span_id]
    return totals


def layer_table(totals: dict[str, float], names) -> str:
    """A printable self-time table naming every layer in ``names``."""
    width = max(len(name) for name in names)
    lines = [f"{'layer':<{width}}  self_s"]
    for name in sorted(names, key=lambda n: -totals.get(n, 0.0)):
        lines.append(f"{name:<{width}}  {totals.get(name, 0.0):8.4f}")
    return "\n".join(lines)


class Counters:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self):
        self._lock = threading.Lock()
        self.values: dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> float:
        return self.values.get(name, 0)


@contextlib.contextmanager
def patched(patches: list[tuple[object, str, object]]):
    """Set ``setattr(owner, attr, value)`` for each patch; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def capture_discovery(sink: list):
    """Append every list of join candidates discovery returns to ``sink``.

    This is the only hook untraced runs install: discovery recall is scored
    on what ARDA discovered, which the report does not carry.
    """
    from repro.discovery.discovery import JoinDiscovery

    original = JoinDiscovery.discover

    def discover(self, *args, **kwargs):
        found = original(self, *args, **kwargs)
        sink.append(list(found))
        return found

    with patched([(JoinDiscovery, "discover", discover)]):
        yield


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, counters: Counters):
    """Record spans around the public functions ARDA calls, layer by layer.

    Span names are the repository's module names (``discovery``,
    ``core.join_execution.join`` ...).  Counts: join-plan batches, forest
    fits, repository lookups and table decodes.
    """
    import repro.core.arda as arda
    import repro.discovery.repository as repository
    import repro.selection.rifs as rifs
    import repro.selection.search as search
    import repro.serving.pipeline as pipeline
    from repro.coreset.base import CoresetBuilder
    from repro.discovery.discovery import JoinDiscovery
    from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
    from repro.relational.persist import ChunkedTableReader

    wrap = recorder.wrap

    def counted(name: str, fn):
        def wrapper(*args, **kwargs):
            counters.add(name)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    original_plan = arda.build_join_plan

    def join_plan(*args, **kwargs):
        with recorder.span("core.join_plan"):
            batches = original_plan(*args, **kwargs)
        counters.add("core.join_plan.batches", len(batches))
        return batches

    original_discover = JoinDiscovery.discover

    def discover(self, *args, **kwargs):
        with recorder.span("discovery"):
            found = original_discover(self, *args, **kwargs)
        counters.add("discovery.candidates", len(found))
        return found

    original_make_selector = arda.make_selector

    def make_selector(*args, **kwargs):
        selector = original_make_selector(*args, **kwargs)
        selector.select = wrap("selection.select", selector.select)
        return selector

    holdout = wrap("selection.holdout", arda.holdout_score)
    encode = "relational.encode"
    patches = [
        (JoinDiscovery, "discover", discover),
        (repository.RepositorySnapshot, "get", counted(
            "discovery.repository.lookups",
            wrap("discovery.repository.get", repository.RepositorySnapshot.get))),
        (repository.DataRepository, "get", counted(
            "discovery.repository.lookups",
            wrap("discovery.repository.get", repository.DataRepository.get))),
        (repository, "read_table", counted(
            "discovery.repository.decodes", repository.read_table)),
        (CoresetBuilder, "reduce_table", wrap("coreset", CoresetBuilder.reduce_table)),
        (ChunkedTableReader, "take", wrap("coreset", ChunkedTableReader.take)),
        (arda, "build_join_plan", join_plan),
        (arda, "join_candidates_detailed",
         wrap("core.join_execution.join", arda.join_candidates_detailed)),
        (arda, "replay_kept_joins",
         wrap("core.join_execution.replay", arda.replay_kept_joins)),
        (arda, "impute_table", wrap(encode, arda.impute_table)),
        (arda, "to_design_matrix", wrap(encode, arda.to_design_matrix)),
        (arda, "encode_features_binned", wrap(encode, arda.encode_features_binned)),
        (arda, "make_selector", make_selector),
        (arda, "holdout_score", holdout),
        (search, "holdout_score", holdout),
        (rifs, "holdout_score", holdout),
        (RandomForestRegressor, "fit", counted(
            "ml.forest.fits", wrap("ml.forest.fit", RandomForestRegressor.fit))),
        (RandomForestClassifier, "fit", counted(
            "ml.forest.fits", wrap("ml.forest.fit", RandomForestClassifier.fit))),
        (arda, "write_table_stream",
         wrap("relational.persist.write_stream", arda.write_table_stream)),
        (pipeline, "fit_pipeline_from_training",
         wrap("serving.pipeline.capture", pipeline.fit_pipeline_from_training)),
    ]
    with patched(patches):
        yield
