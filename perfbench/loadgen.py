"""Open-loop load generation and the rules that judge its results.

Requests are due on a fixed schedule (request ``i`` at ``start + i / rate``)
whatever the server does, so a slow server builds a queue instead of
receiving less load.  At most ``connections`` keep-alive clients send; a
client that is free takes the next due request, sleeps until it is due and
sends it.  Each request is timed from when it was due, so a stall is charged
to every request it delays, and how late the generator sent (``lag``) is
reported alongside.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and its status."""

    due: float
    sent: float
    done: float
    status: str  # "ok", "wrong" (answer differs from offline), "http_<code>", "error"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_s(self) -> float:
        """Seconds from due to answered; a failed request misses every limit."""
        return self.done - self.due if self.ok else math.inf


def run_open_loop(make_client, rate: float, n_requests: int, connections: int,
                  timeout_s: float = 120.0) -> list[Outcome]:
    """Send ``n_requests`` on a ``rate``-per-second schedule.

    ``make_client()`` is called once per connection thread and returns an
    object with ``call(index) -> status`` and ``close()``; ``call`` raising
    counts as status ``"error"``.
    """
    if rate <= 0 or n_requests < 1 or connections < 1:
        raise ValueError("need a positive rate, requests and connections")
    start = time.perf_counter() + 0.05
    outcomes: list[Outcome | None] = [None] * n_requests
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        client = make_client()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= n_requests:
                    return
                due = start + index / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    status = client.call(index)
                except Exception as exc:  # noqa: BLE001 - a failed request is data
                    status = f"error:{type(exc).__name__}"
                outcomes[index] = Outcome(due, sent, time.perf_counter(), status)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    deadline = time.perf_counter() + n_requests / rate + timeout_s
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("load generator did not finish its schedule in time")
    return [o for o in outcomes if o is not None]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (exact on ``inf``, which marks a failure)."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def backlog_series(outcomes: list[Outcome], samples: int = 20) -> list[int]:
    """Requests due but not yet answered, at evenly spaced instants.

    The instants span the schedule from the first to the last due time, so
    the series shows the queue over the window in which load was offered.
    """
    if not outcomes:
        return []
    dues = sorted(o.due for o in outcomes)
    dones = sorted(o.done for o in outcomes)
    first, last = dues[0], dues[-1]
    series = []
    for k in range(samples):
        t = first + (last - first) * (k + 1) / samples
        due_by = _count_le(dues, t)
        done_by = _count_le(dones, t)
        series.append(due_by - done_by)
    return series


def _count_le(ordered: list[float], t: float) -> int:
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] <= t:
            lo = mid + 1
        else:
            hi = mid
    return lo


def growing_backlog(series: list[int], connections: int, n_requests: int) -> bool:
    """Whether the queue rose across the window.

    Compares the mean depth over the last quarter of the samples with the
    first quarter.  A server that keeps up holds the depth near its
    in-flight count; one that does not falls behind by ``rate - capacity``
    requests every second.  The allowance — twice the connection count or
    2% of the requests, whichever is larger — absorbs a passing stall.
    """
    if len(series) < 4:
        return False
    quarter = len(series) // 4
    head = sum(series[:quarter]) / quarter
    tail = sum(series[-quarter:]) / quarter
    return tail - head > max(2 * connections, 0.02 * n_requests)


@dataclass
class Rung:
    """One measured rate of the ladder."""

    rate: float
    p50_ms: float
    p95_ms: float
    failed: int
    growing: bool


def summarize(rate: float, outcomes: list[Outcome], connections: int) -> Rung:
    latencies = [o.latency_s for o in outcomes]
    return Rung(
        rate=rate,
        p50_ms=quantile(latencies, 0.50) * 1e3,
        p95_ms=quantile(latencies, 0.95) * 1e3,
        failed=sum(1 for o in outcomes if not o.ok),
        growing=growing_backlog(backlog_series(outcomes), connections, len(outcomes)),
    )


def passes(rung: Rung, p95_limit_ms: float) -> bool:
    return rung.p95_ms <= p95_limit_ms and not rung.growing


def max_rate(rungs: list[Rung], p95_limit_ms: float) -> float:
    """Highest rate of an ascending ladder that passes with every rate below it.

    A rate passes when its p95 (failures counted as misses) meets the limit
    and its backlog does not grow.  0.0 when the lowest rate already fails.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not passes(rung, p95_limit_ms):
            break
        best = rung.rate
    return best
