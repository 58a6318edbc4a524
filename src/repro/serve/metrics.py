"""Lock-cheap serving metrics: counters, gauges, and streaming latency
histograms.

A heavy-traffic service needs per-endpoint observability — QPS, p50/p99
latency, batch-size distributions, cache hit rates — but the
instrumentation must not become a contention point itself.  This module
keeps the cost model explicit:

* :class:`Counter` — one mutex per counter, held for a single integer
  add.  No global lock is ever taken on the hot path.
* :class:`Histogram` — a streaming log-bucketed histogram: ``record`` is
  one ``log`` plus one bucket increment under the histogram's own lock,
  O(1) memory regardless of how many samples arrive.  Quantile
  estimates carry a bounded *relative* error set by the bucket growth
  factor (default 5% ⇒ p50/p99 within ~4% of the exact order
  statistic, verified by the property suite in
  ``tests/serve/test_metrics.py``).
* :class:`MetricsRegistry` — a name-keyed collection of the above with
  a single ``snapshot()`` that renders everything to a plain dict (the
  wire format dashboards and tests consume).  The registry lock guards
  only metric *creation*; recording always goes through the per-metric
  locks.

The quantile reporting generalizes the ad-hoc ``np.percentile`` summaries
the serving benchmarks compute offline — here the percentiles stream, so
a live service can answer "what is p99 right now" without retaining a
latency sample per request.

>>> metrics = MetricsRegistry()
>>> metrics.counter("frontend.admitted").increment()
>>> with metrics.timed("frontend.latency_s"):
...     serve_one_request()
>>> metrics.snapshot()["histograms"]["frontend.latency_s"]["p99"]
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Counter:
    """A thread-safe monotonic counter (one short-held mutex per counter)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe last-value-wins gauge (e.g. index generation)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Streaming log-bucketed histogram with bounded-error quantiles.

    Values are assigned to exponentially growing buckets spanning
    ``[lowest, highest]`` with per-bucket width factor ``growth``; a
    quantile estimate is the geometric midpoint of the bucket the exact
    order statistic falls in, clamped to the observed ``[min, max]``.
    The estimate's relative error is therefore bounded by roughly
    ``sqrt(growth) - 1`` (one extra ``growth`` factor when a value lands
    exactly on a bucket boundary and floating-point ``log`` rounds it
    across) — ~2.5% at the default ``growth=1.05``.  Values outside the
    covered range land in under/overflow buckets and are reported as the
    exact observed ``min`` / ``max``.

    Memory is O(num_buckets) — ~470 ints at the defaults — independent
    of sample count, which is what lets an unbounded request stream keep
    p50/p99 live.  ``record`` holds the histogram's own lock for one
    ``log`` and one list increment; nothing global.
    """

    def __init__(
        self,
        lowest: float = 1e-6,
        highest: float = 1e4,
        growth: float = 1.05,
    ) -> None:
        if lowest <= 0 or highest <= lowest:
            raise ValueError("need 0 < lowest < highest")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.lowest = lowest
        self.highest = highest
        self.growth = growth
        self._log_lowest = math.log(lowest)
        self._log_growth = math.log(growth)
        interior = int(math.ceil((math.log(highest) - self._log_lowest) / self._log_growth))
        # bucket 0 = underflow (value <= lowest); buckets 1..interior are
        # (lowest * g**(i-1), lowest * g**i]; the last bucket is overflow.
        self._counts: List[int] = [0] * (interior + 2)
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _bucket_of(self, value: float) -> int:
        if value <= self.lowest:
            return 0
        index = int((math.log(value) - self._log_lowest) / self._log_growth) + 1
        return min(index, len(self._counts) - 1)

    def record(self, value: float) -> None:
        """Add one sample (O(1) time and memory)."""
        value = float(value)
        bucket = self._bucket_of(value)
        with self._lock:
            self._counts[bucket] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Estimate of the ``q``-quantile (the ``ceil(q * n)``-th order
        statistic); ``nan`` while the histogram is empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self._count))
        cumulative = 0
        for bucket, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return self._estimate(bucket)
        return self._max  # unreachable: cumulative reaches _count

    def _estimate(self, bucket: int) -> float:
        if bucket == 0:
            return self._min  # underflow: every sample here is <= lowest
        if bucket == len(self._counts) - 1:
            return self._max  # overflow
        low = self.lowest * self.growth ** (bucket - 1)
        mid = low * math.sqrt(self.growth)  # geometric bucket midpoint
        return min(max(mid, self._min), self._max)

    def snapshot(self) -> Dict[str, float]:
        """Count, mean, min/max, and p50/p90/p99 as a plain dict."""
        with self._lock:
            if self._count == 0:
                return {"count": 0}
            return {
                "count": self._count,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p90": self._quantile_locked(0.90),
                "p99": self._quantile_locked(0.99),
            }


class StalenessGauge:
    """Index freshness versus a live feed: how old is what's searchable?

    A streaming index that batches writes is always a little behind the
    feed; this helper makes that lag a first-class metric.  Callers
    :meth:`ingested` each write when it *arrives* (enters the pending
    buffer) and :meth:`applied` it when it becomes *searchable* (the
    buffer flushes into the index).  Each write's staleness is recorded
    into the ``<name>.staleness_s`` histogram at apply time (arrival ->
    visible latency), with the pending backlog mirrored on the
    ``<name>.pending_writes`` gauge.

    Single-writer by design: the streaming scenarios drive one ingest
    loop, so the FIFO needs no lock of its own — cross-thread visibility
    comes from the registry's own locked metrics.
    """

    def __init__(
        self,
        metrics: "MetricsRegistry",
        name: str = "staleness",
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.metrics = metrics
        self.name = name
        self._clock = clock or time.perf_counter
        self._pending: List[float] = []  # arrival times, FIFO

    @property
    def pending(self) -> int:
        """Writes ingested but not yet applied."""
        return len(self._pending)

    def ingested(self, count: int = 1, now: Optional[float] = None) -> None:
        """Record ``count`` writes arriving from the feed."""
        if count < 0:
            raise ValueError("count must be >= 0")
        stamp = self._clock() if now is None else float(now)
        self._pending.extend([stamp] * count)
        self.metrics.gauge(f"{self.name}.pending_writes").set(len(self._pending))

    def applied(self, count: Optional[int] = None, now: Optional[float] = None) -> None:
        """Mark the ``count`` oldest pending writes as searchable (all of
        them when ``count`` is None), recording each one's arrival ->
        visible age into the staleness histogram."""
        stamp = self._clock() if now is None else float(now)
        if count is None:
            count = len(self._pending)
        if count > len(self._pending):
            raise ValueError(
                f"cannot apply {count} writes; only {len(self._pending)} pending"
            )
        histogram = self.metrics.histogram(f"{self.name}.staleness_s")
        for arrival in self._pending[:count]:
            histogram.record(max(0.0, stamp - arrival))
        del self._pending[:count]
        self.metrics.gauge(f"{self.name}.pending_writes").set(len(self._pending))


class MetricsRegistry:
    """Name-keyed counters / gauges / histograms with one dict snapshot.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name (the
    registry lock covers only creation, so hot-path recording contends
    on nothing shared).  ``snapshot`` renders every metric to plain
    Python scalars — the format ``ServiceFrontend.metrics_snapshot``
    extends with component stats (coalescer, shards, embedding store).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._clock = clock or time.perf_counter

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(self, name: str, **options: float) -> Histogram:
        """The histogram registered under ``name`` (created on first use;
        ``options`` — ``lowest`` / ``highest`` / ``growth`` — only apply
        at creation)."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(**options)
            return self._histograms[name]

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Record the wall time of the ``with`` body (seconds) into the
        histogram ``name`` — failures are timed too, so error latency is
        not invisible."""
        histogram = self.histogram(name)
        start = self._clock()
        try:
            yield
        finally:
            histogram.record(self._clock() - start)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Render every metric to a plain nested dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }
