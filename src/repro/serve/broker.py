"""The one leader/follower micro-batcher behind every ``search`` call.

Batched encoding is ~2.5x faster per record than one-at-a-time
(``bench_serve_throughput``), so collecting concurrent callers into one
batched encoder + backend call is the biggest multi-threaded throughput
lever the serving stack has.  :class:`RequestBroker` is the only class
that does it, and :class:`~repro.serve.frontend.ServiceFrontend` is the
only place that builds one: with the config's whole batching and
admission policy (``coalesce_window_ms``, ``max_coalesce_batch``,
``max_queue_depth``, ``default_deadline_ms``, ``priority_levels``),
pointed at the service's *unbatched* ``search_batch``.

Import direction is ``broker <- frontend``: this module knows neither
the frontend nor the service.  The typed request errors and the injectable clock live here
because the broker is what raises and reads them.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import Histogram, MetricsRegistry


# ----------------------------------------------------------------------
# Typed request errors
# ----------------------------------------------------------------------
class RequestError(RuntimeError):
    """Base class for per-request serving failures."""


class Overloaded(RequestError):
    """The admission queue is full; the request was rejected unqueued.

    Carries ``queue_depth`` (admitted-but-unfinished requests at
    rejection time) so callers can log or back off proportionally.
    """

    def __init__(self, queue_depth: int, max_queue_depth: int) -> None:
        super().__init__(
            f"admission queue full ({queue_depth} in flight >= "
            f"max_queue_depth={max_queue_depth}); retry with backoff"
        )
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth


class DeadlineExceeded(RequestError):
    """The request's deadline passed before it could be served.

    ``late_s`` is how far past the deadline the clock was when the
    request was dropped (0.0 when it expired at admission).
    """

    def __init__(self, late_s: float) -> None:
        super().__init__(
            f"deadline exceeded ({late_s * 1e3:.1f} ms late); "
            "request dropped without executing"
        )
        self.late_s = late_s


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class MonotonicClock:
    """Production clock: ``time.monotonic`` + real event waits."""

    def now(self) -> float:
        """Seconds on a monotonic clock (the deadline timebase)."""
        return time.monotonic()

    def wait_for(self, event: threading.Event, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for ``event``; True if set."""
        return event.wait(timeout)


class _BrokeredRequest:
    __slots__ = (
        "texts",
        "k",
        "deadline",
        "priority",
        "admitted_at",
        "seq",
        "done",
        "result",
        "error",
    )

    def __init__(
        self,
        texts: List[str],
        k: int,
        deadline: Optional[float],
        priority: int,
        admitted_at: float,
        seq: int,
    ) -> None:
        self.texts = texts
        self.k = k
        self.deadline = deadline
        self.priority = priority
        self.admitted_at = admitted_at
        self.seq = seq
        self.done = threading.Event()
        self.result: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.error: Optional[BaseException] = None


# ----------------------------------------------------------------------
# The broker
# ----------------------------------------------------------------------
class RequestBroker:
    """Bounded-admission, deadline/priority-aware micro-batcher.

    The first caller to find no batch in flight becomes the *leader*: it
    collects followers, then drains the queue in ``max_batch``-sized
    chunks — each chunk is **one** ``run_batch(texts, k)`` call over the
    concatenated queries, with k the chunk's maximum — handing each
    caller its own row slice, trimmed to its own ``k``.  Leadership is
    released only once the queue is empty, so followers are never
    stranded; should the leader itself die, it fails everything still
    queued on its way out so the next caller can lead.  A single
    request carrying more than ``max_batch`` texts runs alone as one
    oversized chunk (requests are never split).  With ``window_ms == 0``
    the leader drains immediately: no latency is added, and only
    requests that arrived while a batch was in flight are coalesced.

    On top of that shape, three admission policies, each off at its
    default:

    * **Admission control**: at most ``max_queue_depth`` requests may be
      admitted-but-unfinished; beyond that :meth:`submit` raises
      :class:`Overloaded` *immediately* (no queue time is spent on a
      request that will be rejected).  ``None`` disables shedding.
    * **Deadlines**: the leader waits until ``window_ms`` elapses or the
      earliest pending deadline arrives, whichever is sooner; at each
      drain step, requests whose deadline has passed complete with
      :class:`DeadlineExceeded` instead of occupying batch slots.  A
      request whose deadline has already passed at admission fails the
      same way without being queued.
    * **Priorities**: pending requests drain in
      ``(priority, admission order)`` order — level 0 first — so under
      backlog, low-priority traffic is what expires.

    Failed batches are *isolated*: when a multi-request chunk raises,
    each member is retried alone so one poisoned query cannot fail its
    batch-mates (counted under ``frontend.isolations``).

    Every counter/histogram lands in the injected
    :class:`~repro.serve.metrics.MetricsRegistry` (a private one when
    none is passed) under ``frontend.*`` names; every time read goes
    through the injected clock, which is what makes the deadline paths
    deterministically testable (``tests/serve/faults.py``).
    """

    def __init__(
        self,
        run_batch: Callable[[List[str], int], Tuple[np.ndarray, np.ndarray]],
        window_ms: float = 0.0,
        max_batch: int = 64,
        max_queue_depth: Optional[int] = None,
        priority_levels: int = 1,
        clock: Optional[MonotonicClock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if window_ms < 0:
            raise ValueError("window_ms must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive or None")
        if priority_levels < 1:
            raise ValueError("priority_levels must be >= 1")
        self._run_batch = run_batch
        self.window_ms = window_ms
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.priority_levels = priority_levels
        self.clock = clock or MonotonicClock()
        self.metrics = metrics or MetricsRegistry()
        self._lock = threading.Lock()
        self._pending: List[_BrokeredRequest] = []
        self._wake = threading.Event()
        self._leader_active = False
        self._in_flight = 0
        self._seq = 0

    # -- bookkeeping ----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted-but-unfinished requests right now."""
        with self._lock:
            return self._in_flight

    @property
    def pending_requests(self) -> int:
        """Requests queued and not yet picked into a batch."""
        with self._lock:
            return len(self._pending)

    def _batch_sizes(self) -> Histogram:
        return self.metrics.histogram(
            "frontend.batch_size", lowest=1.0, highest=1e5, growth=1.05
        )

    def stats(self) -> Dict[str, float]:
        """Batching counters: requests admitted, batches run, mean
        queries per batch, and how many failed chunks were isolated
        into per-request runs."""
        return {
            "requests": float(self.metrics.counter("frontend.admitted").value),
            "batches": float(self.metrics.counter("frontend.batches").value),
            "mean_batch_size": float(self._batch_sizes().snapshot().get("mean", 0.0)),
            "isolations": float(self.metrics.counter("frontend.isolations").value),
        }

    def _finish(
        self,
        request: _BrokeredRequest,
        result: Optional[Tuple[np.ndarray, np.ndarray]],
        error: Optional[BaseException],
        outcome: str,
    ) -> None:
        request.result = result
        request.error = error
        with self._lock:
            self._in_flight -= 1
        self.metrics.counter(f"frontend.{outcome}").increment()
        self.metrics.histogram("frontend.latency_s").record(
            self.clock.now() - request.admitted_at
        )
        request.done.set()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        texts: Sequence[str],
        k: int,
        deadline: Optional[float] = None,
        priority: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer one search request through the shared batch.

        ``deadline`` is an *absolute* time on the broker's clock (None =
        no deadline); ``priority`` must be in
        ``[0, priority_levels)`` with 0 the most urgent.  Raises
        :class:`Overloaded` / :class:`DeadlineExceeded` on the
        corresponding admission or expiry path, and re-raises backend
        errors per request.
        """
        if not 0 <= priority < self.priority_levels:
            raise ValueError(
                f"priority must be in [0, {self.priority_levels}); "
                f"got {priority}"
            )
        now = self.clock.now()
        if deadline is not None and now >= deadline:
            # Expired on arrival: fail fast, never queued (still counted
            # as expired so dashboards see the whole picture).
            self.metrics.counter("frontend.expired").increment()
            raise DeadlineExceeded(now - deadline)
        with self._lock:
            if (
                self.max_queue_depth is not None
                and self._in_flight >= self.max_queue_depth
            ):
                depth = self._in_flight
                self.metrics.counter("frontend.shed").increment()
                raise Overloaded(depth, self.max_queue_depth)
            request = _BrokeredRequest(
                list(texts), k, deadline, priority, now, self._seq
            )
            self._seq += 1
            self._in_flight += 1
            self._pending.append(request)
            is_leader = not self._leader_active
            if is_leader:
                self._leader_active = True
            elif (
                sum(len(r.texts) for r in self._pending) >= self.max_batch
                or deadline is not None
            ):
                # Wake the waiting leader: the batch is full, or a new
                # deadline may shorten its wait (spurious wakes are fine
                # — the leader recomputes its flush time every loop).
                self._wake.set()
        self.metrics.counter("frontend.admitted").increment()
        if not is_leader:
            request.done.wait()
        else:
            self._lead()
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    # -- leader ---------------------------------------------------------
    def _lead(self) -> None:
        expired: List[Tuple[_BrokeredRequest, float]] = []
        batch: Optional[List[_BrokeredRequest]] = None
        try:
            self._wait_for_followers()
            while True:
                expired, batch = self._take_batch()
                for request, late_s in expired:
                    self._finish(request, None, DeadlineExceeded(late_s), "expired")
                if batch is None:
                    return
                self._execute(batch)
        except BaseException as exc:
            # _execute delivers run_batch's own errors per request, so
            # this is an error *outside* that channel (say run_batch
            # handed back arrays that cannot be sliced per request).
            # Leaving now without cleaning up would strand every follower
            # and turn every later caller into one: release leadership
            # and fail whatever has not been answered.
            taken = [request for request, _ in expired] + (batch or [])
            with self._lock:
                stranded = [r for r in taken if not r.done.is_set()] + self._pending
                self._pending = []
                self._wake.clear()
                self._leader_active = False
            for request in stranded:
                self._finish(request, None, exc, "failed")
            raise

    def _wait_for_followers(self) -> None:
        """Collect followers until the window closes, the batch fills, or
        the earliest admitted deadline is about to be missed."""
        if self.window_ms <= 0:
            return
        window_end = self.clock.now() + self.window_ms / 1000.0
        while True:
            with self._lock:
                self._wake.clear()
                total = sum(len(r.texts) for r in self._pending)
                earliest = min(
                    (r.deadline for r in self._pending if r.deadline is not None),
                    default=None,
                )
            if total >= self.max_batch:
                return
            flush_at = (
                window_end if earliest is None else min(window_end, earliest)
            )
            timeout = flush_at - self.clock.now()
            if timeout <= 0:
                return
            self.clock.wait_for(self._wake, timeout)

    def _take_batch(self):
        """Pop expired requests and the next priority-ordered chunk.

        Returns ``(expired, batch)`` where ``expired`` is a list of
        ``(request, seconds_late)`` pairs and ``batch`` is ``None`` once
        the queue is drained (leadership is released under the same lock,
        so a follower can never be stranded without a leader).
        """
        with self._lock:
            now = self.clock.now()
            expired = []
            survivors = []
            for request in self._pending:
                if request.deadline is not None and now > request.deadline:
                    expired.append((request, now - request.deadline))
                else:
                    survivors.append(request)
            # Stable sort: admission order within each priority level.
            survivors.sort(key=lambda r: (r.priority, r.seq))
            batch: List[_BrokeredRequest] = []
            taken = 0
            while survivors and (
                not batch or taken + len(survivors[0].texts) <= self.max_batch
            ):
                request = survivors.pop(0)
                batch.append(request)
                taken += len(request.texts)
            self._pending = survivors
            if not self._pending:
                self._wake.clear()
            if not batch:
                if not expired:
                    self._leader_active = False
                    return [], None
                return expired, []
            self.metrics.counter("frontend.batches").increment()
            self._batch_sizes().record(taken)
        return expired, batch

    def _execute(self, batch: List[_BrokeredRequest]) -> None:
        """Run one chunk; on failure, isolate so each request fails alone."""
        if not batch:
            return
        all_texts = [text for r in batch for text in r.texts]
        max_k = max(r.k for r in batch)
        try:
            ids, scores = self._run_batch(all_texts, max_k)
        except BaseException as exc:
            if len(batch) == 1:
                self._finish(batch[0], None, exc, "failed")
                return
            # Per-item error channel: rerun each request alone so one
            # poisoned query cannot fail its batch-mates.
            self.metrics.counter("frontend.isolations").increment()
            for request in batch:
                try:
                    solo_ids, solo_scores = self._run_batch(
                        request.texts, request.k
                    )
                except BaseException as solo_exc:
                    self._finish(request, None, solo_exc, "failed")
                else:
                    self._finish(
                        request,
                        (solo_ids[:, : request.k], solo_scores[:, : request.k]),
                        None,
                        "completed",
                    )
            return
        start = 0
        for request in batch:
            stop = start + len(request.texts)
            self._finish(
                request,
                (ids[start:stop, : request.k], scores[start:stop, : request.k]),
                None,
                "completed",
            )
            start = stop

