"""Streaming entity resolution: a live feed driven through the service tier.

The production front end (``repro.serve.frontend``) already gives the
index streaming writes, admission control, and deadlines; what the repo
lacked was a *scenario* that exercises them the way a live ER deployment
does — upserts, deletions, and searches interleaved on one clock, with
index freshness measured against the feed.  This module supplies it:

* :func:`make_feed` deterministically expands a corpus into a seeded
  event stream of :class:`FeedEvent` upserts / deletes / searches
  (deletes only target records the feed has made live, so every event
  is valid by construction);
* :func:`run_streaming_er` replays a feed against a
  :class:`~repro.serve.frontend.ServiceFrontend`, buffering writes into
  batches of ``flush_every`` — the realistic ingest pattern that
  *creates* staleness — and measuring it with
  :class:`~repro.serve.metrics.StalenessGauge`, alongside sustained
  QPS and the front end's shed / deadline counters;
* :func:`iter_match_edges` scores candidate record pairs through a
  matcher lazily, in bounded batches, yielding only the pairs above
  threshold — the edge stream the streaming dedupe path
  (:func:`~repro.discovery.dedupe.iter_duplicate_clusters`) consumes
  without ever materializing a match graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..serve.broker import DeadlineExceeded, Overloaded
from ..serve.frontend import ServiceFrontend
from ..serve.metrics import MetricsRegistry, StalenessGauge

#: Event kinds a feed may contain.
EVENT_KINDS: Tuple[str, ...] = ("upsert", "delete", "search")


@dataclass(frozen=True)
class FeedEvent:
    """One timestep of the live feed.

    ``texts`` are serialized records: the payload to upsert / delete, or
    the queries of a search batch.  ``k`` only applies to searches.
    """

    seq: int
    kind: str
    texts: Tuple[str, ...]
    k: int = 5

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{', '.join(EVENT_KINDS)}"
            )
        if not self.texts:
            raise ValueError("a feed event needs at least one text")


def make_feed(
    initial: Sequence[str],
    stream: Sequence[str],
    num_events: int = 60,
    search_fraction: float = 0.5,
    delete_fraction: float = 0.15,
    k: int = 5,
    seed: int = 0,
) -> List[FeedEvent]:
    """A deterministic event stream over a split corpus.

    ``initial`` is what the index starts with (already searchable);
    ``stream`` arrives as upserts.  Each step draws a kind — search with
    probability ``search_fraction``, else delete with probability
    ``delete_fraction`` (when something is live to delete), else upsert —
    and payloads come from the live population, so deletes always target
    indexed records and searches always have a reference.  Upserts cycle
    through ``stream`` with a revision suffix once exhausted, keeping
    every live text unique (a delete therefore removes exactly one
    record).  Same inputs + seed -> identical feed.
    """
    if not initial and not stream:
        raise ValueError("make_feed needs a non-empty corpus")
    if not 0.0 <= search_fraction <= 1.0:
        raise ValueError("search_fraction must be in [0, 1]")
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("delete_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    live: List[str] = list(initial)
    pool = list(stream) or list(initial)
    next_up = 0
    revision = 0
    events: List[FeedEvent] = []
    for seq in range(num_events):
        roll = rng.random()
        if roll < search_fraction and live:
            query = live[int(rng.integers(0, len(live)))]
            events.append(FeedEvent(seq=seq, kind="search", texts=(query,), k=k))
        elif roll < search_fraction + delete_fraction and live:
            victim = live.pop(int(rng.integers(0, len(live))))
            events.append(FeedEvent(seq=seq, kind="delete", texts=(victim,)))
        else:
            if next_up >= len(pool):
                next_up = 0
                revision += 1
            text = pool[next_up]
            next_up += 1
            if revision:
                text = f"{text} [VAL] rev {revision}"
            live.append(text)
            events.append(FeedEvent(seq=seq, kind="upsert", texts=(text,)))
    return events


def run_streaming_er(
    target: ServiceFrontend,
    events: Sequence[FeedEvent],
    flush_every: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    clock: Optional[Callable[[], float]] = None,
    deadline_ms: Optional[float] = None,
    priority: int = 0,
) -> Dict[str, float]:
    """Replay ``events`` against a live service; return the scorecard.

    Writes (upserts / deletes) are buffered and applied in arrival order
    every ``flush_every`` write events — the batched-ingest pattern that
    makes an index stale — while searches run immediately against
    whatever is currently visible.  A
    :class:`~repro.serve.metrics.StalenessGauge` stamps each write at
    arrival and at flush, so ``staleness_*`` below is the true
    arrival->searchable latency.  ``Overloaded`` / ``DeadlineExceeded``
    from the front end are counted, not raised: load shedding is an
    outcome this scenario measures.

    Returns a flat dict: event/op counts, ``shed`` / ``expired``,
    sustained ``qps`` (completed searches over the wall-clock of the
    whole interleaved run), ``staleness_p50_s`` / ``staleness_p99_s`` /
    ``staleness_max_s``, and ``final_index_size``.
    """
    if flush_every < 1:
        raise ValueError("flush_every must be >= 1")
    tick = clock or time.perf_counter
    registry = metrics
    if registry is None:
        registry = getattr(target, "metrics", None) or MetricsRegistry()
    gauge = StalenessGauge(registry, name="streaming_er", clock=tick)

    buffer: List[FeedEvent] = []
    counts = {"upsert": 0, "delete": 0, "search": 0}
    shed = 0
    expired = 0
    searches_completed = 0

    def flush() -> None:
        applied = 0
        for event in buffer:
            if event.kind == "upsert":
                target.upsert_records(list(event.texts))
            else:
                target.delete_records(list(event.texts))
            applied += len(event.texts)
        buffer.clear()
        if applied:
            gauge.applied(applied)

    started = tick()
    for event in events:
        if event.kind == "search":
            counts["search"] += 1
            try:
                target.search(
                    list(event.texts),
                    k=event.k,
                    deadline_ms=deadline_ms,
                    priority=priority,
                )
            except Overloaded:
                shed += 1
            except DeadlineExceeded:
                expired += 1
            else:
                searches_completed += 1
        else:
            counts[event.kind] += 1
            gauge.ingested(len(event.texts))
            buffer.append(event)
            if sum(len(e.texts) for e in buffer) >= flush_every:
                flush()
    flush()
    elapsed = max(tick() - started, 1e-9)

    staleness = registry.histogram("streaming_er.staleness_s").snapshot()
    return {
        "events": float(len(events)),
        "upserts": float(counts["upsert"]),
        "deletes": float(counts["delete"]),
        "searches": float(counts["search"]),
        "searches_completed": float(searches_completed),
        "shed": float(shed),
        "expired": float(expired),
        "elapsed_s": elapsed,
        "qps": searches_completed / elapsed,
        "staleness_p50_s": staleness.get("p50", 0.0),
        "staleness_p99_s": staleness.get("p99", 0.0),
        "staleness_max_s": staleness.get("max", 0.0),
        "pending_writes": float(gauge.pending),
        "final_index_size": float(target.index_size),
    }


def iter_match_edges(
    pairs: Iterable[Tuple[int, int]],
    serialize_pair: Callable[[int, int], Tuple[str, str]],
    predict_proba: Callable[[Sequence[Tuple[str, str]]], Sequence[Sequence[float]]],
    threshold: float = 0.5,
    batch_size: int = 64,
) -> Iterator[Tuple[int, int]]:
    """Stream match edges out of a matcher, one bounded batch at a time.

    ``pairs`` may be any iterable (including a generator of blocking
    output) — it is consumed lazily in chunks of ``batch_size``: each
    chunk is serialized via ``serialize_pair(a, b)``, scored in one
    ``predict_proba`` call, and the pairs whose match probability
    (column 1) reaches ``threshold`` are yielded in order.  Peak memory
    is O(batch_size) regardless of how many candidate pairs blocking
    proposes, which is what lets
    :func:`~repro.discovery.dedupe.iter_duplicate_clusters` fold edges
    into its union-find while the matcher is still scoring.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    chunk: List[Tuple[int, int]] = []

    def score(batch: List[Tuple[int, int]]) -> Iterator[Tuple[int, int]]:
        texts = [serialize_pair(a, b) for a, b in batch]
        probabilities = predict_proba(texts)
        for pair, row in zip(batch, probabilities):
            if float(row[1]) >= threshold:
                yield pair

    for pair in pairs:
        chunk.append(pair)
        if len(chunk) >= batch_size:
            yield from score(chunk)
            chunk = []
    if chunk:
        yield from score(chunk)
