"""Production service front end: admission control, coalesced batching,
metrics, and blue/green reindex.

:class:`~repro.serve.service.MatchService` solves *concurrency* — many
threads can search one index safely — but a heavy-traffic
deployment also has to survive *overload* and *change*:

* **Bounded admission + load shedding.**  An unbounded queue converts
  overload into unbounded latency for everyone.  The
  :class:`~repro.serve.broker.RequestBroker` counts admitted-but-unfinished requests and,
  beyond ``max_queue_depth``, rejects new arrivals immediately with a
  typed :class:`Overloaded` error — callers get an instant, retryable
  signal and the requests that *were* admitted keep meeting their SLO
  (measured by ``benchmarks/bench_service_slo.py``).
* **Coalescing.**  The batching leader collects concurrent callers for
  up to ``coalesce_window_ms`` (or until ``max_coalesce_batch`` queries
  wait) and answers them with one batched ``search_batch``; requests
  drain in admission order.
* **Metrics.**  A :class:`~repro.serve.metrics.MetricsRegistry` is
  threaded through the broker (admission/shed counters, latency
  and batch-size histograms) and the
  :class:`~repro.serve.store.EmbeddingStore` (cache hit counters);
  :meth:`ServiceFrontend.metrics_snapshot` renders everything as one
  plain dict.
* **Blue/green reindex.**  :meth:`ServiceFrontend.reindex` builds a
  *shadow* store + index for a refreshed encoder entirely off the hot
  path, then swaps it in with one atomic reference assignment — a query
  batch reads the service reference exactly once, so every query
  observes either the complete old or the complete new index, never a
  mix, and a failure mid-build leaves the old index serving untouched.

Every time-dependent decision goes through an injectable clock
(:class:`~repro.serve.broker.MonotonicClock` in production), so the fault-injection suite
(``tests/serve/faults.py``) can drive shedding, the batching window and
mid-swap failures deterministically.

>>> frontend = session.serve("match", frontend=True)
>>> ids, scores = frontend.search(queries, k=10)
>>> frontend.reindex(finetuned_encoder)      # zero-downtime swap
>>> frontend.metrics_snapshot()["counters"]["frontend.shed"]
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.encoder import SudowoodoEncoder
from .broker import MonotonicClock, RequestBroker
from .metrics import MetricsRegistry
from .service import MatchService
from .store import EmbeddingStore


# ----------------------------------------------------------------------
# The front end
# ----------------------------------------------------------------------
class ServiceFrontend:
    """Shedding, coalescing, observable broker over a match service.

    Wraps one :class:`~repro.serve.service.MatchService`: ``search``
    traffic flows through the serving stack's only
    :class:`~repro.serve.broker.RequestBroker`, carrying the admission
    policy (bounded depth, per-request error isolation) into the
    service's ``search_batch``, so a request is
    batched exactly once.  Mutations (``upsert_records`` /
    ``delete_records``) pass through under the swap lock, and
    :meth:`reindex` performs the blue/green encoder swap.

    Configuration comes from the service's
    :class:`~repro.core.config.SudowoodoConfig`: ``max_queue_depth``
    (None = never shed) plus the shared ``coalesce_window_ms`` /
    ``max_coalesce_batch`` batching knobs.

    Thread safety: ``search`` never blocks on mutations or reindexes
    (the service reference is read atomically once per batch); mutations
    and reindex serialize on one lock, so an upsert issued during a
    shadow build waits and then lands on the *new* index instead of
    being lost on the old one.
    """

    def __init__(
        self,
        service: MatchService,
        clock: Optional[MonotonicClock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = service.config
        self.clock = clock or MonotonicClock()
        self.metrics = metrics or MetricsRegistry()
        self._service = service
        self._swap_lock = threading.RLock()
        self._generation = 0
        self.metrics.gauge("frontend.index_generation").set(0)
        service.store.bind_metrics(self.metrics)
        self._broker = RequestBroker(
            self._run_batch,
            window_ms=self.config.coalesce_window_ms,
            max_batch=self.config.max_coalesce_batch,
            max_queue_depth=self.config.max_queue_depth,
            clock=self.clock,
            metrics=self.metrics,
        )

    # -- queries --------------------------------------------------------
    def search(
        self, texts: Sequence[str], k: int = 10
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k neighbours through the shared batch; raises
        :class:`~repro.serve.broker.Overloaded` when shedding."""
        return self._broker.submit(texts, k)

    def _run_batch(
        self, texts: List[str], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        # ONE atomic read of the service reference per batch: every query
        # in the batch sees a single complete index — the blue/green
        # invariant the reindex stress test asserts.
        service = self._service
        return service.search_batch(texts, k)

    # -- mutations (serialized against reindex) -------------------------
    def index_records(self, texts: Sequence[str]) -> np.ndarray:
        """(Re)build the live index over ``texts`` on the current service."""
        with self._swap_lock:
            return self._service.index_records(texts)

    def upsert_records(self, texts: Sequence[str]) -> np.ndarray:
        """Insert-or-refresh records (blocks while a reindex is building,
        then lands on the fresh index)."""
        with self._swap_lock:
            return self._service.upsert_records(texts)

    def delete_records(self, texts: Sequence[str]) -> np.ndarray:
        """Remove records from the live index (serialized like upserts)."""
        with self._swap_lock:
            return self._service.delete_records(texts)

    # -- blue/green reindex ---------------------------------------------
    def reindex(
        self,
        new_encoder: SudowoodoEncoder,
        corpus: Optional[Sequence[str]] = None,
        store: Optional[EmbeddingStore] = None,
    ) -> int:
        """Swap in a freshly-encoded index with zero query downtime.

        Builds a *shadow* :class:`~repro.serve.store.EmbeddingStore` and
        :class:`~repro.serve.service.MatchService` for
        ``new_encoder`` (over ``corpus``, defaulting to the live corpus
        in stable id order — record ids restart at 0 in corpus order),
        entirely off the query path, then publishes it with one atomic
        reference swap and returns the new index generation.  In-flight
        batches finish on the old index; later batches see the new one;
        no batch ever sees a mix.  If the shadow build raises, the old
        index keeps serving and the error propagates to the caller
        (``frontend.reindex_failures`` counts these).

        Mutations are held out for the duration of the build (swap
        lock), so an upsert racing a reindex lands on the new index
        instead of vanishing with the old one.
        """
        with self._swap_lock:
            old = self._service
            if corpus is None:
                corpus = old.live_texts()
            # Token encodings are weight-independent: when the vocabulary
            # is unchanged (the common fine-tune-then-reindex flow) the
            # shadow encoder reuses the live encoder's warm tokenize+pad
            # cache, so the rebuild pays only the forward passes.
            new_encoder.adopt_token_cache(old.store.encoder)
            try:
                if store is None:
                    store = EmbeddingStore(
                        new_encoder,
                        batch_size=self.config.serve_batch_size,
                        dtype=self.config.store_dtype,
                    )
                shadow = MatchService(new_encoder, config=self.config, store=store)
                if len(corpus):
                    shadow.index_records(list(corpus))
            except BaseException:
                self.metrics.counter("frontend.reindex_failures").increment()
                raise
            # The swap: a single reference assignment.  Queries read
            # self._service once per batch, so this is the only
            # synchronization the hot path needs.
            self._service = shadow
            self._generation += 1
            self.metrics.counter("frontend.reindexes").increment()
            self.metrics.gauge("frontend.index_generation").set(self._generation)
            shadow.store.bind_metrics(self.metrics)
            return self._generation

    # -- introspection --------------------------------------------------
    @property
    def service(self) -> MatchService:
        """The currently-published service (changes on reindex)."""
        return self._service

    @property
    def generation(self) -> int:
        """How many successful reindexes have been published."""
        return self._generation

    @property
    def broker(self) -> RequestBroker:
        """The underlying broker (exposed for tests and tuning)."""
        return self._broker

    def record_text(self, record_id: int) -> str:
        """The text indexed under ``record_id`` on the current index."""
        return self._service.record_text(record_id)

    @property
    def index_size(self) -> int:
        """Live records in the currently-published index."""
        return self._service.index_size

    def metrics_snapshot(self) -> Dict[str, object]:
        """Every metric as one plain dict.

        Combines the registry (broker counters + latency/batch-size
        histograms + store cache counters) with the current service's
        component stats: embedding-store cache rates, shard layout, the
        index generation, and this frontend's batching counters
        (``"coalesce"``: requests, batches, mean batch size, isolations).
        """
        snapshot = self.metrics.snapshot()
        service = self._service
        snapshot["service"] = {
            "generation": self._generation,
            "index_size": service.index_size,
            "num_shards": service.num_shards,
            "store": service.stats(),
            "coalesce": self._broker.stats(),
        }
        return snapshot

