"""Serving layer: batched embedding store + pluggable ANN backends.

The paper's multi-purpose premise is that one contrastively pre-trained
representation model serves blocking, matching, cleaning, and column
discovery.  This package makes that reuse concrete at serving time:

* :class:`EmbeddingStore` — batch-encodes records through
  :class:`~repro.core.encoder.SudowoodoEncoder` in configurable chunks and
  caches the vectors keyed by record fingerprint, so a corpus is encoded
  once and shared by every downstream task.  Hands out stable record ids
  (``upsert_batch`` / ``evict``) so streaming consumers can delta-encode.
* :class:`ANNBackend` / :class:`ExactBackend` / :class:`HNSWBackend` —
  the pluggable similarity-search protocol behind
  blocking, selected via ``SudowoodoConfig.ann_backend``.  All built-ins
  are mutable (``add`` / ``remove`` / ``rebuild``), so indexes are
  patched in place instead of rebuilt under churn.
* :class:`HNSWIndex` — the pure-numpy hierarchical small-world graph
  powering the ``"hnsw"`` backend (sublinear per-query latency).
* :class:`IVFPQBackend` / :class:`ProductQuantizer` /
  :class:`MemmapVectorStore` — the million-record storage tier: coarse
  k-means cells + product-quantized residuals behind the ``"ivfpq"``
  backend (asymmetric-distance queries, ``nprobe`` recall dial, ~8-32x
  vector compression) and a memory-mapped on-disk vector store with the
  same stable-id contract as :class:`EmbeddingStore`, so corpora can
  exceed RAM.  Configured by ``ivf_cells`` / ``pq_subvectors`` /
  ``pq_bits`` / ``nprobe`` / ``store_dtype``.
* :class:`MatchService` — the one thread-safe live index: ``embed_batch``
  plus the streaming ``index_records`` / ``upsert_records`` /
  ``delete_records`` / ``search_batch`` APIs over a shared warm cache.
  Batch blocking belongs to ``core.Blocker`` and matching to the fitted
  task's ``predict``.
* :class:`ShardedBackend` — the service's live index: hash-partitioned
  across ``SudowoodoConfig(num_shards=...)`` per-shard backends
  (read-write locked; one shard by default).
* :class:`RequestBroker` — the one leader/follower micro-batcher:
  concurrent ``search`` callers are coalesced into single batched
  encoder/backend calls.  Only the front end builds one.
* :class:`ServiceFrontend` / :class:`MetricsRegistry` — the production
  front end: bounded admission with typed :class:`Overloaded` shedding,
  coalesced batching, streaming p50/p99 metrics, and zero-downtime
  blue/green ``reindex(new_encoder)``.  Configured by
  ``max_queue_depth`` and returned by
  ``session.serve(..., frontend=True)``.
* :class:`ContainmentSketch` / :class:`StalenessGauge` — discovery-tier
  helpers: bottom-k value sketches for joinability scoring (O(k) memory
  per column, deterministic hashing) and an index-freshness gauge that
  turns "how far behind the feed is the index" into streaming
  histograms for the streaming-ER scenario (``repro.discovery``).
"""

from .backends import ANNBackend, ExactBackend, HNSWBackend, build_backend
from .broker import MonotonicClock, Overloaded, RequestBroker
from .frontend import ServiceFrontend
from .hnsw import HNSWIndex
from .ivfpq import IVFPQBackend, ProductQuantizer
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, StalenessGauge
from .service import MatchService
from .sketch import ContainmentSketch
from .sharding import ReadWriteLock, ShardedBackend, shard_assignments
from .store import EmbeddingStore
from .vecstore import MemmapVectorStore, dequantize_rows, quantize_rows

# The sharded service was folded into MatchService.  benchmarks/perf/ is
# frozen by BENCHMARK.json and still imports (and shims) it by this name.
ShardedMatchService = MatchService

__all__ = [
    "ANNBackend",
    "ContainmentSketch",
    "Counter",
    "EmbeddingStore",
    "ExactBackend",
    "Gauge",
    "HNSWBackend",
    "HNSWIndex",
    "Histogram",
    "IVFPQBackend",
    "MatchService",
    "MemmapVectorStore",
    "ProductQuantizer",
    "MetricsRegistry",
    "MonotonicClock",
    "Overloaded",
    "ReadWriteLock",
    "RequestBroker",
    "ServiceFrontend",
    "ShardedBackend",
    "StalenessGauge",
    "build_backend",
    "dequantize_rows",
    "quantize_rows",
    "shard_assignments",
]
