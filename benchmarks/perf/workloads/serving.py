"""What ``serve_hot`` and ``stream_mixed`` share: the service config, the
record pool, the frontend build and the traced run's shim set."""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import SudowoodoConfig, SudowoodoEncoder
from repro.core import build_tokenizer
from repro.data.generators import generate_dirty_duplicates
from repro.data.records import serialize_record
from repro.serve import EmbeddingStore, ServiceFrontend, ShardedMatchService
from repro.serve.sharding import ShardedBackend
from repro.text.tokenizer import Tokenizer

from ..common import paired_overhead, ratio, traced_turn
from ..trace import Tracer
from .base import backend_query_metrics, shim_backend_query

K = 10
CLIENTS = 2
#: A traced run is cut into this many segments, half of them traced
#: (``common.traced_turn``).
TRACE_SEGMENTS = 16

#: Copied in as a literal (not imported from ``benchmarks/_scale.py`` or a
#: bench file) so a later edit there cannot move this baseline.  Serve
#: knobs not named here keep their ``SudowoodoConfig`` defaults.
SERVE_CONFIG = dict(
    dim=32,
    num_layers=2,
    num_heads=4,
    ffn_dim=64,
    max_seq_len=32,
    vocab_size=2000,
    num_shards=2,
    ann_backend="exact",
    coalesce_window_ms=1.0,
    seed=0,
)

#: ``generate_dirty_duplicates`` yields ~2.4 rows per entity; the margin
#: covers seed-to-seed variation and de-duplication so a pool of a fixed
#: size can always be cut from it.
ROWS_PER_ENTITY = 2.2


def record_pool(size: int, seed: int) -> List[str]:
    """Exactly ``size`` distinct serialized dirty-duplicate records."""
    bundle = generate_dirty_duplicates(
        num_entities=int(size / ROWS_PER_ENTITY) + 50, seed=seed
    )
    schema = bundle.table.schema
    texts = list(dict.fromkeys(serialize_record(r, schema) for r in bundle.table))
    if len(texts) < size:
        raise RuntimeError(f"record pool too small: {len(texts)} < {size}")
    return texts[:size]


def build_frontend(corpus: List[str]) -> Tuple[ServiceFrontend, np.ndarray]:
    """A 2-shard exact-backend frontend with ``corpus`` indexed; returns
    it with the record id of each corpus row."""
    config = SudowoodoConfig(**SERVE_CONFIG)
    encoder = SudowoodoEncoder(config, build_tokenizer(corpus[:2000], config))
    frontend = ServiceFrontend(ShardedMatchService(encoder, config=config))
    ids = frontend.index_records(corpus)
    return frontend, np.asarray(ids, dtype=np.int64)


def segments(seconds: float, traced: bool) -> List[Tuple[float, bool]]:
    """(length, tracing on) of each stretch of the measured phase: an
    untraced run is one stretch."""
    if not traced:
        return [(seconds, False)]
    return [(seconds / TRACE_SEGMENTS, traced_turn(number)) for number in range(TRACE_SEGMENTS)]


def run_clients(client: Callable[[int, float], None], seconds: float) -> float:
    """Run ``client(slot, deadline)`` on ``CLIENTS`` threads until the
    deadline ``seconds`` away; the wall seconds until the last returned."""
    start = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(slot, start + seconds)) for slot in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def install_shims(tracer: Tracer) -> None:
    """Timing shims on the public callables a request passes through."""
    tracer.shim(ShardedMatchService, "search_batch", "serve.sharding.search_batch")
    shim_backend_query(tracer)
    tracer.shim(ShardedBackend, "add", "serve.backend.add")
    tracer.shim(ShardedBackend, "remove", "serve.backend.remove")
    tracer.shim(EmbeddingStore, "embed_batch", "serve.store.embed_batch")
    tracer.shim(EmbeddingStore, "upsert_batch", "serve.store.upsert_batch")
    tracer.shim(EmbeddingStore, "evict", "serve.store.evict")
    tracer.shim(
        SudowoodoEncoder,
        "embed_items",
        "core.encoder.embed_items",
        lambda args, kwargs, result: tracer.count(
            "core.encoder.embed_items.texts", len(args[1])
        ),
    )
    # TokenCache tokenizes one miss at a time through ``Tokenizer.encode``;
    # ``encode_batch`` is not on the serving path.
    tracer.shim(Tokenizer, "encode", "text.tokenizer.encode")


class ServeCounters:
    """Deltas of the program's own public counters over the measured
    phase (set-up traffic is subtracted out)."""

    def __init__(self, frontend: ServiceFrontend) -> None:
        self.frontend = frontend
        self.before = self._read()

    def _read(self) -> Dict[str, float]:
        snapshot = self.frontend.metrics_snapshot()
        counters = snapshot["counters"]
        store = snapshot["service"]["store"]
        tokens = self.frontend.service.store.encoder.token_cache_stats()
        return {
            "admitted": float(counters.get("frontend.admitted", 0)),
            "batches": float(counters.get("frontend.batches", 0)),
            "store_hits": float(store["hits"]),
            "store_misses": float(store["misses"]),
            "token_hits": float(tokens["hits"]),
            "token_misses": float(tokens["misses"]),
        }

    def deltas(self) -> Dict[str, float]:
        after = self._read()
        return {key: after[key] - self.before[key] for key in after}


def serve_layer_metrics(
    tracer: Tracer, delta: Dict[str, float], stretches: List[Tuple[int, float, bool]]
) -> Dict[str, float]:
    """Per-layer values both serving workloads report the same way.
    ``stretches`` are the phase's (operations, wall seconds, tracing on)."""
    per_op = {
        on: [wall / ops for ops, wall, traced in stretches if traced == on and ops]
        for on in (True, False)
    }
    search = tracer.durations("serve.frontend.search")
    batch = tracer.durations("serve.sharding.search_batch")
    p50 = lambda xs: float(np.percentile(xs, 50)) if xs else 0.0  # noqa: E731
    return {
        "text.tokenizer.encode.busy_s": tracer.busy("text.tokenizer.encode"),
        "core.encoder.embed_items.busy_s": tracer.busy("core.encoder.embed_items"),
        "core.encoder.embed_items.texts": tracer.counts["core.encoder.embed_items.texts"],
        "core.encoder.token_cache.hit_ratio": ratio(
            delta["token_hits"], delta["token_hits"] + delta["token_misses"]
        ),
        "serve.store.embed_batch.busy_s": tracer.busy("serve.store.embed_batch"),
        "serve.store.hit_ratio": ratio(
            delta["store_hits"], delta["store_hits"] + delta["store_misses"]
        ),
        "serve.store.misses": delta["store_misses"],
        "serve.frontend.search.busy_s": float(sum(search)),
        "serve.frontend.search.calls": float(len(search)),
        "serve.frontend.search.p99_ms": (
            float(np.percentile(search, 99)) * 1e3 if search else 0.0
        ),
        "serve.frontend.mean_batch": ratio(delta["admitted"], delta["batches"]),
        "serve.frontend.overhead_ms": (p50(search) - p50(batch)) * 1e3,
        "serve.sharding.search_batch.busy_s": float(sum(batch)),
        **backend_query_metrics(tracer),
        "serve.store.upsert_batch.busy_s": tracer.busy("serve.store.upsert_batch"),
        "serve.store.evict.busy_s": tracer.busy("serve.store.evict"),
        "serve.backend.add.busy_s": tracer.busy("serve.backend.add"),
        "serve.backend.remove.busy_s": tracer.busy("serve.backend.remove"),
        "trace.traced_s": float(sum(wall for _, wall, traced in stretches if traced)),
        "trace.overhead_share": paired_overhead(list(zip(per_op[True], per_op[False]))),
    }
