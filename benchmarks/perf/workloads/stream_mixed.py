"""``stream_mixed`` — closed loop, 2 clients draining one shared feed.

One feed event goes through ``ServiceFrontend``: 50 % ``search`` of
never-seen query texts, 30 % ``upsert_records`` of unseen records, 20 %
``delete_records`` of seed records.  Every text misses the
``EmbeddingStore``, so tokenizer + no-grad ``nn`` inference + encoder
dominate, and the write path (store upsert/evict, backend add/remove
under the all-shard write lock) runs beside reads on the same index: a
read-side gain bought with slower writes, or the reverse, shows as lost
events/s or a fatter search p90.  Each seed record is deleted at most
once and every upsert is new, so the order in which the two clients
drain the feed cannot change what is valid.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from ..common import Measured, ratio
from ..trace import Tracer
from .base import Workload
from . import serving

SEARCH, UPSERT, DELETE = 0, 1, 2
#: Ten-event block = the 50/30/20 mix exactly; shuffled per block.
BLOCK = [SEARCH] * 5 + [UPSERT] * 3 + [DELETE] * 2
SEARCH_TEXTS, UPSERT_TEXTS, DELETE_TEXTS = 8, 8, 4
SPAN = {
    SEARCH: "serve.frontend.search",
    UPSERT: "serve.frontend.upsert",
    DELETE: "serve.frontend.delete",
}


class StreamMixed(Workload):
    operation = "feed event"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__()
        # The feed is sized ~1.3x what this commit drains in the run; a
        # program that gets through all of it stops early, which the
        # throughput (events / elapsed) still reports correctly.
        blocks = 40 if smoke else 850
        seed_size = 400 if smoke else 7000
        per_block = {
            SEARCH: 5 * SEARCH_TEXTS, UPSERT: 3 * UPSERT_TEXTS, DELETE: 2 * DELETE_TEXTS,
        }
        if blocks * per_block[DELETE] > seed_size:
            raise ValueError("feed would delete more records than were seeded")
        pool = serving.record_pool(
            seed_size + blocks * (per_block[SEARCH] + per_block[UPSERT]), seed
        )
        self.seed_texts = pool[:seed_size]
        arriving = pool[seed_size : seed_size + blocks * per_block[UPSERT]]
        queries = pool[seed_size + blocks * per_block[UPSERT] :]
        self.frontend, seed_ids = serving.build_frontend(self.seed_texts)

        rng = np.random.default_rng(seed)
        doomed = rng.permutation(seed_size)[: blocks * per_block[DELETE]].tolist()
        sources = {
            SEARCH: (queries, SEARCH_TEXTS),
            UPSERT: (arriving, UPSERT_TEXTS),
            DELETE: ([self.seed_texts[i] for i in doomed], DELETE_TEXTS),
        }
        cursor = {SEARCH: 0, UPSERT: 0, DELETE: 0}
        self.feed: List[Tuple[int, List[str]]] = []
        for _ in range(blocks):
            for kind in rng.permutation(BLOCK).tolist():
                texts, width = sources[kind]
                self.feed.append((kind, texts[cursor[kind] : cursor[kind] + width]))
                cursor[kind] += width
        self.seed_size = seed_size
        self.max_id = int(seed_ids.max())
        # Warm the three paths on texts outside the feed's accounting:
        # search never caches, and the upserted warm-up record is deleted.
        self.frontend.search(self.seed_texts[:SEARCH_TEXTS], k=serving.K)
        self.frontend.upsert_records(["[COL] name [VAL] warm up record"])
        self.frontend.delete_records(["[COL] name [VAL] warm up record"])
        self.delta: Dict[str, float] = {}
        self.stretches: List[tuple] = []
        self.log: List[List[tuple]] = [[] for _ in range(serving.CLIENTS)]

    def install_shims(self, tracer: Tracer) -> None:
        serving.install_shims(tracer)

    # -- measured phase -------------------------------------------------
    def measure(self, seconds: float, tracer: Tracer, traced: bool) -> Measured:
        counters = serving.ServeCounters(self.frontend)
        frontend, feed, span = self.frontend, self.feed, tracer.span
        calls = {
            SEARCH: lambda texts: frontend.search(texts, k=serving.K)[0],
            UPSERT: frontend.upsert_records,
            DELETE: frontend.delete_records,
        }
        take = threading.Lock()
        cursor = [0]
        failed = [0] * serving.CLIENTS

        def client(slot: int, deadline: float) -> None:
            log = self.log[slot]
            while True:
                start = time.perf_counter()
                if start >= deadline:
                    return
                with take:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(feed):
                    return
                kind, texts = feed[position]
                try:
                    with span(SPAN[kind]):
                        ids = calls[kind](texts)
                except Exception as error:  # a refused or raising call is a failure
                    failed[slot] += 1
                    self.failed_operation(error)
                    continue
                log.append((kind, start, time.perf_counter(), ids))

        for length, on in serving.segments(seconds, traced):
            if cursor[0] >= len(feed):  # a faster program drained the feed early
                break
            (self.trace_on if on else self.trace_off)(tracer)
            before = sum(map(len, self.log))
            wall = serving.run_clients(client, length)
            self.stretches.append((sum(map(len, self.log)) - before, wall, on))
        self.delta = counters.deltas()
        done = [entry for per_client in self.log for entry in per_client]
        by_kind = {kind: sum(1 for e in done if e[0] == kind) for kind in SPAN}
        return Measured(
            operations=len(done),
            phase_s=sum(wall for _, wall, _ in self.stretches),
            # Latency is the search events' only; throughput is all events.
            latencies_s=[e[2] - e[1] for e in done if e[0] == SEARCH],
            attempted=len(done) + sum(failed),
            failed=sum(failed),
            op_counts={
                "events": len(done),
                "searches": by_kind[SEARCH],
                "upserts": by_kind[UPSERT],
                "deletes": by_kind[DELETE],
            },
        )

    # -- correctness ----------------------------------------------------
    def check(
        self, measured: Measured, layer: Dict[str, float], break_oracle: bool = False
    ) -> List[str]:
        failures: List[str] = []
        done = [entry for per_client in self.log for entry in per_client]
        upserted = sum(len(e[3]) for e in done if e[0] == UPSERT)
        deleted = sum(len(e[3]) for e in done if e[0] == DELETE)
        expected = self.seed_size + upserted - deleted + (1 if break_oracle else 0)
        if self.frontend.index_size != expected:
            failures.append(
                f"final index_size {self.frontend.index_size} != seed + upserted "
                f"- deleted = {expected}"
            )
        # No deleted record may appear in a search issued after its delete
        # returned: compare each hit's delete-return time to the search start.
        top = max([self.max_id] + [int(e[3].max()) for e in done if len(e[3])])
        gone_at = np.full(top + 2, np.inf)  # slot -1 (padding ids) stays inf
        for kind, _, end, ids in done:
            if kind == DELETE:
                gone_at[ids] = end
        stale = sum(
            int((gone_at[ids] <= start).sum())
            for kind, start, _, ids in done
            if kind == SEARCH
        )
        if stale:
            failures.append(f"{stale} search hits were records deleted before the search")
        if ratio(
            self.delta["store_hits"], self.delta["store_hits"] + self.delta["store_misses"]
        ) > 0.05:
            failures.append("stream_mixed hit the embedding store on more than 5% of texts")
        return failures

    # -- per-layer ------------------------------------------------------
    def layer_metrics(self, measured: Measured, tracer: Tracer) -> Dict[str, float]:
        metrics = serving.serve_layer_metrics(tracer, self.delta, self.stretches)
        p50 = lambda name: (  # noqa: E731
            float(np.percentile(tracer.durations(name), 50)) * 1e3
            if tracer.calls(name)
            else 0.0
        )
        metrics["serve.frontend.upsert.p50_ms"] = p50(SPAN[UPSERT])
        metrics["serve.frontend.delete.p50_ms"] = p50(SPAN[DELETE])
        metrics["serve.index.final_size"] = float(self.frontend.index_size)
        roots = [tracer.coverage(name) * tracer.busy(name) for name in SPAN.values()]
        total = sum(tracer.busy(name) for name in SPAN.values())
        metrics["trace.coverage_share"] = ratio(sum(roots), total)
        return metrics
