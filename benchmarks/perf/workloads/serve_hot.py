"""``serve_hot`` — closed loop, 2 clients, every query an indexed record.

Each request is ``ServiceFrontend.search([text], k=10)`` for a ``text``
already in the index, so the ``EmbeddingStore`` answers the embed step
and the encoder does nothing in the measured phase: the time is broker
queueing + shard fan-out/merge + backend query.  It is the *bypass*
workload for any encode/kernel/token-cache change (prediction: no move,
except ``setup_s``, which is the bulk ``index_records`` build).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from ..common import Measured
from ..trace import Tracer
from .base import Workload
from . import serving

WARMUP_REQUESTS = 200
ORACLE_SAMPLES = 200
SCORE_TOLERANCE = 1e-4  # float32 store vs float64 oracle


class ServeHot(Workload):
    operation = "request"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__()
        size = 400 if smoke else 8000
        self.corpus = serving.record_pool(size, seed)
        self.frontend, self.ids = serving.build_frontend(self.corpus)
        rng = np.random.default_rng(seed)
        # One request list per client, long enough never to wrap at this
        # commit's rate (it cycles if a faster program gets through it).
        self.requests = rng.integers(0, size, size=(serving.CLIENTS, 20 * size))
        for index in self.requests[0, :WARMUP_REQUESTS].tolist():
            self.frontend.search([self.corpus[index]], k=serving.K)
        self.row_of_id = np.full(int(self.ids.max()) + 1, -1, dtype=np.int64)
        self.row_of_id[self.ids] = np.arange(size)
        self.results: List[List[tuple]] = [[] for _ in range(serving.CLIENTS)]
        self.delta: Dict[str, float] = {}
        self.stretches: List[tuple] = []

    def install_shims(self, tracer: Tracer) -> None:
        serving.install_shims(tracer)

    # -- measured phase -------------------------------------------------
    def measure(self, seconds: float, tracer: Tracer, traced: bool) -> Measured:
        counters = serving.ServeCounters(self.frontend)
        latencies: List[List[float]] = [[] for _ in range(serving.CLIENTS)]
        failed = [0] * serving.CLIENTS
        position = [0] * serving.CLIENTS
        requests = [row.tolist() for row in self.requests]

        def client(slot: int, deadline: float) -> None:
            search, corpus, span = self.frontend.search, self.corpus, tracer.span
            mine, out, done = requests[slot], self.results[slot], latencies[slot]
            while True:
                start = time.perf_counter()
                if start >= deadline:
                    return
                index = mine[position[slot] % len(mine)]
                position[slot] += 1
                try:
                    with span("serve.frontend.search"):
                        ids, scores = search([corpus[index]], k=serving.K)
                except Exception as error:  # a refused or raising call is a failure
                    failed[slot] += 1
                    self.failed_operation(error)
                    continue
                done.append(time.perf_counter() - start)
                out.append((index, ids[0], scores[0]))

        for length, on in serving.segments(seconds, traced):
            (self.trace_on if on else self.trace_off)(tracer)
            before = sum(map(len, latencies))
            wall = serving.run_clients(client, length)
            self.stretches.append((sum(map(len, latencies)) - before, wall, on))
        self.delta = counters.deltas()
        samples = [sample for per_client in latencies for sample in per_client]
        return Measured(
            operations=len(samples),
            phase_s=sum(wall for _, wall, _ in self.stretches),
            latencies_s=samples,
            attempted=len(samples) + sum(failed),
            failed=sum(failed),
            op_counts={"requests": len(samples)},
        )

    # -- correctness ----------------------------------------------------
    def check(
        self, measured: Measured, layer: Dict[str, float], break_oracle: bool = False
    ) -> List[str]:
        failures: List[str] = []
        # The exercise/bypass split is asserted, not assumed: every text
        # was indexed, so nothing may reach the encoder while measuring.
        if self.delta["store_misses"] != 0:
            failures.append("serve_hot missed the embedding store")
        if layer.get("core.encoder.embed_items.texts", 0) != 0:
            failures.append("serve_hot encoded texts in the measured phase")
        done = [row for per_client in self.results for row in per_client]
        index = np.asarray([row[0] for row in done])
        ids = np.stack([row[1] for row in done])
        scores = np.stack([row[2] for row in done])
        own = ids == self.ids[index][:, None]
        own_score = np.where(own, scores, -np.inf).max(axis=1)
        top = own.any(axis=1) & (own_score >= scores[:, 0] - SCORE_TOLERANCE)
        if not top.all():
            failures.append(
                f"{int((~top).sum())} of {len(done)} requests did not return "
                "the queried record's own id at the top score"
            )

        # Brute-force oracle over the service's own embeddings: centre on
        # the corpus mean (index_records froze the same one), normalise.
        # Compared by score, so a tie at the k-th place may resolve to
        # either id and the float32 store may differ in the last digits.
        raw = self.frontend.service.embed_batch(self.corpus, normalize=False)
        centred = raw - raw.mean(axis=0, keepdims=True)
        unit = centred / np.maximum(np.linalg.norm(centred, axis=1, keepdims=True), 1e-12)
        rng = np.random.default_rng(len(done))
        sample = rng.choice(len(done), size=min(ORACLE_SAMPLES, len(done)), replace=False)
        wrong = 0
        for row in sample.tolist():
            truth = unit @ unit[index[row]]
            if break_oracle:
                truth = -truth
            kth = np.sort(truth)[-serving.K]
            expected = np.sort(truth)[-serving.K :][::-1]
            returned = self.row_of_id[ids[row]]
            same_scores = np.allclose(scores[row], expected, atol=SCORE_TOLERANCE)
            all_in_top = (truth[returned] >= kth - SCORE_TOLERANCE).all()
            wrong += not (same_scores and all_in_top)
        if wrong:
            failures.append(
                f"top-{serving.K} of {wrong} of {len(sample)} sampled requests "
                "differ from the brute-force oracle"
            )
        return failures

    # -- per-layer ------------------------------------------------------
    def layer_metrics(self, measured: Measured, tracer: Tracer) -> Dict[str, float]:
        metrics = serving.serve_layer_metrics(tracer, self.delta, self.stretches)
        metrics["serve.index.final_size"] = float(self.frontend.index_size)
        metrics["trace.coverage_share"] = tracer.coverage("serve.frontend.search")
        return metrics
