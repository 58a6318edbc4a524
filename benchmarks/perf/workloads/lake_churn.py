"""``lake_churn`` — 1 thread, batch: refresh rounds on a churning lake.

One operation is one refresh round on a generated lake: an untimed
``mutate_lake(fraction=0.05)``, then timed ``profile_lake`` against the
on-disk ``ProfileStore`` → ``LakeIndex.update`` →
``rank_lake_candidates(k=4)``.  It is the only user of ``discovery``,
``serve.sketch`` and ``serve.vecstore`` (where ``ProfileStore.flush``
rewrites the whole store per batch); ``nn`` touches only the 5 % of
columns that changed.  Rounds run until ``--seconds`` are up.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import Dict, List

import numpy as np

from repro import SudowoodoConfig, SudowoodoEncoder
from repro.core import build_tokenizer
from repro.data.generators import generate_lake, mutate_lake
from repro.discovery import LakeIndex, ProfileStore, profile_lake, rank_lake_candidates
from repro.discovery.join import profile_tables
from repro.serve.sketch import ContainmentSketch

from ..common import OUT_DIR, Measured, paired_overhead, ratio, traced_turn
from ..trace import Tracer
from .base import (
    OpProfiledWorkload,
    backend_query_metrics,
    op_profile_metrics,
    shim_backend_query,
)

ROWS = 18
MUTATE_FRACTION = 0.05
RANK_K = 4
PROFILE = dict(max_values=8, sketch_k=64)
WARMUP_ROUNDS = 3
#: Copied in as a literal, like the other workloads' configs.
ENCODER_CONFIG = dict(
    dim=32, num_layers=2, num_heads=4, ffn_dim=64, max_seq_len=32, vocab_size=2000, seed=0
)


class LakeChurn(OpProfiledWorkload):
    operation = "refresh round"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__()
        self.seed = seed
        self.tables = generate_lake(
            num_tables=24 if smoke else 200, rows=ROWS, seed=seed
        ).tables
        config = SudowoodoConfig(**ENCODER_CONFIG)
        sample = dict(list(self.tables.items())[:30])
        encoder = SudowoodoEncoder(
            config, build_tokenizer([p.text for p in profile_tables(sample)], config)
        )
        self.tracer = Tracer()  # off during set-up; ``measure`` brings the run's own

        def embed(texts):
            with self.tracer.span("discovery.embed"):
                return encoder.embed_items(list(texts))

        self.embed = embed
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="lake-", dir=OUT_DIR)
        self.store = ProfileStore(self.directory)
        self.index = LakeIndex(SudowoodoConfig())
        self.mutations = 0
        self.mutated_columns = 0
        self.rounds: List[dict] = []
        self.round(self.tables)  # the cold profile + first index build
        for _ in range(WARMUP_ROUNDS):
            self.round(self.mutate())
        self.rounds.clear()

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def mutate(self) -> Dict[str, object]:
        """The untimed churn step; remembers how many columns it touched."""
        self.tables, names = mutate_lake(
            self.tables, fraction=MUTATE_FRACTION, seed=self.seed * 100_003 + self.mutations
        )
        self.mutations += 1
        self.mutated_columns = sum(len(self.tables[name].schema) for name in names)
        return self.tables

    def round(self, tables) -> None:
        span = self.tracer.span
        with span("round"):
            with span("discovery.profile_lake"):
                lake = profile_lake(tables, self.store, self.embed, **PROFILE)
            with span("discovery.lake_index.update"):
                delta = self.index.update(lake)
            with span("discovery.rank"):
                candidates = rank_lake_candidates(lake, self.index, k=RANK_K)
        scores = [candidate.score for candidate in candidates]
        self.rounds.append(
            {
                "columns": len(lake.profiles),
                "computed": lake.computed,
                "reused": lake.reused,
                "delta": delta["added"] + delta["updated"] + delta["removed"],
                "candidates": len(candidates),
                "sorted": all(a >= b for a, b in zip(scores, scores[1:])),
                "mutated_columns": self.mutated_columns,
                "traced": self.tracer.enabled,
            }
        )

    def install_shims(self, tracer: Tracer) -> None:
        super().install_shims(tracer)
        tracer.shim(ProfileStore, "put_many", "discovery.profile_store.put_many")
        # The batch scorer calls the kernel under ``containment_many``.
        tracer.shim(
            ContainmentSketch, "intersection_many", "serve.sketch.intersection_many"
        )
        shim_backend_query(tracer)

    # -- measured phase -------------------------------------------------
    def measure(self, seconds: float, tracer: Tracer, traced: bool) -> Measured:
        self.tracer = tracer
        latencies: List[float] = []
        failed = 0
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            tables = self.mutate()
            if traced:
                turn = traced_turn(len(latencies) + failed)
                (self.trace_on if turn else self.trace_off)(tracer)
            start = time.perf_counter()
            try:
                self.round(tables)
            except Exception as error:  # a raising round is a failed operation
                failed += 1
                self.failed_operation(error)
                continue
            latencies.append(time.perf_counter() - start)
        # Latency times the refresh alone; throughput is rounds over the
        # phase's wall time, mutation step (about 1 ms) included.
        return Measured(
            operations=len(latencies),
            phase_s=time.perf_counter() - started,
            latencies_s=latencies,
            attempted=len(latencies) + failed,
            failed=failed,
            op_counts={"rounds": len(latencies)},
        )

    # -- correctness ----------------------------------------------------
    def check(
        self, measured: Measured, layer: Dict[str, float], break_oracle: bool = False
    ) -> List[str]:
        failures: List[str] = []
        for number, entry in enumerate(self.rounds):
            columns = entry["columns"] + (1 if break_oracle else 0)
            if entry["computed"] + entry["reused"] != columns:
                failures.append(f"round {number}: computed + reused != columns in the lake")
            if not 1 <= entry["computed"] <= entry["mutated_columns"]:
                failures.append(
                    f"round {number}: computed {entry['computed']} outside "
                    f"[1, {entry['mutated_columns']}] mutated columns"
                )
            if not entry["sorted"]:
                failures.append(f"round {number}: candidates are not score-sorted")
        return failures[:5]

    # -- per-layer ------------------------------------------------------
    def layer_metrics(self, measured: Measured, tracer: Tracer) -> Dict[str, float]:
        rounds = [entry for entry in self.rounds if entry["traced"]]  # what the spans cover
        total = lambda key: float(sum(entry[key] for entry in rounds))  # noqa: E731
        times = list(measured.latencies_s)
        edge = min(10, len(times) // 2)
        # ``self.rounds`` and the latencies both hold the finished rounds, in order.
        traced = [t for t, entry in zip(times, self.rounds) if entry["traced"]]
        untraced = [t for t, entry in zip(times, self.rounds) if not entry["traced"]]
        return {
            **op_profile_metrics(self.profiler),
            "discovery.profile_lake.busy_s": tracer.busy("discovery.profile_lake"),
            "discovery.profile_lake.computed": total("computed"),
            "discovery.profile_lake.reuse_ratio": ratio(total("reused"), total("columns")),
            "discovery.embed.busy_s": tracer.busy("discovery.embed"),
            "discovery.profile_store.put_many.busy_s": tracer.busy(
                "discovery.profile_store.put_many"
            ),
            "discovery.profile_store.entries": float(len(self.store)),
            "discovery.lake_index.update.busy_s": tracer.busy("discovery.lake_index.update"),
            "discovery.lake_index.delta": total("delta"),
            "discovery.rank.busy_s": tracer.busy("discovery.rank"),
            "discovery.rank.candidates": total("candidates"),
            "serve.sketch.intersection_many.busy_s": tracer.busy(
                "serve.sketch.intersection_many"
            ),
            **backend_query_metrics(tracer),
            "discovery.round.last_over_first": (
                float(np.mean(times[-edge:]) / np.mean(times[:edge])) if edge else 0.0
            ),
            "trace.traced_s": float(sum(traced)),
            "trace.overhead_share": paired_overhead(list(zip(traced, untraced))),
            "trace.coverage_share": tracer.coverage("round"),
        }
