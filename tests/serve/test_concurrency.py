"""Concurrency stress test for the sharded serving layer.

Eight threads hammer one :class:`MatchService` with a bounded mix of
``search`` (coalesced by a :class:`ServiceFrontend`) / ``upsert_records``
/ ``delete_records`` operations (straight on the service), then
the index invariants are checked: no duplicate ids in any result row,
``index_size`` equals the number of live records, and every surviving
record is findable by its own text.  Marked ``stress`` so the bounded
budget stays the contract — raise the op counts locally when hunting
races, not here.
"""

import threading

import numpy as np
import pytest

from repro.core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from repro.serve import MatchService, ServiceFrontend
from repro.utils import spawn_rng

NUM_THREADS = 8
OPS_PER_THREAD = 18

BASE_CORPUS = [f"[COL] name [VAL] base record {i}" for i in range(16)]
# Disjoint per-thread text pools: no two threads ever upsert the same
# text, so the final live set is exactly what the per-thread op logs
# say it is (cross-thread interleavings still share every shard).
POOLS = {
    t: [f"[COL] name [VAL] thread {t} record {i}" for i in range(10)]
    for t in range(NUM_THREADS)
}
ALL_TEXTS = BASE_CORPUS + [text for pool in POOLS.values() for text in pool]


def tiny_config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=400,
        mlm_warm_start_epochs=0,
        num_shards=3,
        coalesce_window_ms=0.5,
        max_coalesce_batch=16,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def encoder():
    # The tokenizer is fitted on the very texts the threads index, so
    # every distinct record gets a distinct token sequence (and vector).
    config = tiny_config()
    return SudowoodoEncoder(config, build_tokenizer(ALL_TEXTS, config))


@pytest.mark.stress
@pytest.mark.parametrize("backend_name", ["exact", "hnsw"])
def test_mixed_search_upsert_delete_stress(encoder, backend_name):
    service = MatchService(
        encoder, config=tiny_config(ann_backend=backend_name)
    )
    service.index_records(BASE_CORPUS)
    frontend = ServiceFrontend(service)
    errors = []
    live_by_thread = {t: set() for t in range(NUM_THREADS)}

    def worker(t: int) -> None:
        rng = spawn_rng(t, "serve-stress")
        live = live_by_thread[t]
        pool = POOLS[t]
        try:
            for _ in range(OPS_PER_THREAD):
                op = rng.choice(["search", "upsert", "delete"])
                if op == "upsert":
                    picks = rng.choice(10, size=2, replace=False)
                    texts = [pool[i] for i in picks]
                    ids = service.upsert_records(texts)
                    assert ids.shape == (2,)
                    live.update(texts)
                elif op == "delete":
                    # May include never-indexed texts: documented no-op.
                    picks = rng.choice(10, size=2, replace=False)
                    texts = [pool[i] for i in picks]
                    service.delete_records(texts)
                    live.difference_update(texts)
                else:
                    query = BASE_CORPUS[int(rng.integers(len(BASE_CORPUS)))]
                    found, scores = frontend.search([query], k=5)
                    assert found.shape == (1, 5) and scores.shape == (1, 5)
                    returned = found[0][found[0] >= 0]
                    # Invariant: no duplicate ids within a result row.
                    assert np.unique(returned).size == returned.size
        except BaseException as exc:  # surface failures from worker threads
            errors.append((t, exc))

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    # Liveness first: a deadlocked worker would otherwise surface as a
    # confusing invariant failure (or hang the checks below).
    assert not any(thread.is_alive() for thread in threads), (
        "worker threads deadlocked"
    )
    assert not errors, f"worker failures: {errors}"

    # ------------------------------------------------------- invariants
    survivors = set(BASE_CORPUS)
    for live in live_by_thread.values():
        survivors |= live

    # index_size matches the live-record bookkeeping on both sides.
    assert service.index_size == len(survivors)
    assert len(service._live_texts) == len(survivors)
    assert set(service._live_texts.values()) == survivors

    # No duplicate ids anywhere: every live id appears exactly once.
    live_ids = sorted(service._live_texts)
    assert len(set(live_ids)) == len(survivors)

    # Every surviving record is findable by its own text (identical text
    # embeds to the identical vector, so it must be its own top-1 under
    # the exact backend and within top-5 for the approximate graph).
    rank = 1 if backend_name == "exact" else 5
    for record_id, text in sorted(service._live_texts.items()):
        found, _ = frontend.search([text], k=rank)
        assert record_id in found[0], (
            f"record {record_id} ({text!r}) not findable by its own vector"
        )

    stats = frontend.broker.stats()
    assert stats["requests"] >= 1.0
    assert stats["batches"] <= stats["requests"]
