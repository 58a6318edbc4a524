"""Sharded + coalesced serving benchmark — multi-threaded QPS and tail
latency versus the single-shard baseline, on a generated 10k-record
corpus (no paper table; see docs/benchmarks.md).

Scenario: ``num_threads`` closed-loop clients each issue single-query
``search()`` calls against a live streaming index.

* **Baseline** — one single-shard :class:`MatchService` driven through
  its uncoalesced ``search_batch`` under a global mutex: every request
  encodes its own query and scans the one index, strictly serialized —
  what serving looks like with neither lever pulled.
* **Sharded + coalesced** — one ``num_shards=4`` :class:`MatchService`
  driven through ``ServiceFrontend(sharded).search``: concurrent callers
  are micro-batched by the frontend's broker into single batched
  encoder/backend calls (batched encoding is ~2.5x faster per record)
  and each batch fans out across ``num_shards`` lock-guarded partitions.

Acceptance targets: exact-backend results identical to the single-shard
service, and a coalescer that batches (``mean_batch_size > 1``).  The QPS
of both arms is printed, not asserted: the old >= 2x floor was a ratio
over a baseline arm that spent ~3 ms per request renormalising the
corpus; with unit rows scored by one GEMM both arms are encoder-bound
and the ratio reads anywhere from 0.5x to 2x run to run (numbers in
docs/benchmarks.md).  Serving throughput is what
``benchmarks/perf`` (workload ``serve_hot``) measures.  Run as a
pytest benchmark for the full-scale numbers, or as a script for a quick
CI smoke check::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_serving.py -q -s
    PYTHONPATH=src python benchmarks/bench_sharded_serving.py --smoke
"""

import argparse
import threading
import time
from dataclasses import replace

import numpy as np

from repro import SudowoodoConfig, SudowoodoEncoder
from repro.core import build_tokenizer
from repro.data.generators import load_em_benchmark
from repro.eval import format_table
from repro.serve import EmbeddingStore, MatchService, ServiceFrontend

K = 10
NUM_THREADS = 8
NUM_SHARDS = 4


def _config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        max_seq_len=32,
        vocab_size=2000,
        serve_batch_size=32,
        coalesce_window_ms=2.0,
        max_coalesce_batch=64,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def _drive(search, queries, num_threads):
    """Closed-loop load: threads pull queries off one shared cursor.

    Returns (qps, latencies_seconds) with per-request latency measured
    around the full call — lock wait and coalescing window included,
    because that is what a caller experiences.
    """
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    latencies = []
    latencies_lock = threading.Lock()

    def worker():
        local = []
        while True:
            with cursor_lock:
                position = cursor["next"]
                if position >= len(queries):
                    break
                cursor["next"] = position + 1
            start = time.perf_counter()
            search([queries[position]], K)
            local.append(time.perf_counter() - start)
        with latencies_lock:
            latencies.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(num_threads)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    return len(queries) / wall, np.asarray(latencies)


def run(
    corpus_size: int = 10_000,
    num_queries: int = 480,
    num_threads: int = NUM_THREADS,
    num_shards: int = NUM_SHARDS,
) -> dict:
    """Measure sharded+coalesced vs mutex-guarded single-shard serving."""
    dataset = load_em_benchmark(
        "AB", scale=corpus_size / 2_000.0, max_table_size=corpus_size // 2
    )
    corpus = [dataset.serialize_a(i) for i in range(len(dataset.table_a))]
    corpus += [dataset.serialize_b(j) for j in range(len(dataset.table_b))]
    # Novel query texts (not in the corpus cache): every request pays the
    # encoder, as unbounded production query traffic does.
    queries = [
        f"{corpus[i % len(corpus)]} [COL] variant [VAL] q{i}"
        for i in range(num_queries)
    ]

    config = _config()
    encoder = SudowoodoEncoder(config, build_tokenizer(corpus, config))
    encoder.embed_items(corpus[:64])  # warm up caches / thread pools

    store = EmbeddingStore(encoder, batch_size=config.serve_batch_size)
    single = MatchService(encoder, config=replace(config, num_shards=1), store=store)
    single.index_records(corpus)
    sharded = MatchService(
        encoder, config=replace(config, num_shards=num_shards), store=store
    )
    sharded.index_records(corpus)
    frontend = ServiceFrontend(sharded)

    # ------------------------------------------------- correctness gate
    # Sequential spot-check (batches of one query each): the sharded +
    # coalesced path must return exactly the single-shard ids.
    for query in queries[:32]:
        expected, _ = single.search_batch([query], k=K)
        got, _ = frontend.search([query], k=K)
        np.testing.assert_array_equal(got, expected)

    # ------------------------------------------------------ throughput
    single_lock = threading.Lock()

    def baseline_search(texts, k):
        with single_lock:  # one request at a time: nothing to coalesce
            return single.search_batch(texts, k=k)

    baseline_qps, baseline_lat = _drive(baseline_search, queries, num_threads)
    sharded_qps, sharded_lat = _drive(
        lambda texts, k: frontend.search(texts, k=k), queries, num_threads
    )
    stats = frontend.broker.stats()

    return {
        "corpus": len(corpus),
        "queries": num_queries,
        "threads": num_threads,
        "shards": num_shards,
        "baseline_qps": baseline_qps,
        "sharded_qps": sharded_qps,
        "speedup": sharded_qps / baseline_qps,
        "baseline_p50_ms": float(np.percentile(baseline_lat, 50)) * 1e3,
        "baseline_p99_ms": float(np.percentile(baseline_lat, 99)) * 1e3,
        "sharded_p50_ms": float(np.percentile(sharded_lat, 50)) * 1e3,
        "sharded_p99_ms": float(np.percentile(sharded_lat, 99)) * 1e3,
        "mean_batch_size": stats["mean_batch_size"],
    }


def print_report(results: dict) -> None:
    print(
        "\n"
        + format_table(
            ["serving mode", "QPS", "p50 ms", "p99 ms"],
            [
                [
                    "single shard + global mutex",
                    results["baseline_qps"],
                    results["baseline_p50_ms"],
                    results["baseline_p99_ms"],
                ],
                [
                    f"{results['shards']} shards + coalescing",
                    results["sharded_qps"],
                    results["sharded_p50_ms"],
                    results["sharded_p99_ms"],
                ],
            ],
            title=(
                f"{results['threads']}-thread search throughput, "
                f"{results['corpus']}-record corpus, k={K} "
                f"(speedup {results['speedup']:.1f}x, "
                f"mean coalesced batch {results['mean_batch_size']:.1f})"
            ),
        )
    )


def test_sharded_serving(benchmark):
    from _scale import once

    results = once(benchmark, run)
    print_report(results)
    assert results["mean_batch_size"] > 1.0, "coalescer never batched"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus, plumbing-only checks (CI-friendly, ~seconds)",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run(corpus_size=1_000, num_queries=160)
    else:
        results = run()
    print_report(results)
    assert results["mean_batch_size"] > 1.0, "coalescer never batched"
    print("\nsharded serving benchmark: ok")


if __name__ == "__main__":
    main()
