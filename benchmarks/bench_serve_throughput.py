"""Serving microbenchmark — batched vs per-record encoding on a generated
10k-record corpus (no paper table; see docs/benchmarks.md).

Acceptance targets: batched ``EmbeddingStore`` encoding must be >= 2x the
per-record throughput of calling the encoder one record at a time, and a
warm re-read must be served from the cache without a single re-encode.
The encoder is randomly initialised (serving throughput does not depend
on representation quality), so the benchmark runs in well under a minute
on CPU.  Backend speed and recall live in ``bench_million_scale.py``.
"""

import time

from _scale import once

from repro import SudowoodoConfig, SudowoodoEncoder
from repro.core import build_tokenizer
from repro.data.generators import load_em_benchmark
from repro.eval import format_table
from repro.serve import EmbeddingStore

MAX_TABLE = 5_000  # 5k + 5k records = the paper's fixed 10k corpus size
PER_RECORD_SAMPLE = 500


def test_serve_throughput(benchmark):
    def run():
        dataset = load_em_benchmark("AB", scale=5.0, max_table_size=MAX_TABLE)
        texts_a = [dataset.serialize_a(i) for i in range(len(dataset.table_a))]
        texts_b = [dataset.serialize_b(j) for j in range(len(dataset.table_b))]
        corpus = texts_a + texts_b

        config = SudowoodoConfig(
            dim=32,
            num_layers=2,
            num_heads=4,
            ffn_dim=64,
            max_seq_len=32,
            vocab_size=2000,
            serve_batch_size=32,
            seed=0,
        )
        encoder = SudowoodoEncoder(config, build_tokenizer(corpus, config))
        encoder.embed_items(corpus[:64])  # warm up caches / thread pools

        # -- per-record path: one encoder call per record (request-at-a-time)
        sample = corpus[:PER_RECORD_SAMPLE]
        start = time.perf_counter()
        for text in sample:
            encoder.embed_items([text], batch_size=1, normalize=False)
        per_record_rps = len(sample) / (time.perf_counter() - start)

        # -- batched path: EmbeddingStore chunks the whole corpus
        store = EmbeddingStore(encoder, batch_size=config.serve_batch_size)
        start = time.perf_counter()
        store.embed_batch(texts_a)
        store.embed_batch(texts_b)
        batched_rps = len(corpus) / (time.perf_counter() - start)

        # -- warm-cache path: every vector served from the fingerprint cache
        misses_after_batched = store.stats()["misses"]
        start = time.perf_counter()
        store.embed_batch(corpus)
        cached_rps = len(corpus) / (time.perf_counter() - start)
        misses_after_warm = store.stats()["misses"]

        return {
            "corpus": len(corpus),
            "per_record_rps": per_record_rps,
            "batched_rps": batched_rps,
            "cached_rps": cached_rps,
            "speedup": batched_rps / per_record_rps,
            "misses_after_batched": misses_after_batched,
            "misses_after_warm": misses_after_warm,
        }

    results = once(benchmark, run)

    print(
        "\n"
        + format_table(
            ["path", "records/s"],
            [
                ["per-record encode", results["per_record_rps"]],
                ["batched EmbeddingStore", results["batched_rps"]],
                ["warm cache re-read", results["cached_rps"]],
            ],
            title=f"Serving throughput ({results['corpus']}-record corpus), "
            f"batched speedup = {results['speedup']:.2f}x",
        )
    )

    assert results["speedup"] >= 2.0, (
        f"batched encoding only {results['speedup']:.2f}x per-record"
    )
    # The warm read must not re-encode a single record.
    assert results["misses_after_warm"] == results["misses_after_batched"]
    assert results["cached_rps"] > results["batched_rps"]
