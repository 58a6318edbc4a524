"""Incremental index maintenance benchmark — upsert path vs rebuild, and
HNSW vs exact recall and query latency, on a generated 10k-record corpus
(no paper table; see docs/benchmarks.md).

Two acceptance targets for the streaming serving layer:

* **Upsert speed** — streaming 1k new records into a warm
  ``EmbeddingStore`` + mutable ANN backend (encode only the delta,
  patch the index in place) must be at least **5x** faster than
  rebuilding the store and index from scratch over the grown corpus.
* **HNSW quality** — the graph backend must retain >= 0.9 of the exact
  backend's top-k neighbours.  Both single-query latencies are printed
  but no longer compared: since the exact backend scores unit rows with
  one GEMM (~0.1 ms at 9,000 x 32) a pure-Python graph walk does not
  beat it at this size (the old ``hnsw < exact`` floor measured the
  per-query corpus renormalisation that scan no longer does).

The encoder is randomly initialised (maintenance cost does not depend on
representation quality).  Run as a pytest benchmark for the full-scale
numbers, or as a script for a quick CI smoke check::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental_index.py -q -s
    PYTHONPATH=src python benchmarks/bench_incremental_index.py --smoke
"""

import argparse
import time

import numpy as np

from repro import SudowoodoConfig, SudowoodoEncoder
from repro.core import build_tokenizer
from repro.data.generators import load_em_benchmark
from repro.eval import format_table
from repro.serve import EmbeddingStore, build_backend

K = 10
QUERY_SAMPLE = 200  # single-query latency sample size


def _config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        max_seq_len=32,
        vocab_size=2000,
        serve_batch_size=32,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def _center_normalize(raw: np.ndarray, mean: np.ndarray) -> np.ndarray:
    centered = raw - mean
    norms = np.maximum(np.linalg.norm(centered, axis=1, keepdims=True), 1e-12)
    return centered / norms


def run(corpus_size: int = 10_000, upsert_size: int = 1_000) -> dict:
    """Measure upsert-vs-rebuild latency and HNSW-vs-exact quality."""
    dataset = load_em_benchmark(
        "AB", scale=corpus_size / 2_000.0, max_table_size=corpus_size // 2
    )
    texts = [dataset.serialize_a(i) for i in range(len(dataset.table_a))]
    texts += [dataset.serialize_b(j) for j in range(len(dataset.table_b))]
    base, delta = texts[:-upsert_size], texts[-upsert_size:]

    config = _config()
    encoder = SudowoodoEncoder(config, build_tokenizer(texts, config))
    encoder.embed_items(base[:64])  # warm up caches / thread pools

    # ------------------------------------------------------ initial corpus
    store = EmbeddingStore(encoder, batch_size=config.serve_batch_size)
    ids, raw = store.upsert_batch(base)
    mean = raw.mean(axis=0, keepdims=True)
    vectors = _center_normalize(raw, mean)
    unique_ids, first_rows = np.unique(ids, return_index=True)

    exact = build_backend(config, name="exact").build(np.zeros((0, config.dim)))
    exact.add(unique_ids, vectors[first_rows])
    hnsw = build_backend(config, name="hnsw")
    hnsw_build_start = time.perf_counter()
    hnsw.build(np.zeros((0, config.dim)))
    hnsw.add(unique_ids, vectors[first_rows])
    hnsw_build_seconds = time.perf_counter() - hnsw_build_start

    # ------------------------------------------- HNSW vs exact, per query
    queries = vectors[:: max(1, vectors.shape[0] // QUERY_SAMPLE)][:QUERY_SAMPLE]
    start = time.perf_counter()
    exact_results = [exact.query(query[np.newaxis], K)[0][0] for query in queries]
    exact_query_us = (time.perf_counter() - start) / len(queries) * 1e6
    start = time.perf_counter()
    hnsw_results = [hnsw.query(query[np.newaxis], K)[0][0] for query in queries]
    hnsw_query_us = (time.perf_counter() - start) / len(queries) * 1e6
    hits = sum(
        len(
            set(int(i) for i in exact_results[row] if i >= 0)
            & set(int(i) for i in hnsw_results[row] if i >= 0)
        )
        for row in range(len(queries))
    )
    total = sum(
        sum(1 for i in exact_results[row] if i >= 0) for row in range(len(queries))
    )
    recall = hits / total if total else 0.0

    # ------------------------------------- upsert path vs full rebuild
    start = time.perf_counter()
    delta_ids, delta_raw = store.upsert_batch(delta)  # encodes only the delta
    delta_vectors = _center_normalize(delta_raw, mean)  # frozen mean
    unique_delta, delta_rows = np.unique(delta_ids, return_index=True)
    fresh_mask = ~np.isin(unique_delta, unique_ids)
    hnsw.add(unique_delta[fresh_mask], delta_vectors[delta_rows][fresh_mask])
    upsert_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuild_store = EmbeddingStore(encoder, batch_size=config.serve_batch_size)
    all_ids, all_raw = rebuild_store.upsert_batch(texts)  # re-encode everything
    all_vectors = _center_normalize(all_raw, all_raw.mean(axis=0, keepdims=True))
    rebuilt = build_backend(config, name="hnsw")
    unique_all, all_rows = np.unique(all_ids, return_index=True)
    rebuilt.build(np.zeros((0, config.dim)))
    rebuilt.add(unique_all, all_vectors[all_rows])
    rebuild_seconds = time.perf_counter() - start

    return {
        "corpus": len(base),
        "upserts": len(delta),
        "index_size": len(hnsw),
        "exact_query_us": exact_query_us,
        "hnsw_query_us": hnsw_query_us,
        "hnsw_build_seconds": hnsw_build_seconds,
        "recall": recall,
        "upsert_seconds": upsert_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / upsert_seconds,
    }


def print_report(results: dict) -> None:
    print(
        "\n"
        + format_table(
            ["backend", "per-query us", "recall vs exact"],
            [
                ["exact", results["exact_query_us"], 1.0],
                ["hnsw", results["hnsw_query_us"], results["recall"]],
            ],
            title=(
                f"Single-query blocking latency at k={K} "
                f"({results['corpus']}-record corpus)"
            ),
        )
    )
    print(
        "\n"
        + format_table(
            ["path", "seconds"],
            [
                [f"upsert {results['upserts']} records (delta)", results["upsert_seconds"]],
                ["rebuild store + index from scratch", results["rebuild_seconds"]],
            ],
            title=(
                f"Incremental maintenance, speedup = {results['speedup']:.1f}x "
                f"(index size {results['index_size']})"
            ),
        )
    )


def test_incremental_index(benchmark):
    from _scale import once

    results = once(benchmark, run)
    print_report(results)
    assert results["speedup"] >= 5.0, (
        f"upsert path only {results['speedup']:.1f}x faster than rebuild"
    )
    assert results["recall"] >= 0.9, (
        f"HNSW recall {results['recall']:.3f} below 0.9 of exact"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus, plumbing-only checks (CI-friendly, ~seconds)",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run(corpus_size=1_000, upsert_size=100)
    else:
        results = run()
    print_report(results)
    assert results["speedup"] >= (2.0 if args.smoke else 5.0), results["speedup"]
    assert results["recall"] >= 0.9, results["recall"]
    print("\nincremental index benchmark: ok")


if __name__ == "__main__":
    main()
