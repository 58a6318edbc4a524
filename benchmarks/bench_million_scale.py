"""Million-record storage benchmark — IVF-PQ + memmap store vs the dense
serve path (no paper table; see docs/benchmarks.md).

The ROADMAP north star is "millions of users": this benchmark builds a
large synthetic embedding corpus (clustered unit vectors — the shape a
contrastively trained encoder emits and IVF partitioning thrives on) and
measures what the storage tier of that story costs:

* **Memory** — the IVF-PQ index (PQ codes + ids + codebooks) and the
  int8 :class:`~repro.serve.vecstore.MemmapVectorStore` payload vs the
  dense float64 matrix the seed's serve path holds in RAM.  Acceptance:
  the index is at least **8x** smaller than dense.
* **Recall** — IVF-PQ top-10 overlap with the exact backend at the
  configured ``nprobe``.  Acceptance: at least **0.8**.
* **QPS and latency** — batched query throughput of exact / HNSW /
  IVF-PQ on the same corpus, next to the median latency of 1-row and
  2-row calls (the request sizes a serving front end sees).  The
  exact-vs-HNSW latency pair is where HNSW's crossover shows
  (docs/serving.md, "when to pick hnsw"); HNSW's per-row insert cost
  keeps it out of the smoke profile.

Run as a pytest benchmark for the full-scale numbers, or as a script for
a quick CI smoke check::

    PYTHONPATH=src python -m pytest benchmarks/bench_million_scale.py -q -s
    PYTHONPATH=src python benchmarks/bench_million_scale.py --smoke
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import SudowoodoConfig
from repro.eval import format_table
from repro.serve import MemmapVectorStore, build_backend

K = 10
NUM_QUERIES = 100


def synthetic_corpus(n: int, dim: int, num_clusters: int, seed: int = 0) -> np.ndarray:
    """Clustered unit vectors: ``num_clusters`` Gaussian blobs, L2-normalized."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_clusters, dim))
    assignments = rng.integers(num_clusters, size=n)
    rows = centers[assignments] + 0.15 * rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _time_queries(backend, queries: np.ndarray) -> float:
    start = time.perf_counter()
    backend.query(queries, K)
    elapsed = time.perf_counter() - start
    return queries.shape[0] / elapsed


def _call_latency_ms(backend, queries: np.ndarray, rows_per_call: int) -> float:
    """Median wall time of one ``query`` call carrying ``rows_per_call`` rows."""
    times = []
    for begin in range(0, queries.shape[0] - rows_per_call + 1, rows_per_call):
        start = time.perf_counter()
        backend.query(queries[begin : begin + rows_per_call], K)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def _recall(ids: np.ndarray, exact_ids: np.ndarray) -> float:
    overlaps = [
        len(set(a[a >= 0].tolist()) & set(e[e >= 0].tolist())) / K
        for a, e in zip(ids, exact_ids)
    ]
    return float(np.mean(overlaps))


def run(
    corpus_size: int = 200_000,
    dim: int = 32,
    num_clusters: int = 64,
    include_hnsw: bool = True,
) -> dict:
    """Build every backend over one synthetic corpus; measure RSS/recall/QPS."""
    config = SudowoodoConfig(
        dim=dim,
        ivf_cells=min(64, max(4, corpus_size // 256)),
        pq_subvectors=16,
        pq_bits=8,
        nprobe=8,
        seed=0,
    )
    rows = synthetic_corpus(corpus_size, dim, num_clusters)
    queries = rows[:: max(1, corpus_size // NUM_QUERIES)][:NUM_QUERIES]
    dense_bytes = rows.shape[0] * dim * 8  # the seed's float64 matrix

    backends = {}
    timings = {}
    for name in ["exact"] + (["hnsw"] if include_hnsw else []) + ["ivfpq"]:
        backend = build_backend(config, name=name, sharded=False)
        start = time.perf_counter()
        backend.build(rows)
        timings[name] = time.perf_counter() - start
        backends[name] = backend

    exact_ids, _ = backends["exact"].query(queries, K)
    results = {"corpus": corpus_size, "dim": dim, "dense_mb": dense_bytes / 2**20}
    rows_out = []
    for name, backend in backends.items():
        qps = _time_queries(backend, queries)
        one_row_ms = _call_latency_ms(backend, queries, 1)
        two_row_ms = _call_latency_ms(backend, queries, 2)
        recall = (
            1.0 if name == "exact" else _recall(backend.query(queries, K)[0], exact_ids)
        )
        results[name] = {
            "qps": qps,
            "one_row_ms": one_row_ms,
            "two_row_ms": two_row_ms,
            "recall": recall,
            "build_s": timings[name],
        }
        rows_out.append(
            [
                name,
                f"{timings[name]:.1f}",
                f"{qps:.0f}",
                f"{one_row_ms:.3f}",
                f"{two_row_ms:.3f}",
                f"{recall:.3f}",
            ]
        )
    results["table"] = rows_out

    ivfpq_bytes = backends["ivfpq"].memory_bytes()
    results["ivfpq_mb"] = ivfpq_bytes / 2**20
    results["compression"] = dense_bytes / ivfpq_bytes
    results["ivfpq_trained"] = backends["ivfpq"].trained

    # Memmap store: the on-disk int8 payload that replaces the in-RAM
    # dense matrix, plus a read-back sanity check through the OS pager.
    with tempfile.TemporaryDirectory() as tmp:
        store = MemmapVectorStore.create(Path(tmp) / "corpus", dim=dim, dtype="int8")
        start = time.perf_counter()
        for begin in range(0, corpus_size, 8192):
            stop = min(begin + 8192, corpus_size)
            store.append(np.arange(begin, stop), rows[begin:stop])
        results["memmap_write_s"] = time.perf_counter() - start
        results["memmap_mb"] = store.nbytes / 2**20
        results["memmap_compression"] = dense_bytes / store.nbytes
        sample = store.get(list(range(0, corpus_size, max(1, corpus_size // 64))))
        results["memmap_max_err"] = float(
            np.abs(sample - rows[:: max(1, corpus_size // 64)][: len(sample)]).max()
        )
    return results


def print_report(results: dict) -> None:
    print(
        "\n"
        + format_table(
            ["backend", "build s", "QPS", "1-row ms", "2-row ms", "recall@10 vs exact"],
            results["table"],
            title=(
                f"ANN backends on {results['corpus']} synthetic "
                f"{results['dim']}-d vectors (k={K})"
            ),
        )
    )
    print(
        "\n"
        + format_table(
            ["storage", "MB", "vs dense float64"],
            [
                ["dense float64 (seed)", f"{results['dense_mb']:.1f}", "1.0x"],
                [
                    "ivfpq codes+ids+codebooks",
                    f"{results['ivfpq_mb']:.1f}",
                    f"{results['compression']:.1f}x",
                ],
                [
                    "memmap int8 (on disk)",
                    f"{results['memmap_mb']:.1f}",
                    f"{results['memmap_compression']:.1f}x",
                ],
            ],
            title=(
                f"Vector storage (memmap int8 max reconstruction error "
                f"{results['memmap_max_err']:.4f})"
            ),
        )
    )


def _assert_acceptance(results: dict) -> None:
    assert results["ivfpq_trained"], "corpus never crossed the train threshold"
    assert results["compression"] >= 8.0, (
        f"IVF-PQ only {results['compression']:.1f}x smaller than dense float64"
    )
    assert results["ivfpq"]["recall"] >= 0.8, (
        f"IVF-PQ recall {results['ivfpq']['recall']:.3f} below 0.8"
    )
    assert results["memmap_compression"] >= 7.0, (
        f"memmap int8 only {results['memmap_compression']:.1f}x smaller"
    )
    assert results["memmap_max_err"] < 0.02, results["memmap_max_err"]


def test_million_scale(benchmark):
    from _scale import FULL, once

    func = run if FULL else (lambda: run(corpus_size=40_000))
    results = once(benchmark, func)
    print_report(results)
    _assert_acceptance(results)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="12k-row corpus without HNSW (CI-friendly, under a minute)",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run(corpus_size=12_000, num_clusters=32, include_hnsw=False)
    else:
        results = run()
    print_report(results)
    _assert_acceptance(results)
    print("\nmillion-scale storage benchmark: ok")


if __name__ == "__main__":
    main()
