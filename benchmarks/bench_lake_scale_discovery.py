"""Lake-scale discovery benchmark — the incremental profile cache, the
batch scorer, and the streaming dedupe memory model (no paper table; see
docs/discovery.md).

Scenario: a lake of ~1,000 tables (pods of joinable tables under
distinct name prefixes).  A cold pass profiles every column into a
persistent :class:`~repro.discovery.lake.ProfileStore`; then 5% of the
tables mutate (appended corrupted rows) and the lake is re-profiled
twice — once warm through the same store (only changed columns
recomputed) and once cold into a fresh store (the pre-cache baseline).

Acceptance targets:

* warm incremental re-profile is >= 5x faster than the cold re-profile
  (>= 2x in ``--smoke``), recomputes *exactly* the mutated tables'
  columns, and reads (``Table.column_values``) only those columns; a
  re-profile of the unchanged lake is timed beside it, with no floor;
* the batch scorer ranks byte-identically to the per-pair oracle
  (``join._rank_pairwise``) over the delta-maintained live index, and
  scores the same candidate batches >= 5x faster (ANN queries excluded,
  a fresh memo per round) — the floor that fails CI if per-pair work
  creeps back into the batch path;
* after the churn, a ranking on an index whose memo holds the pre-churn
  ranking equals one on a twin index that never ranked (the same two
  updates), and scores only the pairs that ranking lacked — both walls
  printed, no floor;
* streaming dedupe (union-find over an edge *generator*) peaks below
  the materializing networkx oracle and stays near-flat as the edge
  count quadruples.

Run as a pytest benchmark for full-scale numbers, or as a script for a
quick CI smoke check::

    PYTHONPATH=src python -m pytest benchmarks/bench_lake_scale_discovery.py -q -s
    PYTHONPATH=src python benchmarks/bench_lake_scale_discovery.py --smoke
"""

import argparse
import contextlib
import gc
import time
import tracemalloc

import numpy as np

from repro.api import SudowoodoConfig, SudowoodoSession
from repro.data.generators import generate_lake, mutate_lake
from repro.data.records import Table
from repro.discovery import (
    LakeIndex,
    ProfileStore,
    iter_duplicate_clusters,
    profile_lake,
    rank_lake_candidates,
)
from repro.discovery.dedupe import _networkx_clusters
from repro.discovery.join import (
    _rank_batched,
    _rank_pairwise,
    _ScoreMemo,
    profile_tables,
)
from repro.eval import format_table
from repro.serve.sketch import SketchTable

SPEEDUP_FLOOR = 5.0
SMOKE_SPEEDUP_FLOOR = 2.0
# One sort per candidate batch vs one scalar kernel per pair; the same
# floor at smoke and full scale (measured 8-15x at 60 tables, 13x at 1,000;
# the per-anchor NumPy loop this replaced read 0.4-0.6x).
SCORER_SPEEDUP_FLOOR = 5.0
SCORER_ROUNDS = 5
# Union-find holds two O(records) arrays regardless of the edge count;
# allow slack for allocator noise, but 4x the edges must stay well under
# 1.5x the peak.
STREAMING_GROWTH_CEILING = 1.5


def _session(tables) -> SudowoodoSession:
    """A small pretrained session — embedding goes through the real
    encoder, the cost the profile cache exists to avoid."""
    config = SudowoodoConfig(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        max_seq_len=32,
        vocab_size=2000,
        pretrain_epochs=1,
        pretrain_batch_size=16,
        num_clusters=4,
        corpus_cap=128,
        multiplier=2,
        mlm_warm_start_epochs=0,
        seed=0,
    )
    sample = dict(list(tables.items())[:30])
    session = SudowoodoSession(config)
    session.pretrain([p.text for p in profile_tables(sample)])
    return session


def _profile(tables, store, session):
    embed = lambda texts: session.embed(texts, normalize=True)
    started = time.perf_counter()
    lake = profile_lake(tables, store, embed, max_values=8, sketch_k=64)
    return lake, time.perf_counter() - started


def _scorer_seconds(lake, index, k):
    """Median seconds to score the lake's candidate batches per scorer,
    rounds interleaved; the batches are drawn once, so neither side's
    time includes an ANN query, and the batch scorer gets a fresh memo
    every round, so it scores every pair.  The collector is off while
    timing, as in ``timeit``: a full collection of the session's heap
    landing in one 5 ms sample otherwise swings the ratio 2x between
    runs."""
    normalized = lake.normalized.astype(index.config.store_dtype)
    batches = list(index.iter_candidate_pairs(lake.profiles, normalized, k))
    ids = np.arange(len(lake.profiles), dtype=np.int64)
    scorers = {
        "batched": lambda: _rank_batched(
            lake.profiles, normalized, batches, 0.5, 0.0, None, _ScoreMemo(), ids
        ),
        "pairwise": lambda: _rank_pairwise(
            lake.profiles, normalized, batches, 0.5, 0.0, None
        ),
    }
    seconds = {scorer: [] for scorer in scorers}
    gc.collect()
    gc.disable()
    try:
        for _ in range(SCORER_ROUNDS):
            for scorer, samples in seconds.items():
                started = time.perf_counter()
                scorers[scorer]()
                samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return {scorer: float(np.median(samples)) for scorer, samples in seconds.items()}


@contextlib.contextmanager
def _counted_reads():
    """``(table, column)`` of every ``Table.column_values`` call inside."""
    read, column_values = [], Table.column_values

    def counted(table, attribute):
        read.append((table.name, attribute))
        return column_values(table, attribute)

    Table.column_values = counted
    try:
        yield read
    finally:
        Table.column_values = column_values


@contextlib.contextmanager
def _counted_pairs():
    """Pairs through the containment kernel inside the block: ``[count]``."""
    counted, kernel = [0], SketchTable.intersections

    def intersections(table, left, right):
        counted[0] += left.size
        return kernel(table, left, right)

    SketchTable.intersections = intersections
    try:
        yield counted
    finally:
        SketchTable.intersections = kernel


def _timed_rank(lake, index, k):
    """``(ranking, seconds, pairs scored)`` of one batched ranking."""
    gc.collect()
    with _counted_pairs() as scored:
        started = time.perf_counter()
        ranked = rank_lake_candidates(lake, index, k=k)
        seconds = time.perf_counter() - started
    return ranked, seconds, scored[0]


def _values(candidates):
    return [(c.pair, c.score, c.containment, c.cosine) for c in candidates]


def _pair_identities(lake, candidates):
    """Each candidate's two columns as (ref, fingerprint): the same
    identity for a pair of columns the churn left untouched."""
    fingerprints = {p.ref: fp for p, fp in zip(lake.profiles, lake.fingerprints)}
    return {
        tuple((ref, fingerprints[ref]) for ref in candidate.pair)
        for candidate in candidates
    }


def _edge_feed(num_records, num_edges, seed, chunk=2048):
    # Chunked draws keep the feed itself O(chunk) — the point of the
    # memory comparison is that *nothing* holds all edges at once.
    rng = np.random.default_rng(seed)
    remaining = num_edges
    while remaining > 0:
        block = rng.integers(0, num_records, size=(min(chunk, remaining), 2))
        for a, b in block.tolist():
            yield (a, b)
        remaining -= len(block)


def _dedupe_peaks(num_records, num_edges, seed=3):
    """Peak traced bytes: streaming union-find vs materializing oracle."""
    tracemalloc.start()
    streamed = list(
        iter_duplicate_clusters(
            num_records, _edge_feed(num_records, num_edges, seed)
        )
    )
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    materialized = _networkx_clusters(
        num_records, list(_edge_feed(num_records, num_edges, seed))
    )
    _, networkx_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert streamed == materialized, "streaming partition diverged"
    return streaming_peak, networkx_peak


def run(
    num_tables: int = 1000,
    rows: int = 18,
    k: int = 4,
    mutate_fraction: float = 0.05,
    dedupe_records: int = 20000,
    dedupe_edges: int = 50000,
    tmp_root=None,
) -> dict:
    import tempfile

    root = tmp_root or tempfile.mkdtemp(prefix="sudowoodo-lake-bench-")
    from pathlib import Path

    root = Path(root)

    tables = generate_lake(num_tables=num_tables, rows=rows, seed=1).tables
    session = _session(tables)
    store = ProfileStore(root / "cache")
    cold_lake, cold_s = _profile(tables, store, session)

    mutated, names = mutate_lake(tables, fraction=mutate_fraction, seed=2)
    changed_refs = [(name, column) for name in names for column in mutated[name].schema]
    changed_columns = len(changed_refs)

    # Pre-cache baseline: re-profile the mutated lake from scratch — a
    # fresh store AND a fresh embedding cache around the same encoder
    # weights (``adopt`` shares weights, not the warm text cache).
    baseline = SudowoodoSession(session.config).adopt(session.encoder)
    _, full_s = _profile(mutated, ProfileStore(root / "full"), baseline)
    # Incremental: the live store from the cold pass, deltas only.
    with _counted_reads() as warm_read:
        warm_lake, warm_s = _profile(mutated, store, session)
    # Nothing changed since: every table is handed back unread.
    with _counted_reads() as unchanged_read:
        _, unchanged_s = _profile(mutated, store, session)

    assert warm_lake.computed == changed_columns, (
        f"warm pass recomputed {warm_lake.computed} columns, "
        f"expected exactly the {changed_columns} mutated ones"
    )

    # The live index ranks the lake before the churn (filling its memo),
    # then syncs the churn as a delta; its twin takes the same two updates
    # and never ranks, so it meets the churned lake with a cold memo.
    index, twin = LakeIndex(SudowoodoConfig()), LakeIndex(SudowoodoConfig())
    for live in (index, twin):
        live.update(cold_lake)
    before = rank_lake_candidates(cold_lake, index, k=k)
    for live in (index, twin):
        live.update(warm_lake)
    cold_rank, cold_rank_s, cold_scored = _timed_rank(warm_lake, twin, k)
    warm_rank, warm_rank_s, warm_scored = _timed_rank(warm_lake, index, k)
    new_pairs = _pair_identities(warm_lake, warm_rank) - _pair_identities(
        cold_lake, before
    )

    batched = rank_lake_candidates(warm_lake, index, k=k)
    normalized = warm_lake.normalized.astype(index.config.store_dtype)
    batches = index.iter_candidate_pairs(warm_lake.profiles, normalized, k)
    pairwise = _rank_pairwise(warm_lake.profiles, normalized, batches, 0.5, 0.0, None)
    scorer_identical = [(c.pair, c.score) for c in batched] == [
        (c.pair, c.score) for c in pairwise
    ]

    scorer_s = _scorer_seconds(warm_lake, index, k)

    stream_1, nx_1 = _dedupe_peaks(dedupe_records, dedupe_edges)
    stream_4, nx_4 = _dedupe_peaks(dedupe_records, 4 * dedupe_edges)

    return {
        "num_tables": num_tables,
        "num_columns": len(warm_lake.profiles),
        "changed_columns": changed_columns,
        "recomputed": warm_lake.computed,
        "cold_s": cold_s,
        "full_s": full_s,
        "warm_s": warm_s,
        "unchanged_s": unchanged_s,
        "reads_only_mutated": sorted(warm_read) == sorted(changed_refs),
        "unchanged_reads": len(unchanged_read),
        "speedup": full_s / max(warm_s, 1e-9),
        "num_candidates": len(batched),
        "scorer_identical": scorer_identical,
        "batched_score_s": scorer_s["batched"],
        "pairwise_score_s": scorer_s["pairwise"],
        "scorer_speedup": scorer_s["pairwise"] / max(scorer_s["batched"], 1e-9),
        "dedupe_records": dedupe_records,
        "dedupe_edges": dedupe_edges,
        "streaming_peak_mb": stream_1 / 2**20,
        "networkx_peak_mb": nx_1 / 2**20,
        "streaming_peak_4x_mb": stream_4 / 2**20,
        "networkx_peak_4x_mb": nx_4 / 2**20,
        "streaming_growth": stream_4 / max(stream_1, 1),
        "memo_identical": _values(warm_rank) == _values(cold_rank),
        "cold_rank_s": cold_rank_s,
        "warm_rank_s": warm_rank_s,
        "cold_scored": cold_scored,
        "warm_scored": warm_scored,
        "new_pairs": len(new_pairs),
    }


def print_report(results: dict) -> None:
    print(
        format_table(
            ["pass", "seconds", "columns / pairs scored"],
            [
                ["cold profile", results["cold_s"], results["num_columns"]],
                ["full re-profile", results["full_s"], results["num_columns"]],
                ["warm incremental", results["warm_s"], results["recomputed"]],
                ["unchanged re-profile", results["unchanged_s"], results["unchanged_reads"]],
                ["score, per pair", results["pairwise_score_s"], results["num_candidates"]],
                ["score, batched", results["batched_score_s"], results["num_candidates"]],
                ["rank, cold memo", results["cold_rank_s"], results["cold_scored"]],
                ["rank, warm memo", results["warm_rank_s"], results["warm_scored"]],
            ],
            title=(
                f"lake profile cache ({results['num_tables']} tables, "
                f"{results['changed_columns']} columns mutated, "
                f"{results['speedup']:.1f}x speedup; batch scorer "
                f"{results['scorer_speedup']:.1f}x the per-pair oracle)"
            ),
            float_digits=3,
        )
    )
    print(
        format_table(
            ["edges", "streaming MB", "networkx MB"],
            [
                [
                    results["dedupe_edges"],
                    results["streaming_peak_mb"],
                    results["networkx_peak_mb"],
                ],
                [
                    4 * results["dedupe_edges"],
                    results["streaming_peak_4x_mb"],
                    results["networkx_peak_4x_mb"],
                ],
            ],
            title=(
                f"streaming dedupe peaks ({results['dedupe_records']} records, "
                f"growth {results['streaming_growth']:.2f}x; batch scorer "
                f"identical: {results['scorer_identical']}, "
                f"{results['num_candidates']} candidates)"
            ),
            float_digits=2,
        )
    )


def _check(results: dict, smoke: bool) -> None:
    floor = SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR
    assert results["speedup"] >= floor, (
        f"warm re-profile only {results['speedup']:.1f}x faster than cold "
        f"(floor {floor:.1f}x)"
    )
    assert results["recomputed"] == results["changed_columns"], (
        "cache invalidation is not fingerprint-granular"
    )
    assert results["reads_only_mutated"], (
        "warm re-profile read columns of tables the churn did not touch"
    )
    assert results["scorer_identical"], (
        "batch scorer diverged from the per-pair oracle"
    )
    assert results["scorer_speedup"] >= SCORER_SPEEDUP_FLOOR, (
        f"batch scorer only {results['scorer_speedup']:.1f}x the per-pair "
        f"oracle (floor {SCORER_SPEEDUP_FLOOR:.1f}x)"
    )
    assert results["num_candidates"] > 0, "no candidates proposed"
    assert results["memo_identical"], "warm-memo ranking diverged from cold"
    assert results["cold_scored"] == results["num_candidates"], (
        "a cold memo must score every pair"
    )
    assert results["warm_scored"] == results["new_pairs"], (
        f"warm memo scored {results['warm_scored']} pairs, but only "
        f"{results['new_pairs']} are new since the last ranking"
    )
    assert results["streaming_peak_mb"] < results["networkx_peak_mb"], (
        "streaming dedupe peaked above the materializing oracle"
    )
    assert results["streaming_growth"] < STREAMING_GROWTH_CEILING, (
        f"streaming dedupe peak grew {results['streaming_growth']:.2f}x "
        f"with 4x the edges (ceiling {STREAMING_GROWTH_CEILING:.1f}x)"
    )


def test_lake_scale_discovery(benchmark, tmp_path):
    from _scale import once

    results = once(benchmark, lambda: run(tmp_root=tmp_path))
    print_report(results)
    _check(results, smoke=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny lake, relaxed speedup floor (CI-friendly, ~seconds)",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run(
            num_tables=60,
            rows=12,
            mutate_fraction=0.05,
            dedupe_records=4000,
            dedupe_edges=10000,
        )
    else:
        results = run()
    print_report(results)
    _check(results, smoke=args.smoke)
    print("\nlake-scale discovery benchmark: ok")


if __name__ == "__main__":
    main()
