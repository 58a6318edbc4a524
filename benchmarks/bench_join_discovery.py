"""Join-discovery benchmark — ranked joinable-column recall over a
generated table lake (no paper table; see docs/discovery.md).

Scenario: a lake of tables with planted joinable column groups
(``generate_joinable_tables``: shared value pools under different column
names, plus per-table noise columns).  One pre-trained session profiles
every column (serialized text + containment sketch), embeds through the
shared store, and ranks cross-table pairs with the blended
containment/cosine score — the ``join_discovery`` task (one round of the
lake pipeline) end to end.

Acceptance targets: recall@T of the ranking (T = number of true
joinable pairs) meets the floor, and the ranking is byte-identical
across ``num_shards`` in {1, 2, 3} (one session per shard count, each
adopting the pre-trained encoder) — the shard-invariance contract of the
exact backend.  Run as a pytest benchmark for full-scale numbers, or
as a script for a quick CI smoke check::

    PYTHONPATH=src python -m pytest benchmarks/bench_join_discovery.py -q -s
    PYTHONPATH=src python benchmarks/bench_join_discovery.py --smoke
"""

import argparse
import time
from dataclasses import replace

from repro.api import SudowoodoConfig, SudowoodoSession
from repro.data.generators import generate_joinable_tables
from repro.discovery.join import profile_tables
from repro.eval import format_table

RECALL_FLOOR = 0.6
SMOKE_RECALL_FLOOR = 0.4  # tiny encoder, tiny lake: plumbing + sanity


def _config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=24,
        num_layers=1,
        num_heads=2,
        ffn_dim=48,
        max_seq_len=32,
        vocab_size=1500,
        pretrain_epochs=3,
        pretrain_batch_size=8,
        num_clusters=3,
        corpus_cap=256,
        multiplier=2,
        mlm_warm_start_epochs=0,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def run(num_tables: int = 5, rows: int = 40, k: int = 8) -> dict:
    bundle = generate_joinable_tables(
        num_tables=num_tables, rows=rows, num_domains=4, seed=1
    )
    profiles = profile_tables(bundle.tables)
    session = SudowoodoSession(_config())

    started = time.perf_counter()
    session.pretrain([profile.text for profile in profiles])
    pretrain_s = time.perf_counter() - started

    started = time.perf_counter()
    task = session.task("join_discovery").fit(bundle, k=k)
    fit_s = time.perf_counter() - started
    metrics = task.evaluate()

    rankings = []
    for num_shards in (1, 2, 3):
        config = replace(session.config, num_shards=num_shards)
        sharded = SudowoodoSession(config).adopt(session.encoder)
        sharded = sharded.task("join_discovery").fit(bundle, k=k)
        rankings.append(
            [(c.pair, round(c.score, 12)) for c in sharded.predict()]
        )

    return {
        "num_tables": num_tables,
        "num_columns": len(profiles),
        "truth_pairs": len(bundle.joinable),
        "num_candidates": metrics["num_candidates"],
        "recall_at": metrics["recall_at"],
        "precision_at": metrics["precision_at"],
        "shard_invariant": rankings[0] == rankings[1] == rankings[2],
        "pretrain_s": pretrain_s,
        "fit_s": fit_s,
    }


def print_report(results: dict) -> None:
    print(
        format_table(
            ["tables", "columns", "truth", "candidates", "recall@T", "prec@T"],
            [
                [
                    results["num_tables"],
                    results["num_columns"],
                    results["truth_pairs"],
                    int(results["num_candidates"]),
                    results["recall_at"],
                    results["precision_at"],
                ]
            ],
            title=(
                f"join discovery (pretrain {results['pretrain_s']:.1f}s, "
                f"fit {results['fit_s']:.1f}s, shard-invariant: "
                f"{results['shard_invariant']})"
            ),
            float_digits=2,
        )
    )


def _check(results: dict, smoke: bool) -> None:
    assert results["shard_invariant"], (
        "join rankings changed with the shard count"
    )
    assert results["num_candidates"] > 0, "no candidates proposed"
    floor = SMOKE_RECALL_FLOOR if smoke else RECALL_FLOOR
    assert results["recall_at"] >= floor, (
        f"recall@T {results['recall_at']:.2f} below floor {floor:.2f}"
    )


def test_join_discovery(benchmark):
    from _scale import once

    results = once(benchmark, run)
    print_report(results)
    _check(results, smoke=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny lake, plumbing-only floors (CI-friendly, ~seconds)",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run(num_tables=3, rows=20, k=5)
    else:
        results = run()
    print_report(results)
    _check(results, smoke=args.smoke)
    print("\njoin discovery benchmark: ok")


if __name__ == "__main__":
    main()
