"""Streaming-ER benchmark — sustained QPS with bounded index staleness
under a live upsert/delete/search feed (no paper table; see
docs/discovery.md).

Scenario: a dirty-duplicates table is split — half seeds the index, the
rest arrives as a deterministic interleaved feed of upserts, deletions,
and searches replayed through a
:class:`~repro.serve.frontend.ServiceFrontend` (admission control,
metrics).  Writes are buffered and flushed every
``flush_every`` events, the ingest pattern that creates staleness; a
:class:`~repro.serve.metrics.StalenessGauge` stamps each write at
arrival and at flush, so every number below comes from the service's own
metrics registry, not from benchmark-side bookkeeping.

Acceptance targets: sustained search QPS meets the floor, p99 staleness
stays under the bound, the feed actually deleted records mid-stream, and
the write buffer fully drained.  Run as a pytest benchmark for the
full-scale numbers, or as a script for a quick CI smoke check::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming_er.py -q -s
    PYTHONPATH=src python benchmarks/bench_streaming_er.py --smoke
"""

import argparse

from repro.api import SudowoodoConfig, SudowoodoSession
from repro.data.generators import generate_dirty_duplicates
from repro.data.records import serialize_record
from repro.eval import format_table

QPS_FLOOR = 40.0  # sustained completed searches per second
SMOKE_QPS_FLOOR = 10.0
STALENESS_P99_BOUND_S = 2.0  # arrival -> searchable, batched ingest


def _config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=24,
        num_layers=1,
        num_heads=2,
        ffn_dim=48,
        max_seq_len=32,
        vocab_size=1500,
        pretrain_epochs=2,
        pretrain_batch_size=8,
        num_clusters=3,
        corpus_cap=256,
        multiplier=2,
        mlm_warm_start_epochs=0,
        serve_batch_size=32,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def run(
    num_entities: int = 40, num_events: int = 200, flush_every: int = 8
) -> dict:
    bundle = generate_dirty_duplicates(num_entities=num_entities, seed=4)
    corpus = [
        serialize_record(record, bundle.table.schema) for record in bundle.table
    ]
    session = SudowoodoSession(_config())
    session.pretrain(corpus)

    task = session.task("streaming_er").fit(
        bundle,
        num_events=num_events,
        search_fraction=0.5,
        delete_fraction=0.2,
        seed=5,
    )
    frontend = session.serve(task, frontend=True)
    stats = task.predict(frontend=frontend, flush_every=flush_every)

    # Cross-check against the service's own registry: the scorecard must
    # be derived from the metrics the frontend already exports.
    snapshot = frontend.metrics_snapshot()
    staleness = snapshot["histograms"].get("streaming_er.staleness_s", {})
    stats["metrics_staleness_count"] = staleness.get("count", 0)
    stats["metrics_pending_writes"] = snapshot["gauges"].get(
        "streaming_er.pending_writes", -1.0
    )
    return stats


def print_report(stats: dict) -> None:
    print(
        format_table(
            [
                "events",
                "upserts",
                "deletes",
                "searches",
                "qps",
                "stale p50 ms",
                "stale p99 ms",
                "index",
            ],
            [
                [
                    int(stats["events"]),
                    int(stats["upserts"]),
                    int(stats["deletes"]),
                    int(stats["searches"]),
                    stats["qps"],
                    stats["staleness_p50_s"] * 1e3,
                    stats["staleness_p99_s"] * 1e3,
                    int(stats["final_index_size"]),
                ]
            ],
            title=(
                f"streaming ER over {stats['elapsed_s']:.2f}s "
                f"(shed {int(stats['shed'])})"
            ),
            float_digits=1,
        )
    )


def _check(stats: dict, smoke: bool) -> None:
    assert stats["deletes"] > 0, "feed never deleted mid-stream"
    assert stats["upserts"] > 0 and stats["searches_completed"] > 0
    assert stats["pending_writes"] == 0.0, "write buffer did not drain"
    assert stats["metrics_pending_writes"] == 0.0, (
        "registry gauge disagrees with the drained buffer"
    )
    assert stats["metrics_staleness_count"] == (
        stats["upserts"] + stats["deletes"]
    ), "staleness histogram missed writes"
    assert stats["staleness_p99_s"] <= STALENESS_P99_BOUND_S, (
        f"p99 staleness {stats['staleness_p99_s']:.3f}s exceeds "
        f"{STALENESS_P99_BOUND_S:.1f}s"
    )
    floor = SMOKE_QPS_FLOOR if smoke else QPS_FLOOR
    assert stats["qps"] >= floor, (
        f"sustained {stats['qps']:.1f} qps below floor {floor:.1f}"
    )


def test_streaming_er(benchmark):
    from _scale import once

    stats = once(benchmark, run)
    print_report(stats)
    _check(stats, smoke=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short feed, plumbing-only floors (CI-friendly, ~seconds)",
    )
    args = parser.parse_args()
    if args.smoke:
        stats = run(num_entities=12, num_events=60, flush_every=4)
    else:
        stats = run()
    print_report(stats)
    _check(stats, smoke=args.smoke)
    print("\nstreaming ER benchmark: ok")


if __name__ == "__main__":
    main()
