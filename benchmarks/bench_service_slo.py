"""Admission-control SLO benchmark — load shedding keeps admitted-request
tail latency bounded under overload (no paper table; see
docs/benchmarks.md).

Scenario: *open-loop* traffic — requests arrive on their own schedule at
~3x the service's measured capacity, whether or not earlier requests
finished (closed-loop clients, as in ``bench_sharded_serving``, slow
down when the service does and therefore cannot produce sustained
overload).  Two :class:`~repro.serve.frontend.ServiceFrontend` profiles
face the same burst schedule:

* **no shedding** (``max_queue_depth=None``) — every request is
  admitted; the queue grows for the whole run and late arrivals inherit
  the entire backlog, so p99 latency scales with run length instead of
  service time.
* **shedding** (bounded ``max_queue_depth``) — beyond the bound,
  arrivals are rejected instantly with typed ``Overloaded``; the backlog
  an admitted request can sit behind is capped, so admitted p99 stays
  within a capacity-derived SLO.

Each profile runs ``TRIALS`` times on the same schedule, alternating
which one goes first, and every latency figure below is the median of
the per-trial values: one trial's p99 is a handful of requests, so a
single trial on a loaded 2-core box can invert the comparison.

Acceptance targets: with shedding, admitted p99 <= SLO (4x the
worst-case bounded backlog drain time) while the no-shedding baseline
exceeds that same SLO; shedding actually triggered; nothing failed.  Run
as a pytest benchmark for the full-scale numbers, or as a script for a
quick CI smoke check::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_slo.py -q -s
    PYTHONPATH=src python benchmarks/bench_service_slo.py --smoke
"""

import argparse
import threading
import time

import numpy as np

from repro import SudowoodoConfig, SudowoodoEncoder
from repro.core import build_tokenizer
from repro.eval import format_table
from repro.serve import MatchService, Overloaded, ServiceFrontend

K = 10
MAX_BATCH = 4  # small batches keep measured capacity low and stable
MAX_QUEUE_DEPTH = 8
OVERLOAD_FACTOR = 3.0
BURST = 20  # requests dispatched per burst of the open-loop schedule
TRIALS = 5  # runs of each profile; the checks read per-trial medians
CAPACITY_READINGS = 5  # capacity is the best of these timed readings


def _config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        max_seq_len=32,
        vocab_size=2000,
        serve_batch_size=32,
        num_shards=2,
        coalesce_window_ms=1.0,
        max_coalesce_batch=MAX_BATCH,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def _make_frontend(encoder, corpus, max_queue_depth):
    config = _config(max_queue_depth=max_queue_depth)
    service = MatchService(encoder, config=config)
    service.index_records(corpus)
    return ServiceFrontend(service)


def _measure_capacity(frontend, queries) -> float:
    """Sustainable queries/second through full ``MAX_BATCH`` batches.

    The best of ``CAPACITY_READINGS`` readings of 8 rounds each: other
    work on the machine only ever slows a reading down, and one slow
    reading would set the offered load too low to overload the service.
    """
    batch = queries[:MAX_BATCH]
    frontend.service.search_batch(batch, K)  # warm-up
    rounds = 8
    best = 0.0
    for _ in range(CAPACITY_READINGS):
        start = time.perf_counter()
        for _ in range(rounds):
            frontend.service.search_batch(batch, K)
        best = max(best, rounds * len(batch) / (time.perf_counter() - start))
    return best


def _open_loop(frontend, queries, rate_qps):
    """Fire every query at ``rate_qps`` regardless of completions.

    Requests dispatch in bursts of ``BURST`` on their own threads; the
    schedule never waits for the service, which is what makes the
    overload real.  Returns admitted latencies plus shed/error counts.
    """
    latencies = []
    shed = [0]
    errors = []
    lock = threading.Lock()
    threads = []
    interval = BURST / rate_qps
    start = time.perf_counter()

    def fire(text):
        begin = time.perf_counter()
        try:
            frontend.search([text], k=K)
        except Overloaded:
            with lock:
                shed[0] += 1
            return
        except BaseException as exc:  # noqa: BLE001 - report, don't mask
            with lock:
                errors.append(exc)
            return
        with lock:
            latencies.append(time.perf_counter() - begin)

    for burst_index in range(0, len(queries), BURST):
        due = start + (burst_index / BURST) * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        for text in queries[burst_index : burst_index + BURST]:
            thread = threading.Thread(target=fire, args=(text,), daemon=True)
            thread.start()
            threads.append(thread)
    for thread in threads:
        thread.join(timeout=120.0)
    return np.asarray(latencies), shed[0], errors


def run(corpus_size: int = 2_000, num_queries: int = 400) -> dict:
    """Open-loop overload against shedding vs no-shedding frontends."""
    corpus = [
        f"[COL] name [VAL] item-{i} [COL] bucket [VAL] b{i % 17}"
        for i in range(corpus_size)
    ]
    # Novel query texts: every request pays the encoder, as unbounded
    # production query traffic does.
    queries = [
        f"{corpus[i % len(corpus)]} [COL] variant [VAL] q{i}"
        for i in range(num_queries)
    ]
    config = _config()
    encoder = SudowoodoEncoder(config, build_tokenizer(corpus, config))
    encoder.embed_items(corpus[:64])  # warm up caches / thread pools

    shedding = _make_frontend(encoder, corpus, MAX_QUEUE_DEPTH)
    baseline = _make_frontend(encoder, corpus, None)

    capacity = _measure_capacity(shedding, queries)
    rate = OVERLOAD_FACTOR * capacity
    # SLO: 4x the time to drain a full bounded backlog plus one batch —
    # the worst queue an *admitted* request can possibly sit behind
    # (the 4x absorbs coalescing-window waits and scheduler jitter).
    slo_s = 4.0 * (MAX_QUEUE_DEPTH + MAX_BATCH) / capacity

    trials = {"baseline": [], "shed": []}
    for trial in range(TRIALS):
        arms = [("baseline", baseline), ("shed", shedding)]
        for name, frontend in arms if trial % 2 == 0 else arms[::-1]:
            latencies, shed, errors = _open_loop(frontend, queries, rate)
            assert not errors, errors
            trials[name].append((latencies, shed))
    assert all(shed == 0 for _, shed in trials["baseline"]), (
        "unbounded frontend must never shed"
    )

    def median_ms(name: str, q: float) -> float:
        values = [np.percentile(lat, q) for lat, _ in trials[name] if len(lat)]
        return float(np.median(values)) * 1e3 if values else float("nan")

    snapshot = shedding.metrics_snapshot()
    return {
        "corpus": corpus_size,
        "queries": num_queries,
        "capacity_qps": capacity,
        "offered_qps": rate,
        "slo_ms": slo_s * 1e3,
        "baseline_admitted": sum(len(lat) for lat, _ in trials["baseline"]),
        "baseline_p50_ms": median_ms("baseline", 50),
        "baseline_p99_ms": median_ms("baseline", 99),
        "shed_admitted": sum(len(lat) for lat, _ in trials["shed"]),
        "shed_count": sum(shed for _, shed in trials["shed"]),
        "shed_p50_ms": median_ms("shed", 50),
        "shed_p99_ms": median_ms("shed", 99),
        "metrics_shed": snapshot["counters"].get("frontend.shed", 0),
        "streamed_p99_ms": snapshot["histograms"]["frontend.latency_s"]["p99"]
        * 1e3,
    }


def print_report(results: dict) -> None:
    print(
        "\n"
        + format_table(
            ["admission policy", "admitted", "shed", "median p50 ms", "median p99 ms"],
            [
                [
                    "unbounded queue",
                    results["baseline_admitted"],
                    0,
                    results["baseline_p50_ms"],
                    results["baseline_p99_ms"],
                ],
                [
                    f"shed beyond depth {MAX_QUEUE_DEPTH}",
                    results["shed_admitted"],
                    results["shed_count"],
                    results["shed_p50_ms"],
                    results["shed_p99_ms"],
                ],
            ],
            title=(
                f"open-loop overload at {results['offered_qps']:.0f} qps "
                f"({OVERLOAD_FACTOR:.0f}x capacity "
                f"{results['capacity_qps']:.0f} qps), "
                f"SLO {results['slo_ms']:.0f} ms, {TRIALS} trials per policy"
            ),
        )
    )


def _check(results: dict, smoke: bool) -> None:
    assert results["shed_count"] > 0, "overload never triggered shedding"
    assert results["shed_admitted"] > 0, "shedding frontend served nothing"
    assert results["metrics_shed"] == results["shed_count"], (
        "metrics counter disagrees with observed Overloaded errors"
    )
    assert results["shed_p99_ms"] < results["baseline_p99_ms"], (
        "shedding did not improve admitted tail latency"
    )
    if not smoke:
        # The SLO win: bounded admission keeps the admitted tail inside
        # the capacity-derived budget that the unbounded queue blows.
        assert results["shed_p99_ms"] <= results["slo_ms"], (
            f"admitted p99 {results['shed_p99_ms']:.1f} ms exceeds "
            f"SLO {results['slo_ms']:.1f} ms despite shedding"
        )
        assert results["baseline_p99_ms"] > results["slo_ms"], (
            "baseline met the SLO — offered load was not an overload"
        )


def test_service_slo(benchmark):
    from _scale import once

    results = once(benchmark, run)
    print_report(results)
    _check(results, smoke=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus, plumbing-only checks (CI-friendly, ~seconds)",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run(corpus_size=400, num_queries=120)
    else:
        results = run()
    print_report(results)
    _check(results, smoke=args.smoke)
    print("\nservice SLO benchmark: ok")


if __name__ == "__main__":
    main()
