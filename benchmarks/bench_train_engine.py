"""Training-engine benchmark: gradient-worker scaling and token caching.

Two measurements over the shared step-loop runtime (``repro.train``):

* **Worker scaling** — steps/sec of contrastive pre-training at 1, 2, and
  4 gradient workers on a matmul-heavy configuration.  numpy releases the
  GIL inside the hot-path matmuls, so data-parallel worker threads overlap
  forward/backward across encoder replicas.  Acceptance target (asserted
  when the machine actually has >= 4 cores): **>= 1.5x** steps/sec at 4
  workers over serial.
* **Token caching** — cold vs. warm ``TokenCache.encode_batch`` over the
  pre-training corpus.  Every later epoch (and every view of an item the
  cache has seen) skips regex tokenization entirely; the warm pass must
  run >= 1.5x faster than the cold pass.

Run as a script for full numbers, or with ``--smoke`` for the CI check::

    PYTHONPATH=src python benchmarks/bench_train_engine.py
    PYTHONPATH=src python benchmarks/bench_train_engine.py --smoke
"""

# Pin BLAS to one thread *before* numpy loads: the serial baseline must
# not secretly parallelize inside the matmuls, or worker scaling would be
# measured against an already-parallel opponent.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import time

import numpy as np

from repro.core import SudowoodoConfig
from repro.core.encoder import SudowoodoEncoder, build_tokenizer
from repro.core.pretrain import (
    PRETRAIN_LR,
    ContrastivePretrainProgram,
    prepare_corpus,
)
from repro.eval import format_table
from repro.nn import AdamW
from repro.train import TokenCache, Trainer
from repro.utils import RngStream

WORKER_TARGET = 1.5  # steps/sec at 4 workers vs. serial (>= 4 cores only)
CACHE_TARGET = 1.5  # warm vs. cold token-cache encode


def _corpus(size: int):
    rng = np.random.default_rng(11)
    brands = ["acme", "orbit", "vertex", "zenith", "nadir", "apex"]
    kinds = ["sensor", "widget", "probe", "gadget", "module", "relay"]
    return [
        f"[COL] name [VAL] {kinds[int(rng.integers(len(kinds)))]} {i} "
        f"rev {int(rng.integers(100))} "
        f"[COL] brand [VAL] {brands[int(rng.integers(len(brands)))]} "
        f"[COL] price [VAL] {int(rng.integers(900))}.{int(rng.integers(100)):02d}"
        for i in range(size)
    ]


def _config(smoke: bool, **overrides) -> SudowoodoConfig:
    """Matmul-heavy calibration: wide enough that forward/backward numpy
    time dominates the python step overhead (the regime where worker
    threads pay off, and the regime production encoders live in)."""
    defaults = dict(
        dim=32 if smoke else 160,
        num_layers=1 if smoke else 2,
        num_heads=4,
        ffn_dim=64 if smoke else 320,
        max_seq_len=24 if smoke else 40,
        pair_max_seq_len=40 if smoke else 64,
        vocab_size=600,
        pretrain_epochs=1,
        pretrain_batch_size=16 if smoke else 96,
        num_clusters=4,
        corpus_cap=None,
        mlm_warm_start_epochs=0,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def measure_steps_per_second(corpus, config: SudowoodoConfig) -> float:
    """Steps/sec of the engine's contrastive loop (tokenizer warm)."""
    config.validate()
    rngs = RngStream(config.seed)
    corpus = prepare_corpus(corpus, config, rngs.get("corpus"))
    tokenizer = build_tokenizer(corpus, config)
    encoder = SudowoodoEncoder(config, tokenizer)
    cache = TokenCache(tokenizer)
    cache.warm(corpus, config.max_seq_len)  # isolate compute from tokenize
    program = ContrastivePretrainProgram(
        corpus, config, rngs, tokenizer, token_cache=cache
    )
    trainer = Trainer(
        encoder,
        program,
        AdamW(encoder.parameters(), lr=PRETRAIN_LR),
        workers=config.train_workers,
        rngs=rngs,
    )
    start = time.perf_counter()
    state = trainer.fit(max_epochs=config.pretrain_epochs)
    elapsed = time.perf_counter() - start
    return state.step / elapsed


def measure_token_cache(corpus, config: SudowoodoConfig) -> dict:
    """Cold vs. warm encode_batch over the corpus (median of 3 warm runs)."""
    tokenizer = build_tokenizer(corpus, config)
    cache = TokenCache(tokenizer)
    start = time.perf_counter()
    cache.encode_batch(corpus, config.max_seq_len)
    cold = time.perf_counter() - start
    warm_runs = []
    for _ in range(3):
        start = time.perf_counter()
        cache.encode_batch(corpus, config.max_seq_len)
        warm_runs.append(time.perf_counter() - start)
    warm = float(np.median(warm_runs))
    return {
        "cold_seconds": cold,
        "warm_seconds": warm,
        "cache_speedup": cold / warm if warm > 0 else float("inf"),
        "hits": cache.hits,
        "misses": cache.misses,
    }


def run(smoke: bool = False) -> dict:
    corpus = _corpus(300 if smoke else 1000)
    results: dict = {"cores": len(os.sched_getaffinity(0))}
    results.update(measure_token_cache(corpus, _config(smoke)))
    worker_counts = (1, 2) if smoke else (1, 2, 4)
    steps = {}
    for workers in worker_counts:
        steps[workers] = measure_steps_per_second(
            list(corpus), _config(smoke, train_workers=workers)
        )
    results["steps_per_second"] = steps
    serial = steps[1]
    results["worker_speedup"] = {
        workers: rate / serial for workers, rate in steps.items()
    }
    return results


def print_report(results: dict) -> None:
    rows = [
        (
            f"{workers} worker(s)",
            f"{rate:.2f} steps/s",
            f"{results['worker_speedup'][workers]:.2f}x",
        )
        for workers, rate in sorted(results["steps_per_second"].items())
    ]
    print(format_table(["engine", "throughput", "vs serial"], rows))
    print(
        f"token cache: cold {results['cold_seconds'] * 1e3:.1f} ms, "
        f"warm {results['warm_seconds'] * 1e3:.1f} ms "
        f"({results['cache_speedup']:.1f}x, "
        f"{results['hits']} hits / {results['misses']} misses)"
    )
    print(f"cores available: {results['cores']}")


def _assert_targets(results: dict, smoke: bool) -> None:
    assert results["cache_speedup"] >= (1.0 if smoke else CACHE_TARGET), (
        f"warm token cache speedup {results['cache_speedup']:.2f}x below "
        f"target"
    )
    if smoke:
        return
    if results["cores"] >= 4 and 4 in results["worker_speedup"]:
        speedup = results["worker_speedup"][4]
        assert speedup >= WORKER_TARGET, (
            f"4-worker speedup {speedup:.2f}x below {WORKER_TARGET}x target"
        )
    else:
        print(
            "note: < 4 cores available — worker-scaling target not "
            "asserted on this machine"
        )


def test_train_engine(benchmark):
    """Pytest-benchmark entry point (full scale)."""
    results = run(smoke=False)
    print_report(results)
    _assert_targets(results, smoke=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI (skips the worker-scaling assertion)",
    )
    args = parser.parse_args()
    results = run(smoke=args.smoke)
    print_report(results)
    _assert_targets(results, smoke=args.smoke)
    print("ok")


if __name__ == "__main__":
    main()
