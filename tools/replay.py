#!/usr/bin/env python
"""Replay a benchmark workload's work in-process and print its digests.

Two source trees that do the same work print the same digests, so this
is how a change shows that it kept a workload's output byte for byte.
``TREE`` is a checkout or a ``git archive`` export: the library is
imported from ``TREE/src`` and the workload's constants from
``TREE/benchmarks/perf``, so one copy of this script replays any tree.

Workloads:

* ``train_em`` — the EM jobs of ``benchmarks/perf/workloads/train_em.py``
  (``EM_CONFIG``, ``FULL`` sizes, one job per dataset in ``DATASETS``,
  dataset seed ``seed * 10 + offset`` as the workload draws them).  Each
  job runs ``SudowoodoSession.pretrain`` and a ``match`` fit, and its
  sha256 covers the pre-train ``epoch_losses``, the session's
  ``embedding_fingerprint`` of every record before and after the fit,
  the test metrics and the match probabilities of every test pair.
  ``--smoke`` runs the workload's one ``TINY_CONFIG`` job instead.

One line per job, then one combined sha256 over the job digests::

    OPENBLAS_NUM_THREADS=1 python tools/replay.py TREE --workload train_em --seeds 11 12
    python tools/replay.py . --workload train_em --smoke

BLAS threading can change float results, so OpenBLAS is pinned to one
thread unless ``OPENBLAS_NUM_THREADS`` is already set.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

WORKLOADS = ("train_em",)


def _import_tree(tree: Path):
    """Put ``tree``'s library and benchmark package first on the path and
    return its ``train_em`` workload module."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    import repro
    from perf.workloads import train_em

    for module in (repro, train_em):
        if tree not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"{module.__name__} imported from outside {tree}")
    return train_em


def _train_em_jobs(
    train_em, seeds: List[int], smoke: bool
) -> Iterator[Tuple[str, object, dict, int]]:
    """``(label, dataset, config, label_budget)`` for each job."""
    from repro.data.generators import load_em_benchmark

    if smoke:
        size = train_em.TINY
        yield (
            f"seed={seeds[0]} job=AB-tiny",
            load_em_benchmark(
                "AB",
                scale=size["scale"],
                max_table_size=size["max_table_size"],
                seed=seeds[0],
            ),
            train_em.TINY_CONFIG,
            size["label_budget"],
        )
        return
    size = train_em.FULL
    for seed in seeds:
        for offset, key in enumerate(train_em.DATASETS):
            yield (
                f"seed={seed} job={key}",
                load_em_benchmark(
                    key,
                    scale=size["scale"],
                    max_table_size=size["max_table_size"],
                    seed=seed * 10 + offset,
                ),
                train_em.EM_CONFIG,
                size["label_budget"],
            )


def replay_train_em(tree: Path, seeds: List[int], smoke: bool) -> List[str]:
    """Run the jobs, print one line each, return the job digests."""
    import numpy as np

    train_em = _import_tree(tree)
    from repro import SudowoodoConfig
    from repro.api import SudowoodoSession

    digests = []
    for label, dataset, config, label_budget in _train_em_jobs(
        train_em, seeds, smoke
    ):
        items = dataset.all_items()
        session = SudowoodoSession(SudowoodoConfig(**config))
        pretrain = session.pretrain(items)
        before = session.embedding_fingerprint(items)
        task = session.task("match").fit(dataset, label_budget=label_budget)
        after = session.embedding_fingerprint(items)
        metrics = task.evaluate("test")
        probabilities = np.ascontiguousarray(
            task.predict([dataset.serialize_pair(p) for p in dataset.pairs.test]),
            dtype=np.float64,
        )
        digest = hashlib.sha256()
        for part in (
            repr([float(loss).hex() for loss in pretrain.epoch_losses]),
            before,
            after,
            repr(sorted((name, float(value).hex()) for name, value in metrics.items())),
            repr(probabilities.shape),
        ):
            digest.update(part.encode())
        digest.update(probabilities.tobytes())
        digests.append(digest.hexdigest())
        print(
            f"train_em {label} f1={metrics['f1']:.4f} sha256={digests[-1]}",
            flush=True,
        )
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("tree", type=Path, help="source tree to replay")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="workload seeds (default: 0); --smoke uses the first",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="one tiny job instead of the workload"
    )
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    digests = replay_train_em(tree, args.seeds, args.smoke)
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    print(f"{args.workload} combined sha256={combined}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
