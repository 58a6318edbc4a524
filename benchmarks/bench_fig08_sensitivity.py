"""Figure 8 — hyper-parameter sensitivity: cutoff_ratio, num_clusters
(F1 and false-negative rate), alpha_bt, and the pseudo-label multiplier."""

import numpy as np
from _scale import FULL, SCALE, em_config, fit_match, once

from repro.core import ClusterBatcher
from repro.data.generators import load_em_benchmark
from repro.eval import format_table

DATASET = "AB"
GRID = {
    "cutoff_ratio": [0.01, 0.03, 0.05, 0.08] if FULL else [0.01, 0.05],
    "num_clusters": [4, 8, 12, 16] if FULL else [4, 12],
    "alpha_bt": [1e-4, 1e-3, 1e-2, 1e-1] if FULL else [1e-3, 1e-1],
    "multiplier": [2, 4, 6, 8] if FULL else [2, 6],
}


def run_with(**overrides):
    dataset = load_em_benchmark(
        DATASET, scale=SCALE.em_scale, max_table_size=SCALE.em_max_table
    )
    config = em_config(**overrides)
    return fit_match(config, dataset, SCALE.em_label_budget)[1].report().f1


def test_fig08_sensitivity(benchmark):
    def run():
        results = {}
        for parameter, values in GRID.items():
            results[parameter] = {v: run_with(**{parameter: v}) for v in values}
        return results

    results = once(benchmark, run)
    for parameter, values in results.items():
        rows = [[v, 100.0 * f1] for v, f1 in values.items()]
        print(
            "\n"
            + format_table(
                [parameter, "F1"],
                rows,
                title=f"Figure 8 ({parameter}) on {DATASET} (scaled)",
            )
        )
        scores = list(values.values())
        # Paper shape: F1 is fairly stable across each grid (the paper
        # reports ~0.4-0.6 point average swings; allow wider at tiny scale).
        assert max(scores) - min(scores) < 0.35

    # Figure 8 row 3: the false-negative rate of clustering-based sampling
    # grows with the number of clusters.
    dataset = load_em_benchmark(
        DATASET, scale=SCALE.em_scale, max_table_size=SCALE.em_max_table
    )
    corpus = dataset.all_items()
    offset = len(dataset.table_a)
    matches = [(a, offset + b) for a, b in dataset.matches]
    fnr = {}
    for k in GRID["num_clusters"]:
        batcher = ClusterBatcher(corpus, k, np.random.default_rng(0))
        fnr[k] = batcher.false_negative_rate(
            matches, 16, np.random.default_rng(1)
        )
    print(
        "\n"
        + format_table(
            ["num_clusters", "FNR"],
            [[k, 100.0 * v] for k, v in fnr.items()],
            title="Figure 8 (row 3): false-negative rate vs num_clusters",
        )
    )
    ks = sorted(fnr)
    assert fnr[ks[-1]] >= fnr[ks[0]]
