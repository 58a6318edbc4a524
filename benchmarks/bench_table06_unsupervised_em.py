"""Table VI — F1 scores for unsupervised matching (EM).

Sudowoodo uses zero manual labels (only the positive-ratio prior, which
the paper treats as an available dataset statistic) against ZeroER and
Auto-FuzzyJoin.
"""

from _scale import SCALE, em_config, fit_match, once

from repro.baselines import run_autofuzzyjoin, run_zeroer
from repro.data.generators import benchmark_entry, load_em_benchmark
from repro.eval import f1_row, format_table


def test_table06_unsupervised_em(benchmark):
    def run():
        results = {}
        for key in SCALE.em_datasets:
            dataset = load_em_benchmark(
                key, scale=SCALE.em_scale, max_table_size=SCALE.em_max_table
            )
            results.setdefault("ZeroER", {})[key] = run_zeroer(dataset).test_metrics
            results.setdefault("Auto-FuzzyJoin", {})[key] = run_autofuzzyjoin(
                dataset
            ).test_metrics
            config = em_config(
                positive_ratio=max(0.05, round(benchmark_entry(key).positive_rate, 2))
            )
            report = fit_match(config, dataset, 0)[1].report()
            results.setdefault("Sudowoodo", {})[key] = report.metrics
        return results

    results = once(benchmark, run)
    rows = [
        f1_row(name, results[name], SCALE.em_datasets)
        for name in ["ZeroER", "Auto-FuzzyJoin", "Sudowoodo"]
    ]
    print(
        "\n"
        + format_table(
            ["method", *SCALE.em_datasets, "average"],
            rows,
            title="Table VI: unsupervised EM F1 (scaled)",
        )
    )

    def average(name):
        metrics = results[name]
        return sum(m["f1"] for m in metrics.values()) / len(metrics)

    # Paper shape: Sudowoodo leads both unsupervised baselines (74.3 vs
    # 66.6 / 65.4 avg).  NOTE: on the *synthetic* benchmarks the classical
    # baselines overperform relative to the paper's real corpora — TF-IDF
    # similarity features are cleaner here than on real product feeds — so
    # only a sanity floor and the easy-dataset win are asserted; see
    # EXPERIMENTS.md for the full discussion.
    assert average("Sudowoodo") > 0.25
    assert results["Sudowoodo"]["DA"]["f1"] > 0.6
