"""Table XIV — candidate coverage / sizes; Table XV — cleaning ablations."""

from _scale import FULL, SCALE, ec_config, fit_clean, once

from repro.cleaning import CandidateGenerator
from repro.data.generators import CLEANING_DATASET_KEYS, load_cleaning_dataset
from repro.eval import format_table

DATASETS = CLEANING_DATASET_KEYS if FULL else ["beers", "hospital"]
ABLATIONS = (
    {
        "Sudowoodo (-cutoff)": {"use_cutoff": False},
        "Sudowoodo (-RR)": {"use_barlow_twins": False},
        "Sudowoodo (-cls)": {"use_cluster_sampling": False},
        "Sudowoodo (full)": {},
    }
    if FULL
    else {
        "Sudowoodo (-cls)": {"use_cluster_sampling": False},
        "Sudowoodo (full)": {},
    }
)


def test_table14_candidate_statistics(benchmark):
    def run():
        rows = []
        for name in CLEANING_DATASET_KEYS:
            dataset = load_cleaning_dataset(name, scale=SCALE.cleaning_scale)
            stats = CandidateGenerator().fit(dataset).stats()
            rows.append([name, 100.0 * stats.coverage, stats.mean_candidates])
        return rows

    rows = once(benchmark, run)
    print(
        "\n"
        + format_table(
            ["dataset", "%coverage", "#cand"],
            rows,
            title="Table XIV: correction candidate statistics (scaled)",
        )
    )
    for row in rows:
        assert row[1] > 40.0  # every dataset keeps usable coverage


def test_table15_cleaning_ablation(benchmark):
    def run():
        results = {}
        for name in DATASETS:
            dataset = load_cleaning_dataset(name, scale=SCALE.cleaning_scale)
            generator = CandidateGenerator().fit(dataset)
            for label, flags in ABLATIONS.items():
                config = ec_config().ablated(**flags) if flags else ec_config()
                _, task = fit_clean(
                    config, dataset, generator, SCALE.cleaning_labeled_rows
                )
                results.setdefault(label, {})[name] = task.evaluate()["f1"]
        return results

    results = once(benchmark, run)
    rows = []
    for label, values in results.items():
        f1s = [100.0 * values[d] for d in DATASETS]
        rows.append([label, *f1s, sum(f1s) / len(f1s)])
    print(
        "\n"
        + format_table(
            ["variant", *DATASETS, "average"],
            rows,
            title="Table XV: cleaning ablations (scaled)",
        )
    )
    # Paper shape: cleaning is relatively insensitive to the pre-training
    # optimizations (all variants within a few points of each other).
    averages = [row[-1] for row in rows]
    assert max(averages) - min(averages) < 25.0
