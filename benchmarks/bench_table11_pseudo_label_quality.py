"""Table XI — TPR/TNR of the training set after adding pseudo labels,
for SimCLR vs Sudowoodo pre-training, and Sudowoodo without any manual
label (the "no label" column)."""

from _scale import SCALE, em_config, fit_match, once

from repro.data.generators import load_em_benchmark
from repro.eval import format_table


def quality(config, dataset, budget):
    return fit_match(config, dataset, budget)[1].pseudo_label_quality()


from _scale import FULL

DATASETS = SCALE.em_datasets if FULL else SCALE.em_datasets[:2]


def test_table11_pseudo_label_quality(benchmark):
    def run():
        results = {}
        for key in DATASETS:
            dataset = load_em_benchmark(
                key, scale=SCALE.em_scale, max_table_size=SCALE.em_max_table
            )
            simclr_config = em_config().as_simclr().ablated(use_pseudo_labeling=True)
            results.setdefault("SimCLR", {})[key] = quality(
                simclr_config, dataset, SCALE.em_label_budget
            )
            results.setdefault("Sudowoodo", {})[key] = quality(
                em_config(), dataset, SCALE.em_label_budget
            )
            results.setdefault("Sudowoodo (no label)", {})[key] = quality(
                em_config(), dataset, 0
            )
        return results

    results = once(benchmark, run)
    rows = []
    for key in DATASETS:
        rows.append(
            [
                key,
                *[
                    100.0 * results[m][key][metric]
                    for m in ("SimCLR", "Sudowoodo", "Sudowoodo (no label)")
                    for metric in ("tpr", "tnr")
                ],
            ]
        )
    print(
        "\n"
        + format_table(
            [
                "dataset",
                "SimCLR TPR", "SimCLR TNR",
                "Sudowoodo TPR", "Sudowoodo TNR",
                "no-label TPR", "no-label TNR",
            ],
            rows,
            title="Table XI: pseudo-label quality (scaled)",
        )
    )
    # Paper shape: TNR is uniformly high (96-99%); Sudowoodo's pseudo
    # labels are at least as clean as SimCLR's on average.
    for key in DATASETS:
        assert results["Sudowoodo"][key]["tnr"] > 0.9
    avg_sudo = sum(r["tpr"] for r in results["Sudowoodo"].values())
    avg_simclr = sum(r["tpr"] for r in results["SimCLR"].values())
    assert avg_sudo >= avg_simclr - 0.15
