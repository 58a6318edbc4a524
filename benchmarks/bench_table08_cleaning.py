"""Table VIII — error-correction F1: Raha+Baran, Perfect-ED+Baran,
RoBERTa-base (no contrastive pre-training), and Sudowoodo."""

from _scale import FULL, SCALE, ec_config, fit_clean, once

from repro.cleaning import (
    CandidateGenerator,
    run_perfect_ed_baran,
    run_raha_baran,
)
from repro.data.generators import CLEANING_DATASET_KEYS, load_cleaning_dataset
from repro.eval import format_table

DATASETS = CLEANING_DATASET_KEYS if FULL else ["beers", "hospital", "rayyan"]


def test_table08_error_correction(benchmark):
    def run():
        results = {}
        for name in DATASETS:
            dataset = load_cleaning_dataset(name, scale=SCALE.cleaning_scale)
            generator = CandidateGenerator().fit(dataset)
            results.setdefault("Raha + Baran", {})[name] = run_raha_baran(
                dataset, generator, SCALE.cleaning_labeled_rows
            ).f1
            results.setdefault("Perfect ED + Baran", {})[name] = run_perfect_ed_baran(
                dataset, generator, SCALE.cleaning_labeled_rows
            ).f1
            _, warm_only = fit_clean(
                ec_config(),
                dataset,
                generator,
                SCALE.cleaning_labeled_rows,
                contrastive=False,
            )
            results.setdefault("RoBERTa-base (warm only)", {})[name] = (
                warm_only.evaluate()["f1"]
            )
            _, sudowoodo = fit_clean(
                ec_config(), dataset, generator, SCALE.cleaning_labeled_rows
            )
            results.setdefault("Sudowoodo", {})[name] = sudowoodo.evaluate()["f1"]
        return results

    results = once(benchmark, run)
    methods = [
        "Raha + Baran",
        "Perfect ED + Baran",
        "RoBERTa-base (warm only)",
        "Sudowoodo",
    ]
    rows = []
    for method in methods:
        values = [100.0 * results[method][d] for d in DATASETS]
        rows.append([method, *values, sum(values) / len(values)])
    print(
        "\n"
        + format_table(
            ["method", *DATASETS, "average"],
            rows,
            title="Table VIII: error correction F1 (scaled)",
        )
    )

    def avg(method):
        return sum(results[method].values()) / len(results[method])

    # Shapes that hold at this substrate scale: perfect ED bounds Raha from
    # above, and contrastive pre-training helps over the warm-only encoder.
    assert avg("Perfect ED + Baran") >= avg("Raha + Baran") - 0.02
    assert avg("Sudowoodo") >= avg("RoBERTa-base (warm only)") - 0.02
    # NOTE: the paper's "Sudowoodo > Perfect ED + Baran" result does NOT
    # reproduce at 2-layer/dim-32 encoder scale; see EXPERIMENTS.md.
