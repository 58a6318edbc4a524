"""Figures 9/10/11 — running time: semi-supervised EM by method, blocking
time per dataset, and cleaning (RoBERTa warm-only vs Sudowoodo)."""

import time

from _scale import SCALE, ec_config, em_config, fit_clean, fit_match, once

from repro.baselines import train_ditto
from repro.cleaning import CandidateGenerator
from repro.data.generators import load_cleaning_dataset, load_em_benchmark
from repro.eval import format_table


def test_fig09_10_11_runtime(benchmark):
    def run():
        em_rows = []
        blocking_rows = []
        for key in SCALE.em_datasets:
            dataset = load_em_benchmark(
                key, scale=SCALE.em_scale, max_table_size=SCALE.em_max_table
            )
            start = time.perf_counter()
            train_ditto(dataset, SCALE.em_label_budget, em_config())
            ditto_time = time.perf_counter() - start

            start = time.perf_counter()
            session, task = fit_match(em_config(), dataset, SCALE.em_label_budget)
            task.evaluate("test")
            sudowoodo_time = time.perf_counter() - start
            em_rows.append([key, ditto_time, sudowoodo_time])
            blocking_rows.append(
                [key, session.timer.total("pretrain"), task.timer.total("blocking")]
            )

        cleaning_rows = []
        for name in ["beers", "hospital"]:
            dataset = load_cleaning_dataset(name, scale=SCALE.cleaning_scale)
            generator = CandidateGenerator().fit(dataset)
            start = time.perf_counter()
            fit_clean(
                ec_config(), dataset, generator, SCALE.cleaning_labeled_rows,
                contrastive=False,
            )[1].evaluate()
            warm_time = time.perf_counter() - start
            start = time.perf_counter()
            fit_clean(
                ec_config(), dataset, generator, SCALE.cleaning_labeled_rows
            )[1].evaluate()
            sudowoodo_time = time.perf_counter() - start
            cleaning_rows.append([name, warm_time, sudowoodo_time])
        return em_rows, blocking_rows, cleaning_rows

    em_rows, blocking_rows, cleaning_rows = once(benchmark, run)
    print(
        "\n"
        + format_table(
            ["dataset", "Ditto (s)", "Sudowoodo (s)"],
            em_rows,
            title="Figure 9: running time for semi-supervised EM (this substrate)",
        )
    )
    print(
        "\n"
        + format_table(
            ["dataset", "pretrain (s)", "blocking (s)"],
            blocking_rows,
            title="Figure 10: blocking time (this substrate)",
        )
    )
    print(
        "\n"
        + format_table(
            ["dataset", "warm-only (s)", "Sudowoodo (s)"],
            cleaning_rows,
            title="Figure 11: cleaning time, warm-only LM vs Sudowoodo",
        )
    )
    # Figure 10's shape: blocking is a small fraction of pre-training time.
    for _, pretrain_s, blocking_s in blocking_rows:
        assert blocking_s < pretrain_s
    # Figure 11's shape: the contrastive step adds bounded overhead.
    for _, warm_s, sudo_s in cleaning_rows:
        assert sudo_s < warm_s * 6
