"""Table XVI — Sudowoodo vs Ditto across Jaccard difficulty levels."""

from _scale import FULL, SCALE, em_config, fit_match, once

from repro.baselines import build_warm_encoder, manual_examples
from repro.core.matcher import PairwiseMatcher, evaluate_f1, finetune_matcher
from repro.data.generators import load_em_benchmark
from repro.eval import format_table, split_by_difficulty

DATASETS = SCALE.em_datasets if FULL else ["AB", "DA"]


def test_table16_difficulty_profile(benchmark):
    def run():
        results = {}
        for key in DATASETS:
            dataset = load_em_benchmark(
                key, scale=SCALE.em_scale, max_table_size=SCALE.em_max_table
            )
            # Ditto.
            config = em_config()
            encoder = build_warm_encoder(dataset, config)
            ditto = PairwiseMatcher(encoder, head="concat")
            examples = manual_examples(dataset, SCALE.em_label_budget, config)
            finetune_matcher(ditto, examples, examples, config)
            # Sudowoodo.
            _, task = fit_match(em_config(), dataset, SCALE.em_label_budget)

            per_level = {}
            for level in split_by_difficulty(dataset):
                if not level.pairs:
                    continue
                pairs = [dataset.serialize_pair(p) for p in level.pairs]
                labels = [p.label for p in level.pairs]
                per_level[level.level] = {
                    "ditto": evaluate_f1(ditto, pairs, labels)["f1"],
                    "sudowoodo": evaluate_f1(task.matcher, pairs, labels)["f1"],
                    "pos_range": level.positive_jaccard_range,
                    "neg_range": level.negative_jaccard_range,
                }
            results[key] = per_level
        return results

    results = once(benchmark, run)
    for key, per_level in results.items():
        rows = []
        for level in sorted(per_level, reverse=True):
            data = per_level[level]
            gain = (
                data["sudowoodo"] / data["ditto"] if data["ditto"] > 0 else float("nan")
            )
            rows.append(
                [
                    level,
                    100.0 * data["ditto"],
                    100.0 * data["sudowoodo"],
                    f"x{gain:.2f}" if gain == gain else "-",
                    f"[{data['pos_range'][0]:.2f}, {data['pos_range'][1]:.2f}]",
                    f"[{data['neg_range'][0]:.2f}, {data['neg_range'][1]:.2f}]",
                ]
            )
        print(
            "\n"
            + format_table(
                ["level", "Ditto F1", "Sudowoodo F1", "gain", "pos Jaccard", "neg Jaccard"],
                rows,
                title=f"Table XVI ({key}): difficulty-level breakdown (scaled)",
            )
        )
    # Paper shape: Sudowoodo >= Ditto on average across levels.
    for key, per_level in results.items():
        sudo = sum(d["sudowoodo"] for d in per_level.values())
        ditto = sum(d["ditto"] for d in per_level.values())
        assert sudo >= ditto - 0.2
