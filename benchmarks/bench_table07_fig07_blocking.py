"""Table VII + Figure 7 — blocking: recall and candidate-set size vs
DL-Block, plus the recall-CSSR curves."""

from _scale import SCALE, em_config, once

from repro import SudowoodoSession
from repro.baselines import DLBlockBlocker
from repro.data.generators import load_em_benchmark
from repro.eval import format_table

KS = list(range(1, 21, 3))


def test_table07_fig07_blocking(benchmark):
    def run():
        results = {}
        for key in SCALE.em_datasets:
            dataset = load_em_benchmark(
                key, scale=SCALE.em_scale, max_table_size=SCALE.em_max_table
            )
            session = SudowoodoSession(em_config())
            session.pretrain(dataset.all_items())
            blocker = session.task("block").fit(dataset).blocker
            sudowoodo_curve = blocker.recall_cssr_curve(KS)
            dl_curve = DLBlockBlocker(dataset, em_config()).recall_cssr_curve(KS)
            # Table VII protocol: DL-Block's k=10 recall is the target;
            # Sudowoodo reports the first k that beats it.
            target = next(r for r in dl_curve if r["k"] >= 10)
            matched = blocker.first_k_beating_recall(target["recall"], max_k=20)
            results[key] = {
                "sudowoodo_curve": sudowoodo_curve,
                "dlblock_curve": dl_curve,
                "dl_recall": target["recall"],
                "dl_cands": target["num_candidates"],
                "sudo_recall": matched.recall(dataset.matches) if matched else 0.0,
                "sudo_cands": float(len(matched)) if matched else float("nan"),
            }
        return results

    results = once(benchmark, run)
    rows = []
    for key, data in results.items():
        rows.append(
            [
                key,
                100.0 * data["dl_recall"],
                int(data["dl_cands"]),
                100.0 * data["sudo_recall"],
                int(data["sudo_cands"]) if data["sudo_cands"] == data["sudo_cands"] else None,
            ]
        )
    print(
        "\n"
        + format_table(
            ["dataset", "DL-Block R", "DL-Block #cand", "Sudowoodo R", "Sudowoodo #cand"],
            rows,
            title="Table VII: blocking recall and candidate counts (scaled)",
        )
    )
    for key, data in results.items():
        curve_rows = [
            [r["k"], 100.0 * r["recall"], 100.0 * r["cssr"],
             100.0 * d["recall"], 100.0 * d["cssr"]]
            for r, d in zip(data["sudowoodo_curve"], data["dlblock_curve"])
        ]
        print(
            "\n"
            + format_table(
                ["k", "Sudowoodo R", "Sudowoodo CSSR", "DL-Block R", "DL-Block CSSR"],
                curve_rows,
                title=f"Figure 7 ({key}): recall vs CSSR",
            )
        )
        # Figure 7's shape: at the same k, Sudowoodo's recall dominates
        # (identical CSSR by construction of kNN blocking).
        sudo_final = data["sudowoodo_curve"][-1]["recall"]
        dl_final = data["dlblock_curve"][-1]["recall"]
        assert sudo_final >= dl_final - 0.05
