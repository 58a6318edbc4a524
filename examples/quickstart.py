"""Quickstart: end-to-end Sudowoodo entity matching in ~1 minute on CPU.

Opens a :class:`repro.api.SudowoodoSession`, contrastively pre-trains the
shared representation model on an unlabeled two-table product corpus, then
attaches the ``match`` task: blocking with kNN search, pseudo labels, and
a pairwise matcher fine-tuned on a small label budget.

Run:  python examples/quickstart.py            # full demo (~1 min)
      python examples/quickstart.py --smoke    # tiny CI-scale config (~secs)
"""

import argparse

from repro.api import SudowoodoConfig, SudowoodoSession
from repro.data.generators import load_em_benchmark


def build_config(smoke: bool) -> SudowoodoConfig:
    if smoke:
        return SudowoodoConfig(
            dim=16, num_layers=1, num_heads=2, ffn_dim=32,
            max_seq_len=24, pair_max_seq_len=40, vocab_size=800,
            pretrain_epochs=1, finetune_epochs=2, num_clusters=3,
            corpus_cap=64, multiplier=2, mlm_warm_start_epochs=0, seed=0,
        )
    return SudowoodoConfig(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        max_seq_len=40,
        pair_max_seq_len=72,
        pretrain_epochs=3,
        finetune_epochs=15,
        num_clusters=8,
        corpus_cap=200,
        multiplier=4,
        seed=0,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config for CI smoke runs (~seconds)")
    args = parser.parse_args()

    # A scaled-down Abt-Buy-style benchmark (synthetic; see DESIGN.md).
    scale = 0.02 if args.smoke else 0.06
    table_cap = 40 if args.smoke else 120
    dataset = load_em_benchmark("AB", scale=scale, max_table_size=table_cap)
    print("Dataset:", dataset.stats())

    # (1) pretrain once on the unlabeled corpus ...
    session = SudowoodoSession(build_config(args.smoke))
    session.pretrain(dataset.all_items())

    # ... then (2) attach the match task: blocking, pseudo labels, and
    # matcher fine-tuning all reuse the session's shared embeddings.
    budget = 20 if args.smoke else 80
    match = session.task("match").fit(dataset, label_budget=budget)
    report = match.report()

    print(f"\nTest F1:        {report.f1:.3f}")
    if report.pseudo_quality:
        print(f"Pseudo quality: TPR={report.pseudo_quality['tpr']:.2f} "
              f"TNR={report.pseudo_quality['tnr']:.2f}")
    print(f"Labels used:    {report.num_manual_labels} manual "
          f"+ {report.num_pseudo_labels} pseudo")

    # Blocking on its own: recall vs candidate-set-size-ratio.
    print("\nBlocking frontier (recall @ CSSR):")
    for row in match.blocker.recall_cssr_curve([1, 5, 10]):
        print(f"  k={row['k']:>2}  recall={row['recall']:.2f}  "
              f"cssr={row['cssr']:.3f}")


if __name__ == "__main__":
    main()
