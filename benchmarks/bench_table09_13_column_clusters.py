"""Table IX + Table XIII — discovered column clusters: counts, purity,
blocking/matching statistics, and fine-grained subtype discoveries.

Runs through the session API: one ``SudowoodoSession`` pre-trained on the
serialized columns, with the ``column_match`` task providing candidates,
pair metrics, and same-type edges for type discovery.
"""

from _scale import SCALE, col_config, once

from repro.api import SudowoodoSession
from repro.columns import discover_types
from repro.data.generators import generate_column_corpus
from repro.eval import format_table


def test_table09_13_column_clusters(benchmark):
    def run():
        corpus = generate_column_corpus(SCALE.num_columns, seed=31)
        session = SudowoodoSession(col_config())
        session.pretrain(corpus.serialized(max_values=6))
        task = session.task("column_match", max_values_per_column=6)
        task.fit(corpus, k=10, num_labels=SCALE.column_labels)
        report = task.report()
        candidates = task.candidate_pairs(k=10)
        # High-precision edges: connected components amplify false edges,
        # so discovery uses a strict probability cut (Section V-B notes the
        # clustering step controls granularity).
        edges = task.predict(candidates, threshold=0.97)
        clusters = discover_types(corpus, edges)
        return corpus, candidates, report, clusters

    corpus, candidates, report, clusters = once(benchmark, run)
    print(
        "\n"
        + format_table(
            ["#columns", "#candidates", "%pos", "|train|", "#clusters", "purity"],
            [
                [
                    len(corpus),
                    len(candidates),
                    100.0 * report.positive_rate,
                    SCALE.column_labels // 2,
                    clusters.num_clusters,
                    100.0 * clusters.mean_purity,
                ]
            ],
            title="Table XIII: column blocking/matching statistics (scaled)",
        )
    )
    if clusters.subtype_discoveries:
        print(
            "\n"
            + format_table(
                ["type", "subtype", "size", "example value"],
                [
                    [d["type"], d["subtype"], d["size"], d["example"]]
                    for d in clusters.subtype_discoveries[:8]
                ],
                title="Table IX: fine-grained subtype clusters discovered",
            )
        )
    # Paper shapes: high cluster purity (89.9% in the paper) and at least
    # one discovered cluster finer than the ground-truth types.
    assert clusters.mean_purity > 0.7
    assert clusters.num_clusters > 5
