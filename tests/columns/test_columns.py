"""Tests for column matching, clustering, and Sherlock/Sato baselines."""

import numpy as np
import pytest

from repro.api import SudowoodoConfig, SudowoodoSession
from repro.columns import (
    SatoFeaturizer,
    SherlockFeaturizer,
    cluster_columns,
    cluster_purity,
    discover_types,
    evaluate_feature_baseline,
    find_subtype_clusters,
    pair_features,
)
from repro.data.generators import generate_column_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_column_corpus(80, seed=5)


def tiny_columns_config():
    return SudowoodoConfig.for_task(
        "column_match",
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=48,
        vocab_size=800,
        pretrain_epochs=1,
        pretrain_batch_size=8,
        finetune_epochs=2,
        finetune_batch_size=8,
        num_clusters=4,
        corpus_cap=80,
        mlm_warm_start_epochs=0,
        seed=0,
    )


@pytest.fixture(scope="module")
def task(corpus):
    """The ``column_match`` task fitted once for the module."""
    session = SudowoodoSession(tiny_columns_config())
    session.pretrain(corpus.serialized(max_values=5))
    return session.task("column_match", max_values_per_column=5).fit(
        corpus, k=5, num_labels=60
    )


class TestColumnMatching:
    def test_candidate_pairs_no_self_matches(self, task):
        candidates = task.candidate_pairs(k=3)
        for i, j in candidates:
            assert i < j

    def test_labeled_split_ratio(self, task):
        candidates = task.candidate_pairs(k=5)
        splits = task.build_labeled_pairs(candidates, 40)
        assert len(splits["train"]) == 20
        assert len(splits["valid"]) == 10

    def test_train_and_evaluate(self, task):
        report = task.report()
        assert 0.0 <= report.metrics["f1"] <= 1.0
        assert report.metrics == task.evaluate()
        assert report.num_candidates == len(task.candidate_pairs())
        assert 0.0 <= report.positive_rate <= 1.0
        assert {"embed", "blocking", "finetune", "evaluate"} <= set(report.timings)

    def test_predict_edges_subset_of_candidates(self, task):
        candidates = task.candidate_pairs(k=3)[:30]
        edges = task.predict(candidates)
        assert set(edges) <= set(candidates)

    def test_blocking_finds_same_type_neighbors(self, task, corpus):
        """kNN candidates should be enriched in same-type pairs."""
        candidates = task.candidate_pairs(k=5)
        same = sum(corpus.same_type(i, j) for i, j in candidates)
        rate_candidates = same / len(candidates)
        rng = np.random.default_rng(0)
        random_pairs = [
            tuple(sorted(rng.choice(len(corpus), size=2, replace=False)))
            for _ in range(300)
        ]
        rate_random = sum(corpus.same_type(i, j) for i, j in random_pairs) / len(
            random_pairs
        )
        assert rate_candidates > rate_random


class TestClustering:
    def test_connected_components(self, corpus):
        edges = [(0, 1), (1, 2), (5, 6)]
        clusters = cluster_columns(corpus, edges)
        as_sets = [set(c) for c in clusters]
        assert {0, 1, 2} in as_sets
        assert {5, 6} in as_sets

    def test_purity_perfect_for_ground_truth_clusters(self, corpus):
        by_type = {}
        for i, column in enumerate(corpus.columns):
            by_type.setdefault(column.semantic_type, []).append(i)
        purity = cluster_purity(corpus, list(by_type.values()))
        assert purity == 1.0

    def test_purity_mixed_cluster(self, corpus):
        # One big mixed cluster: purity = frequency of the majority type.
        cluster = list(range(len(corpus)))
        purity = cluster_purity(corpus, [cluster])
        counts = corpus.type_counts()
        assert purity == pytest.approx(max(counts.values()) / len(corpus))

    def test_subtype_discovery(self, corpus):
        # Build clusters aligned with subtypes of "city".
        city_columns = {}
        for i, column in enumerate(corpus.columns):
            if column.semantic_type == "city":
                city_columns.setdefault(column.subtype, []).append(i)
        clusters = [v for v in city_columns.values() if len(v) >= 3]
        if clusters:
            discoveries = find_subtype_clusters(corpus, clusters)
            assert len(discoveries) == len(clusters)
            for discovery in discoveries:
                assert discovery["type"] == "city"

    def test_discover_types_report(self, corpus):
        edges = [(0, 1)]
        report = discover_types(corpus, edges)
        assert report.num_clusters == len(corpus) - 1
        assert 0.0 <= report.mean_purity <= 1.0


class TestFeaturizers:
    def test_sherlock_feature_shape_consistent(self, corpus):
        featurizer = SherlockFeaturizer().fit(corpus)
        matrix = featurizer.matrix(corpus)
        assert matrix.shape[0] == len(corpus)
        assert matrix.shape[1] == featurizer.features(corpus[0]).shape[0]

    def test_sato_adds_topic_dims(self, corpus):
        sherlock = SherlockFeaturizer().fit(corpus)
        sato = SatoFeaturizer(topics=8).fit(corpus)
        assert (
            sato.features(corpus[0]).shape[0]
            == sherlock.features(corpus[0]).shape[0] + 16
        )

    def test_same_type_columns_closer_in_feature_space(self, corpus):
        featurizer = SherlockFeaturizer().fit(corpus)
        matrix = featurizer.matrix(corpus)
        same, diff = [], []
        for i in range(0, 40):
            for j in range(i + 1, 40):
                distance = np.linalg.norm(matrix[i] - matrix[j])
                (same if corpus.same_type(i, j) else diff).append(distance)
        if same and diff:
            assert np.mean(same) < np.mean(diff)

    def test_pair_features_shape(self):
        va, vb = np.ones(4), np.zeros(4)
        assert pair_features(va, vb).shape == (12,)

    @pytest.mark.parametrize("classifier", ["LR", "GBT", "SIM"])
    def test_feature_baseline_evaluation(self, corpus, task, classifier):
        candidates = task.candidate_pairs(k=5)
        splits = task.build_labeled_pairs(candidates, 60)
        result = evaluate_feature_baseline(
            corpus, SherlockFeaturizer(), splits, classifier
        )
        assert set(result) == {"valid", "test"}
        assert 0.0 <= result["test"]["f1"] <= 1.0
