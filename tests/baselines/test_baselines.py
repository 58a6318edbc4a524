"""Tests for the EM baselines (Ditto, Rotom, DeepMatcher, ZeroER,
Auto-FuzzyJoin, DL-Block)."""

import numpy as np
import pytest

from repro import SudowoodoConfig
from repro.baselines import (
    DLBlockBlocker,
    augmented_copies,
    build_warm_encoder,
    manual_examples,
    pair_similarity_features,
    run_autofuzzyjoin,
    run_zeroer,
    train_deepmatcher,
    train_ditto,
    train_rotom,
)
from repro.core.matcher import TrainingExample
from repro.data.generators import load_em_benchmark


def tiny_config(**overrides):
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=600,
        pretrain_epochs=1,
        pretrain_batch_size=8,
        finetune_epochs=2,
        finetune_batch_size=8,
        num_clusters=3,
        corpus_cap=48,
        multiplier=2,
        mlm_warm_start_epochs=1,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    # DA is the easiest dataset — baselines produce meaningful output fast.
    return load_em_benchmark("DA", scale=0.02, max_table_size=40)


class TestWarmEncoder:
    def test_builds_and_embeds(self, dataset):
        encoder = build_warm_encoder(dataset, tiny_config())
        vectors = encoder.embed_items(dataset.all_items()[:5])
        assert vectors.shape == (5, 16)

    def test_manual_examples_budget(self, dataset):
        examples = manual_examples(dataset, 20, tiny_config())
        assert len(examples) == 20
        assert {e.label for e in examples} <= {0, 1}


class TestDitto:
    def test_report_structure(self, dataset):
        report = train_ditto(dataset, label_budget=24, config=tiny_config())
        assert report.dataset == "DA"
        assert report.name.startswith("Ditto")
        assert 0.0 <= report.f1 <= 1.0
        assert "finetune" in report.timings


class TestRotom:
    def test_augmented_copies_preserve_labels(self):
        examples = [
            TrainingExample("[COL] t [VAL] a b c", "[COL] t [VAL] a b c", 1, 1.0)
        ]
        copies = augmented_copies(
            examples, "token_del", 0.5, np.random.default_rng(0)
        )
        assert len(copies) == 1
        assert copies[0].label == 1
        assert copies[0].weight == 0.5

    def test_runs_end_to_end(self, dataset):
        report = train_rotom(
            dataset, label_budget=24, config=tiny_config(), rounds=1
        )
        assert 0.0 <= report.f1 <= 1.0


class TestDeepMatcher:
    def test_runs_and_reports(self, dataset):
        report = train_deepmatcher(
            dataset, label_budget=24, config=tiny_config(), epochs=3
        )
        assert report.name == "DeepMatcher (24)"
        assert 0.0 <= report.f1 <= 1.0

    def test_full_budget_name(self, dataset):
        report = train_deepmatcher(
            dataset, label_budget=None, config=tiny_config(), epochs=1
        )
        assert report.name == "DeepMatcher (full)"


class TestZeroER:
    def test_features_shape_and_range(self, dataset):
        pairs = [(p.left, p.right) for p in dataset.pairs.test[:10]]
        features = pair_similarity_features(dataset, pairs)
        assert features.shape == (10, 5)
        assert (features >= -1e-9).all() and (features <= 1 + 1e-9).all()

    def test_matches_score_higher(self, dataset):
        positives = [
            (p.left, p.right) for p in dataset.pairs.all_pairs() if p.label == 1
        ][:10]
        negatives = [
            (p.left, p.right) for p in dataset.pairs.all_pairs() if p.label == 0
        ][:10]
        pos_features = pair_similarity_features(dataset, positives)
        neg_features = pair_similarity_features(dataset, negatives)
        assert pos_features[:, 0].mean() > neg_features[:, 0].mean()

    def test_zeroer_beats_trivial_on_easy_data(self, dataset):
        report = run_zeroer(dataset)
        # DA-style data is nearly separable on similarity features.
        assert report.f1 > 0.5


class TestAutoFuzzyJoin:
    def test_runs_and_scores(self, dataset):
        report = run_autofuzzyjoin(dataset)
        assert report.name == "Auto-FuzzyJoin"
        assert 0.0 <= report.f1 <= 1.0

    def test_easy_data_good_f1(self, dataset):
        report = run_autofuzzyjoin(dataset)
        assert report.f1 > 0.4


class TestDLBlock:
    def test_blocker_candidates(self, dataset):
        blocker = DLBlockBlocker(dataset, tiny_config())
        candidates = blocker.candidates(3)
        assert len(candidates) == len(dataset.table_a) * 3

    def test_curve(self, dataset):
        rows = DLBlockBlocker(dataset, tiny_config()).recall_cssr_curve([1, 3])
        assert [r["k"] for r in rows] == [1, 3]
        assert rows[0]["recall"] <= rows[1]["recall"]
