"""Integration tests: encoder, blocker, matcher, and the end-to-end
``match`` task on tiny configs."""

import numpy as np
import pytest

from repro import SudowoodoConfig, SudowoodoSession
from repro.core import (
    Blocker,
    PairwiseMatcher,
    SudowoodoEncoder,
    TrainingExample,
    build_tokenizer,
    evaluate_f1,
    f1_from_predictions,
    finetune_matcher,
    prepare_corpus,
    pretrain,
)
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
        mlm_warm_start_epochs=0,
        blocking_k=3,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    return load_em_benchmark("AB", scale=0.02, max_table_size=40)


@pytest.fixture(scope="module")
def pretrained(dataset):
    config = tiny_config()
    result = pretrain(dataset.all_items(), config)
    return config, result


class TestConfig:
    def test_validation_catches_bad_values(self):
        with pytest.raises(ValueError):
            SudowoodoConfig(temperature=0.0).validate()
        with pytest.raises(ValueError):
            SudowoodoConfig(positive_ratio=1.5).validate()
        with pytest.raises(ValueError):
            SudowoodoConfig(multiplier=0).validate()
        with pytest.raises(ValueError):
            SudowoodoConfig(cutoff_kind="bogus").validate()

    def test_ablated_flips_flags(self):
        config = SudowoodoConfig().ablated(use_cutoff=False)
        assert not config.use_cutoff
        assert config.use_pseudo_labeling

    def test_as_simclr_disables_all(self):
        config = SudowoodoConfig().as_simclr()
        assert not any(
            [
                config.use_pseudo_labeling,
                config.use_cluster_sampling,
                config.use_cutoff,
                config.use_barlow_twins,
            ]
        )


class TestPrepareCorpus:
    def test_downsamples_to_cap(self):
        config = tiny_config(corpus_cap=10)
        corpus = prepare_corpus([f"item {i}" for i in range(50)], config,
                                np.random.default_rng(0))
        assert len(corpus) == 10

    def test_upsamples_to_cap(self):
        config = tiny_config(corpus_cap=20)
        corpus = prepare_corpus(["a", "b", "c"], config, np.random.default_rng(0))
        assert len(corpus) == 20
        assert set(corpus) <= {"a", "b", "c"}

    def test_no_cap_passthrough(self):
        config = tiny_config(corpus_cap=None)
        items = ["a", "b"]
        assert prepare_corpus(items, config, np.random.default_rng(0)) == items


class TestPretrain:
    def test_produces_encoder_and_losses(self, pretrained):
        _, result = pretrained
        assert result.encoder is not None
        assert len(result.epoch_losses) == 1
        assert np.isfinite(result.epoch_losses[0])

    def test_loss_decreases_over_epochs(self, dataset):
        config = tiny_config(pretrain_epochs=3, seed=1)
        result = pretrain(dataset.all_items(), config)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_embeddings_unit_norm(self, pretrained, dataset):
        _, result = pretrained
        vectors = result.encoder.embed_items(dataset.all_items()[:10])
        np.testing.assert_allclose(
            np.linalg.norm(vectors, axis=1), 1.0, atol=1e-6
        )

    def test_augmented_views_closer_than_random(self, pretrained, dataset):
        """The contrastive property: an item is closer to its augmented view
        than to a random other item, on average."""
        from repro.augment import augment

        _, result = pretrained
        rng = np.random.default_rng(0)
        items = dataset.all_items()[:20]
        views = [augment(t, rng, "token_del") for t in items]
        base = result.encoder.embed_items(items)
        augv = result.encoder.embed_items(views)
        aligned = np.einsum("ij,ij->i", base, augv).mean()
        shuffled = np.einsum("ij,ij->i", base, np.roll(augv, 3, axis=0)).mean()
        assert aligned > shuffled


class TestBlocker:
    def test_candidate_counts(self, pretrained, dataset):
        _, result = pretrained
        blocker = Blocker(result.encoder, dataset)
        candidates = blocker.candidates(k=3)
        assert len(candidates) == len(dataset.table_a) * 3
        assert candidates.cssr() == pytest.approx(
            3 / len(dataset.table_b), rel=1e-9
        )

    def test_recall_monotone_in_k(self, pretrained, dataset):
        _, result = pretrained
        blocker = Blocker(result.encoder, dataset)
        recalls = [
            blocker.candidates(k).recall(dataset.matches) for k in (1, 5, 15)
        ]
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_curve_rows(self, pretrained, dataset):
        _, result = pretrained
        blocker = Blocker(result.encoder, dataset)
        rows = blocker.recall_cssr_curve([1, 2])
        assert [r["k"] for r in rows] == [1, 2]
        assert all(0 <= r["recall"] <= 1 for r in rows)

    def test_first_k_beating_recall(self, pretrained, dataset):
        _, result = pretrained
        blocker = Blocker(result.encoder, dataset)
        candidate_set = blocker.first_k_beating_recall(0.01, max_k=20)
        assert candidate_set is not None
        assert candidate_set.recall(dataset.matches) >= 0.01

    def test_unreachable_recall_returns_none(self, pretrained, dataset):
        _, result = pretrained
        blocker = Blocker(result.encoder, dataset)
        assert blocker.first_k_beating_recall(1.01, max_k=2) is None


class TestMatcher:
    def test_forward_shapes(self, pretrained):
        config, result = pretrained
        matcher = PairwiseMatcher(result.encoder)
        logits = matcher.forward([("[COL] t [VAL] a", "[COL] t [VAL] b")] * 3)
        assert logits.shape == (3, 2)

    def test_concat_head(self, pretrained):
        _, result = pretrained
        matcher = PairwiseMatcher(result.encoder, head="concat")
        logits = matcher.forward([("[COL] t [VAL] a", "[COL] t [VAL] b")] * 2)
        assert logits.shape == (2, 2)

    def test_unknown_head_rejected(self, pretrained):
        _, result = pretrained
        with pytest.raises(ValueError):
            PairwiseMatcher(result.encoder, head="bogus")

    def test_predict_proba_rows_sum_to_one(self, pretrained):
        _, result = pretrained
        matcher = PairwiseMatcher(result.encoder)
        probs = matcher.predict_proba([("[COL] t [VAL] a", "[COL] t [VAL] a")] * 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_finetune_learns_simple_rule(self, pretrained, dataset):
        """The matcher should learn 'same item = match' from a few examples
        built from in-vocabulary dataset items."""
        config, result = pretrained
        matcher = PairwiseMatcher(result.encoder)
        items = dataset.all_items()[:12]
        examples = []
        for i, item in enumerate(items):
            examples.append(TrainingExample(item, item, 1, 1.0))
            examples.append(
                TrainingExample(item, items[(i + 3) % len(items)], 0, 1.0)
            )
        finetune_matcher(matcher, examples, examples, config, fixed_steps=40)
        metrics = evaluate_f1(
            matcher,
            [(e.left, e.right) for e in examples],
            [e.label for e in examples],
        )
        assert metrics["f1"] > 0.8

    def test_finetune_requires_examples(self, pretrained):
        config, result = pretrained
        matcher = PairwiseMatcher(result.encoder)
        with pytest.raises(ValueError):
            finetune_matcher(matcher, [], [], config)


class TestF1Computation:
    def test_perfect(self):
        m = f1_from_predictions(np.array([1, 0, 1]), np.array([1, 0, 1]))
        assert m["f1"] == 1.0

    def test_all_negative_prediction(self):
        m = f1_from_predictions(np.array([1, 0]), np.array([0, 0]))
        assert m["f1"] == 0.0 and m["precision"] == 0.0

    def test_known_values(self):
        labels = np.array([1, 1, 0, 0])
        preds = np.array([1, 0, 1, 0])
        m = f1_from_predictions(labels, preds)
        assert m["precision"] == 0.5 and m["recall"] == 0.5 and m["f1"] == 0.5


def pretrained_session(dataset, **overrides):
    session = SudowoodoSession(tiny_config(**overrides))
    session.pretrain(dataset.all_items())
    return session


class TestPipeline:
    """Pretrain -> block -> pseudo-label -> fine-tune through the session's
    ``match`` task."""

    def test_run_produces_report(self, dataset):
        session = pretrained_session(dataset)
        report = session.task("match").fit(dataset, label_budget=30).report()
        assert report.dataset == "AB"
        assert 0.0 <= report.f1 <= 1.0
        assert report.num_manual_labels == 30
        assert report.num_pseudo_labels > 0
        assert "pretrain" in session.timer.summary()
        assert {"blocking", "pseudo_label", "finetune"} <= set(report.timings)

    def test_unsupervised_mode(self, dataset):
        task = pretrained_session(dataset, seed=2).task("match")
        metrics = task.fit(dataset, label_budget=0).evaluate("test")
        assert 0.0 <= metrics["f1"] <= 1.0

    def test_requires_pretrain_first(self, dataset):
        task = SudowoodoSession(tiny_config()).task("match")
        with pytest.raises(RuntimeError):
            task.block()
        with pytest.raises(RuntimeError, match="pretrain"):
            task.fit(dataset, 10)
        with pytest.raises(RuntimeError):
            task.evaluate()

    def test_no_labels_no_pl_rejected(self, dataset):
        task = pretrained_session(dataset, use_pseudo_labeling=False).task("match")
        with pytest.raises(RuntimeError, match="no training examples"):
            task.fit(dataset, label_budget=0)
        assert not task.fitted

    def test_pseudo_quality_available(self, dataset):
        task = pretrained_session(dataset, seed=3).task("match")
        quality = task.fit(dataset, label_budget=20).pseudo_label_quality()
        assert set(quality) == {"tpr", "tnr"}
        assert task.report().pseudo_quality == quality

    def test_class_balance_weights_applied(self, dataset):
        task = pretrained_session(dataset).task("match").fit(dataset, 30)
        train, _ = task.build_training_set(30)
        pos_weights = {e.weight for e in train if e.label == 1}
        neg_weights = {e.weight for e in train if e.label == 0}
        assert max(pos_weights) > max(neg_weights)
