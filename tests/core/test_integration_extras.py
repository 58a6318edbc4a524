"""Extra integration tests: concat head, HNSW blocking, positive ratio."""

import numpy as np
import pytest

from repro import SudowoodoConfig, SudowoodoSession
from repro.data.generators import load_em_benchmark
from repro.serve import ExactBackend, HNSWBackend


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
    return load_em_benchmark("DA", scale=0.02, max_table_size=40)


def pretrained_session(dataset, **overrides):
    session = SudowoodoSession(tiny_config(**overrides))
    session.pretrain(dataset.all_items())
    return session


class TestConcatHeadPipeline:
    def test_pipeline_with_ditto_style_head(self, dataset):
        task = pretrained_session(dataset, seed=1).task("match")
        metrics = task.fit(dataset, label_budget=20, head="concat").evaluate("test")
        assert 0.0 <= metrics["f1"] <= 1.0


class TestHNSWBlockingIntegration:
    @pytest.fixture(scope="class")
    def blocker(self, dataset):
        return pretrained_session(dataset, seed=2).task("block").fit(dataset).blocker

    def test_hnsw_over_learned_embeddings(self, blocker):
        """HNSW retrieval over the blocker's embedding space approximates
        the exact kNN candidates."""
        ids = np.arange(blocker.vectors_b.shape[0])
        hnsw = HNSWBackend(m=4, seed=0)
        hnsw.add(ids, blocker.vectors_b)
        exact = ExactBackend()
        exact.add(ids, blocker.vectors_b)
        approx, _ = hnsw.query(blocker.vectors_a[:20], k=3)
        truth, _ = exact.query(blocker.vectors_a[:20], k=3)
        hits = sum(len(set(a) & set(t)) for a, t in zip(approx, truth))
        assert hits / truth.size > 0.5

    def test_hnsw_candidates_contain_matches(self, dataset, blocker):
        hnsw = HNSWBackend(m=4, seed=1)
        hnsw.add(np.arange(blocker.vectors_b.shape[0]), blocker.vectors_b)
        indices, _ = hnsw.query(blocker.vectors_a, k=10)
        candidate_pairs = {
            (a, int(b))
            for a in range(indices.shape[0])
            for b in indices[a]
            if b >= 0
        }
        retained = sum(1 for m in dataset.matches if m in candidate_pairs)
        assert retained / max(1, len(dataset.matches)) > 0.3


class TestPositiveRatioPlumbing:
    def test_pseudo_positive_fraction_shrinks_positives(self, dataset):
        def positives(fraction):
            session = pretrained_session(dataset, pseudo_positive_fraction=fraction)
            task = session.task("match").fit(dataset, label_budget=20)
            return len(task._pseudo.positives)

        assert positives(0.3) <= positives(1.0)
