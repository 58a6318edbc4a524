"""Gradient workers driving the real training paths.

``worker_count=1`` byte-identity is covered by ``test_equivalence``; here
the multi-worker path must be deterministic, finite, and structurally
equivalent (same epochs/steps) on contrastive pre-training and matcher
fine-tuning.
"""

import numpy as np
import pytest

from repro.core import (
    PairwiseMatcher,
    SudowoodoConfig,
    SudowoodoEncoder,
    TrainingExample,
    finetune_matcher,
    pretrain,
)
from repro.nn import Dropout
from repro.text import Tokenizer
from repro.train import GradientWorkerPool, module_rng_states

CORPUS = [
    f"[COL] name [VAL] sensor {i} gamma [COL] brand [VAL] orbit "
    f"[COL] price [VAL] {i}.25"
    for i in range(40)
]


def tiny_config(**overrides):
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=400,
        pretrain_epochs=2,
        pretrain_batch_size=8,
        finetune_epochs=2,
        finetune_batch_size=8,
        num_clusters=3,
        corpus_cap=32,
        mlm_warm_start_epochs=0,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.mark.stress
class TestParallelPretrain:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_deterministic_across_runs(self, workers):
        first = pretrain(list(CORPUS), tiny_config(train_workers=workers))
        second = pretrain(list(CORPUS), tiny_config(train_workers=workers))
        assert first.epoch_losses == second.epoch_losses
        for key, value in first.encoder.state_dict().items():
            assert np.array_equal(value, second.encoder.state_dict()[key])

    def test_losses_finite_and_epochs_complete(self):
        result = pretrain(list(CORPUS), tiny_config(train_workers=2))
        assert len(result.epoch_losses) == 2
        assert all(np.isfinite(loss) for loss in result.epoch_losses)

    def test_mlm_warm_start_with_workers(self):
        result = pretrain(
            list(CORPUS),
            tiny_config(train_workers=2, mlm_warm_start_epochs=1),
        )
        assert all(np.isfinite(loss) for loss in result.epoch_losses)

    def test_resume_with_workers_is_byte_identical(self, tmp_path):
        # Replica dropout generators are part of the checkpoint, so the
        # resume-determinism invariant holds for multi-worker runs too.
        config_kwargs = dict(train_workers=2, pretrain_epochs=4)
        full = pretrain(list(CORPUS), tiny_config(**config_kwargs))
        pretrain(
            list(CORPUS),
            tiny_config(train_workers=2, pretrain_epochs=2),
            checkpoint_dir=tmp_path,
        )
        resumed = pretrain(
            list(CORPUS),
            tiny_config(**config_kwargs),
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert resumed.epoch_losses == full.epoch_losses
        full_state = full.encoder.state_dict()
        for key, value in resumed.encoder.state_dict().items():
            assert np.array_equal(value, full_state[key]), key


@pytest.mark.stress
class TestParallelFinetune:
    def test_finetune_with_workers_trains(self):
        config = tiny_config(train_workers=2)
        tokenizer = Tokenizer.fit(CORPUS, vocab_size=400)
        matcher = PairwiseMatcher(SudowoodoEncoder(config, tokenizer))
        examples = [
            TrainingExample(CORPUS[i], CORPUS[i], 1, 1.0) for i in range(8)
        ] + [
            TrainingExample(CORPUS[i], CORPUS[i + 9], 0, 1.0) for i in range(8)
        ]
        result = finetune_matcher(matcher, examples, examples[:6], config)
        assert len(result.epoch_losses) >= 1
        assert all(np.isfinite(loss) for loss in result.epoch_losses)
        predictions = matcher.predict([(CORPUS[0], CORPUS[0])])
        assert predictions.shape == (1,)


class TestReplicaStreams:
    """Each gradient-worker replica draws its own dropout noise."""

    def test_replicas_draw_distinct_dropout_streams(self):
        config = tiny_config()
        tokenizer = Tokenizer.fit(CORPUS, vocab_size=400)
        encoder = SudowoodoEncoder(config, tokenizer)
        for module in encoder.modules():
            if isinstance(module, Dropout):
                module.p = 0.3
        encoder.train()
        before = module_rng_states(encoder)
        shard = tokenizer.encode_batch(CORPUS[:4], max_len=config.max_seq_len)
        losses = {}

        def loss_fn(model, prepared):
            z = model.project(model.encode_tokens_training(prepared))
            loss = (z * z).sum()
            losses[id(model)] = float(loss.item())
            return loss

        with GradientWorkerPool(encoder, 2) as pool:
            states = [module_rng_states(replica) for replica in pool.replicas]
            # Forking the replicas leaves the main model's streams alone.
            assert module_rng_states(encoder) == before
            for path in before:
                assert states[0][path] != states[1][path], path
            # Paths that share one generator in the model (equal states)
            # share one in each replica; the others stay apart.
            paths = sorted(before)
            for replica_states in states:
                for left in paths:
                    for right in paths:
                        assert (before[left] == before[right]) == (
                            replica_states[left] == replica_states[right]
                        ), (left, right)
            pool.run_step(loss_fn, [(shard, 4), (shard, 4)])
            first, second = (losses[id(replica)] for replica in pool.replicas)
        assert first != second
