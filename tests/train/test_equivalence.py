"""Engine-vs-legacy equivalence: the migrated loops are byte-identical.

Each test replays the pre-engine hand-rolled loop (copied here verbatim,
against the same library primitives) and asserts the engine-driven
implementation produces **byte-identical** weights and loss traces at the
default ``TrainConfig`` (one worker, no accumulation, no clipping).  This
is the refactor's safety net: any drift in RNG consumption order,
optimizer stepping, or epoch accounting fails these tests exactly.
"""

import numpy as np
import pytest

from cutoff_reference import make_cutoff_transform
from repro.augment import augment_batch
from repro.core import (
    PairwiseMatcher,
    SudowoodoConfig,
    SudowoodoEncoder,
    TrainingExample,
    build_tokenizer,
    finetune_matcher,
    pretrain,
)
from repro.core.losses import combined_loss, nt_xent_loss
from repro.core.matcher import evaluate_f1
from repro.core.negative_sampling import ClusterBatcher
from repro.core.pretrain import prepare_corpus
from repro.nn import AdamW, LinearWarmupDecay, weighted_cross_entropy
from repro.text import MLMConfig, Tokenizer, mlm_warm_start
from repro.text.lm_pretrain import _apply_masking
from repro.nn import LMHead, cross_entropy
from repro.utils import RngStream, spawn_rng

CORPUS = [
    f"[COL] name [VAL] widget {i} alpha [COL] brand [VAL] acme "
    f"[COL] price [VAL] {i}.99"
    for i in range(48)
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


def states_equal(left, right):
    assert set(left) == set(right)
    return all(np.array_equal(left[k], right[k]) for k in left)


# ----------------------------------------------------------------------
# Legacy replicas (the pre-engine loops, verbatim)
# ----------------------------------------------------------------------
def legacy_pretrain(corpus, config):
    """The pre-engine contrastive loop (mlm warm start assumed off)."""
    config.validate()
    rngs = RngStream(config.seed)
    corpus = prepare_corpus(corpus, config, rngs.get("corpus"))
    tokenizer = build_tokenizer(corpus, config)
    encoder = SudowoodoEncoder(config, tokenizer)

    batcher = ClusterBatcher(
        corpus,
        num_clusters=config.num_clusters if config.use_cluster_sampling else 1,
        rng=rngs.get("clustering"),
    )
    optimizer = AdamW(encoder.parameters(), lr=config.pretrain_lr)
    da_rng = rngs.get("augment")
    cutoff_rng = rngs.get("cutoff")
    batch_rng = rngs.get("batches")

    encoder.train()
    epoch_losses = []
    for _ in range(config.pretrain_epochs):
        if config.use_cluster_sampling:
            batches = batcher.batches(config.pretrain_batch_size, batch_rng)
        else:
            batches = batcher.uniform_batches(config.pretrain_batch_size, batch_rng)
        losses = []
        for batch_indices in batches:
            batch = [corpus[int(i)] for i in batch_indices]
            augmented = augment_batch(batch, da_rng, operator=config.da_operator)
            cutoff = (
                make_cutoff_transform(
                    config.cutoff_kind, config.cutoff_ratio, cutoff_rng
                )
                if config.use_cutoff
                else None
            )
            z_ori = encoder.project(encoder.encode_training(batch))
            z_aug = encoder.project(
                encoder.encode_training(augmented, embedding_transform=cutoff)
            )
            if config.use_barlow_twins:
                loss = combined_loss(
                    z_ori,
                    z_aug,
                    temperature=config.temperature,
                    alpha_bt=config.alpha_bt,
                    lambda_bt=config.lambda_bt,
                )
            else:
                loss = nt_xent_loss(z_ori, z_aug, temperature=config.temperature)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
    encoder.eval()
    return encoder, epoch_losses


def legacy_mlm(encoder, tokenizer, corpus, config):
    """The pre-engine masked-LM loop."""
    rng = spawn_rng(config.seed, "mlm")
    head = LMHead(encoder.config, spawn_rng(config.seed, "mlm-head"))
    optimizer = AdamW(
        encoder.parameters() + head.parameters(), lr=config.learning_rate
    )
    encoded = tokenizer.encode_batch(list(corpus), max_len=config.max_seq_len)
    num_items = encoded.token_ids.shape[0]
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(num_items)
        epoch_losses = []
        for start in range(0, num_items, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            token_ids = encoded.token_ids[batch_idx].copy()
            attention = encoded.attention_mask[batch_idx]
            masked_ids, target_ids, target_mask = _apply_masking(
                token_ids, attention, tokenizer, config.mask_probability, rng
            )
            if not target_mask.any():
                continue
            hidden = encoder(masked_ids, attention_mask=attention)
            logits = head(hidden)
            rows, cols = np.nonzero(target_mask)
            loss = cross_entropy(logits[rows, cols], target_ids[rows, cols])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
    return losses


def legacy_finetune(matcher, train_examples, valid_examples, config,
                    fixed_steps=None, num_validations=4):
    """The pre-engine fine-tuning loop."""
    rng = spawn_rng(config.seed, "finetune")
    head_optimizer = AdamW(
        matcher.classifier.parameters(), lr=config.head_lr, weight_decay=0.0
    )
    encoder_optimizer = AdamW(
        matcher.encoder.parameters(), lr=config.finetune_lr
    )
    steps_per_epoch = max(
        1, int(np.ceil(len(train_examples) / config.finetune_batch_size))
    )
    total_steps = (
        fixed_steps
        if fixed_steps is not None
        else steps_per_epoch * config.finetune_epochs
    )
    encoder_schedule = LinearWarmupDecay(
        encoder_optimizer, config.finetune_lr, total_steps
    )
    epochs_planned = max(1, int(np.ceil(total_steps / steps_per_epoch)))
    validate_every = max(1, epochs_planned // max(1, num_validations))

    best_valid_f1, best_state, steps_taken, epoch = 0.0, None, 0, 0
    epoch_losses_trace = []
    matcher.encoder.encoder.train()
    while steps_taken < total_steps:
        order = rng.permutation(len(train_examples))
        epoch_losses = []
        for start in range(0, len(order), config.finetune_batch_size):
            if steps_taken >= total_steps:
                break
            batch = [
                train_examples[int(i)]
                for i in order[start : start + config.finetune_batch_size]
            ]
            if len(batch) < 2:
                continue
            logits = matcher.forward([(e.left, e.right) for e in batch])
            loss = weighted_cross_entropy(
                logits,
                np.array([e.label for e in batch]),
                np.array([e.weight for e in batch]),
            )
            head_optimizer.zero_grad()
            encoder_optimizer.zero_grad()
            loss.backward()
            encoder_schedule.step()
            head_optimizer.step()
            encoder_optimizer.step()
            steps_taken += 1
            epoch_losses.append(loss.item())
        epoch_losses_trace.append(
            float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        )
        is_last = steps_taken >= total_steps
        if valid_examples and (epoch % validate_every == 0 or is_last):
            valid_f1 = evaluate_f1(
                matcher,
                [(e.left, e.right) for e in valid_examples],
                [e.label for e in valid_examples],
            )["f1"]
            if valid_f1 >= best_valid_f1:
                best_valid_f1 = valid_f1
                best_state = matcher.state_dict()
        epoch += 1
    if best_state is not None:
        matcher.load_state_dict(best_state)
    matcher.encoder.encoder.eval()
    return epoch_losses_trace, best_valid_f1


# ----------------------------------------------------------------------
# Equivalence assertions
# ----------------------------------------------------------------------
class TestPretrainEquivalence:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"use_cutoff": False},
            {"use_barlow_twins": False, "cutoff_kind": "token"},
            {"use_cluster_sampling": False, "da_operator": "span_shuffle"},
        ],
    )
    def test_engine_matches_legacy_loop(self, overrides):
        config = tiny_config(**overrides)
        legacy_encoder, legacy_losses = legacy_pretrain(list(CORPUS), config)
        result = pretrain(list(CORPUS), tiny_config(**overrides))
        assert result.epoch_losses == legacy_losses
        assert states_equal(
            result.encoder.state_dict(), legacy_encoder.state_dict()
        )


class TestMLMEquivalence:
    def test_engine_matches_legacy_loop(self):
        config = tiny_config()
        tokenizer = Tokenizer.fit(CORPUS, vocab_size=config.vocab_size)
        mlm_config = MLMConfig(epochs=2, batch_size=8, max_seq_len=24, seed=0)

        legacy_encoder = SudowoodoEncoder(config, tokenizer)
        legacy_losses = legacy_mlm(
            legacy_encoder.encoder, tokenizer, CORPUS, mlm_config
        )

        engine_encoder = SudowoodoEncoder(config, tokenizer)
        result = mlm_warm_start(
            engine_encoder.encoder, tokenizer, CORPUS, mlm_config
        )
        assert result.losses == legacy_losses
        assert states_equal(
            engine_encoder.state_dict(), legacy_encoder.state_dict()
        )


class TestFinetuneEquivalence:
    def _examples(self):
        positives = [
            TrainingExample(CORPUS[i], CORPUS[i], 1, 1.0) for i in range(8)
        ]
        negatives = [
            TrainingExample(CORPUS[i], CORPUS[i + 9], 0, 1.0) for i in range(8)
        ]
        return positives + negatives

    @pytest.mark.parametrize("fixed_steps", [None, 5])
    def test_engine_matches_legacy_loop(self, fixed_steps):
        config = tiny_config()
        examples = self._examples()
        valid = examples[:6]

        tokenizer = Tokenizer.fit(CORPUS, vocab_size=config.vocab_size)
        legacy_matcher = PairwiseMatcher(SudowoodoEncoder(config, tokenizer))
        legacy_losses, legacy_best = legacy_finetune(
            legacy_matcher, examples, valid, config, fixed_steps=fixed_steps
        )

        engine_matcher = PairwiseMatcher(SudowoodoEncoder(config, tokenizer))
        result = finetune_matcher(
            engine_matcher, examples, valid, config, fixed_steps=fixed_steps
        )
        assert result.epoch_losses == legacy_losses
        assert result.best_valid_f1 == legacy_best
        assert states_equal(
            engine_matcher.state_dict(), legacy_matcher.state_dict()
        )
