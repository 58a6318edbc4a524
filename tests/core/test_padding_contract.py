"""The padding contract: a batch is padded to its longest row, and that
changes nothing but BLAS reduction shapes.

Masked positions contribute exact zeros — padded keys are blocked before
the softmax, padded rows never reach a pooled output or a loss — so a
step on batch-trimmed rows and the same step on the same rows re-padded
to the config length (the pre-trim rule, rebuilt here test-side) agree to
rounding, and a text embeds the same alone or beside a longer neighbour.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.augment import mask_transform
from repro.core import (
    PairwiseMatcher,
    SudowoodoConfig,
    SudowoodoEncoder,
    TrainingExample,
    build_tokenizer,
)
from repro.core.matcher import FinetuneProgram
from repro.core.pretrain import ContrastivePretrainProgram
from repro.nn import Tensor, autograd_dtype
from repro.text import Tokenizer
from repro.text.tokenizer import Encoding
from repro.utils import RngStream, spawn_rng

CORPUS = [
    f"[COL] name [VAL] gadget {i} " + "omega " * (i % 5) + f"[COL] price [VAL] {i}.50"
    for i in range(24)
]
TOLERANCE = {np.float64: 1e-10, np.float32: 1e-5}


def contract_config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=16, num_layers=2, num_heads=2, ffn_dim=32, max_seq_len=32,
        pair_max_seq_len=56, vocab_size=300, pretrain_batch_size=8,
        finetune_batch_size=8, num_clusters=2, corpus_cap=24, dropout=0.0,
        cutoff_kind="span", cutoff_ratio=0.1, seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def repad(encoding: Encoding, width: int) -> Encoding:
    """``encoding`` with all-[PAD] (id 0, mask 0, segment 0) columns
    appended up to ``width`` — the batch the pre-trim stacking built."""
    extra = width - encoding.token_ids.shape[1]
    assert extra >= 0
    return Encoding(
        *(
            np.pad(rows, ((0, 0), (0, extra)))
            for rows in (
                encoding.token_ids, encoding.attention_mask, encoding.segment_ids
            )
        )
    )


class FixedLengthTokenizer(Tokenizer):
    """The pre-trim padding rule: every batch at its ``max_len``."""

    def encode_batch(self, texts, max_len=64):
        return repad(super().encode_batch(texts, max_len=max_len), max_len)

    def encode_pair_batch(self, pairs, max_len=64):
        return repad(super().encode_pair_batch(pairs, max_len=max_len), max_len)


def loss_and_grads(model, loss):
    model.zero_grad()
    loss.backward()
    return loss.item(), {
        name: param.grad.copy()
        for name, param in model.named_parameters()
        if param.grad is not None  # e.g. the projector while fine-tuning
    }


def assert_same_step(trimmed, padded, tolerance):
    (loss_t, grads_t), (loss_p, grads_p) = trimmed, padded
    np.testing.assert_allclose(loss_t, loss_p, rtol=tolerance, atol=tolerance)
    assert grads_t.keys() == grads_p.keys() and grads_t
    for name in grads_t:
        np.testing.assert_allclose(
            grads_t[name], grads_p[name], rtol=tolerance, atol=tolerance, err_msg=name
        )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestTrainingStepIgnoresPadding:
    def test_pretrain_step(self, dtype):
        config = contract_config()
        with autograd_dtype(dtype):
            tokenizer = build_tokenizer(CORPUS, config)
            model = SudowoodoEncoder(config, tokenizer)
            program = ContrastivePretrainProgram(
                CORPUS, config, RngStream(0), tokenizer
            )
            prepared = program.prepare(np.arange(8))
            seq = prepared.aug.token_ids.shape[1]
            assert max(seq, prepared.ori.token_ids.shape[1]) < config.max_seq_len
            # The cutoff mask at the config length: ones over the new padding.
            cut = prepared.transform(Tensor(np.ones((1, seq, config.dim))), None).data
            mask = np.ones((1, config.max_seq_len, config.dim))
            mask[:, :seq] = cut
            assert (cut == 0.0).any()
            padded = replace(
                prepared,
                ori=repad(prepared.ori, config.max_seq_len),
                aug=repad(prepared.aug, config.max_seq_len),
                transform=mask_transform(mask),
            )
            assert_same_step(
                loss_and_grads(model, program.loss(model, prepared)),
                loss_and_grads(model, program.loss(model, padded)),
                TOLERANCE[dtype],
            )

    def test_finetune_step(self, dtype):
        config = contract_config()
        examples = [
            TrainingExample(CORPUS[i], CORPUS[(i * 7 + 3) % 24], i % 2, 1.0 + i % 3)
            for i in range(8)
        ]
        with autograd_dtype(dtype):
            tokenizer = build_tokenizer(CORPUS, config)
            steps = []
            for tok in (tokenizer, FixedLengthTokenizer(tokenizer.vocab)):
                matcher = PairwiseMatcher(SudowoodoEncoder(config, tok))
                program = FinetuneProgram(
                    matcher, examples, [], config, spawn_rng(0, "finetune"), 1
                )
                steps.append(
                    loss_and_grads(matcher, program.loss(matcher, examples))
                )
            trimmed = tokenizer.encode_pair_batch([(e.left, e.right) for e in examples])
            assert trimmed.token_ids.shape[1] < config.pair_max_seq_len
            assert_same_step(*steps, TOLERANCE[dtype])


@pytest.mark.parametrize(
    "dtype, tolerance", [(np.float64, 1e-12), (np.float32, 1e-6)]
)
@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_embedding_independent_of_chunk_mates(dtype, tolerance, pooling):
    config = contract_config(pooling=pooling)
    with autograd_dtype(dtype):
        encoder = SudowoodoEncoder(config, build_tokenizer(CORPUS, config))
        short, long = CORPUS[0], CORPUS[4]
        widths = [
            encoder.tokenizer.encode_batch(batch, max_len=config.max_seq_len)
            .token_ids.shape[1]
            for batch in ([short], [short, long])
        ]
        assert widths[0] < widths[1] < config.max_seq_len
        for normalize in (False, True):
            alone = encoder.embed_items([short], normalize=normalize)
            beside = encoder.embed_items([short, long], normalize=normalize)
            np.testing.assert_allclose(alone[0], beside[0], rtol=0, atol=tolerance)
