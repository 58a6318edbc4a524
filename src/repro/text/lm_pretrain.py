"""Masked-language-model warm start.

The paper initializes its encoder from RoBERTa.  Offline, the closest
behavioural equivalent is a short masked-token-prediction pass over the
task corpus: it gives the encoder distributional knowledge of the domain
vocabulary before any contrastive or supervised step, exactly the role the
pre-trained LM plays.  Baselines labelled "RoBERTa-base" in the paper's
tables map to this warm-started encoder *without* contrastive pre-training.

The epoch loop runs on the shared training engine
(:class:`repro.train.Trainer`); this module contributes the masking
program.  Callers may pass ``workers`` to run the warm start on gradient
workers too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import AdamW, LMHead, Module, TransformerEncoder, cross_entropy
from ..train import StepProgram, Trainer, permutation_batches, shard_bounds
from ..utils import spawn_rng
from .tokenizer import Tokenizer


@dataclass
class MLMConfig:
    """Masked-LM warm-start hyper-parameters (BERT-style 15% masking)."""

    epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 1e-3
    mask_probability: float = 0.15
    max_seq_len: int = 64
    seed: int = 0


@dataclass
class MLMResult:
    losses: List[float]


class _MLMModel(Module):
    """Encoder + LM head trained jointly during the warm start."""

    def __init__(self, encoder: TransformerEncoder, head: LMHead) -> None:
        super().__init__()
        self.encoder = encoder
        self.head = head


class MLMProgram(StepProgram):
    """BERT-style masked-token prediction as a step program.

    Epoch order and the 80/10/10 masking both draw from one generator in
    strict batch order.
    """

    def __init__(
        self,
        encoded: Any,
        tokenizer: Tokenizer,
        config: MLMConfig,
        rng: np.random.Generator,
    ) -> None:
        self.encoded = encoded
        self.tokenizer = tokenizer
        self.config = config
        self.rng = rng
        self.num_items = int(encoded.token_ids.shape[0])

    def epoch_batches(self, epoch: int) -> Sequence[np.ndarray]:
        return permutation_batches(
            self.rng, self.num_items, self.config.batch_size
        )

    def prepare(self, batch_idx: np.ndarray) -> Optional[Tuple]:
        token_ids = self.encoded.token_ids[batch_idx].copy()
        attention = self.encoded.attention_mask[batch_idx]
        masked_ids, target_ids, target_mask = _apply_masking(
            token_ids,
            attention,
            self.tokenizer,
            self.config.mask_probability,
            self.rng,
        )
        if not target_mask.any():
            return None
        return masked_ids, attention, target_ids, target_mask

    def loss(self, model: _MLMModel, prepared: Tuple):
        masked_ids, attention, target_ids, target_mask = prepared
        hidden = model.encoder(masked_ids, attention_mask=attention)
        logits = model.head(hidden)
        rows, cols = np.nonzero(target_mask)
        picked_logits = logits[rows, cols]
        return cross_entropy(picked_logits, target_ids[rows, cols])

    def shard(
        self, prepared: Tuple, num_shards: int
    ) -> Optional[List[Tuple[Tuple, int]]]:
        masked_ids, attention, target_ids, target_mask = prepared
        bounds = shard_bounds(masked_ids.shape[0], num_shards)
        if bounds is None:
            return None
        shards: List[Tuple[Tuple, int]] = []
        for lo, hi in bounds:
            if not target_mask[lo:hi].any():
                continue  # a shard with no masked positions has no loss
            shards.append(
                (
                    (
                        masked_ids[lo:hi],
                        attention[lo:hi],
                        target_ids[lo:hi],
                        target_mask[lo:hi],
                    ),
                    hi - lo,
                )
            )
        return shards if len(shards) >= 2 else None


def mlm_warm_start(
    encoder: TransformerEncoder,
    tokenizer: Tokenizer,
    corpus: Sequence[str],
    config: Optional[MLMConfig] = None,
    workers: int = 1,
) -> MLMResult:
    """Train ``encoder`` in place with masked token prediction.

    80% of selected positions become ``[MASK]``, 10% a random token, 10% are
    kept, following BERT.  Returns the per-epoch mean loss trace.
    ``workers`` sets the engine's gradient workers.  The corpus is
    tokenized exactly once up front (no per-epoch re-tokenization), so no
    token cache is involved here.
    """
    config = config or MLMConfig()
    rng = spawn_rng(config.seed, "mlm")
    head = LMHead(encoder.config, spawn_rng(config.seed, "mlm-head"))
    model = _MLMModel(encoder, head)
    optimizer = AdamW(model.parameters(), lr=config.learning_rate)
    encoded = tokenizer.encode_batch(list(corpus), max_len=config.max_seq_len)

    program = MLMProgram(encoded, tokenizer, config, rng)
    trainer = Trainer(model, program, optimizer, workers=workers)
    state = trainer.fit(max_epochs=config.epochs)
    return MLMResult(losses=list(state.epoch_losses))


def _apply_masking(
    token_ids: np.ndarray,
    attention_mask: np.ndarray,
    tokenizer: Tokenizer,
    probability: float,
    rng: np.random.Generator,
):
    """BERT's 80/10/10 masking over non-special positions."""
    special = np.isin(
        token_ids,
        [tokenizer.pad_id, tokenizer.cls_id, tokenizer.sep_id, tokenizer.col_id,
         tokenizer.val_id],
    )
    candidates = (attention_mask == 1) & ~special
    selected = candidates & (rng.random(token_ids.shape) < probability)
    targets = token_ids.copy()

    roll = rng.random(token_ids.shape)
    masked = token_ids.copy()
    replace_mask = selected & (roll < 0.8)
    random_mask = selected & (roll >= 0.8) & (roll < 0.9)
    masked[replace_mask] = tokenizer.mask_id
    if random_mask.any():
        masked[random_mask] = rng.integers(
            len(tokenizer.vocab), size=int(random_mask.sum())
        )
    return masked, targets, selected
