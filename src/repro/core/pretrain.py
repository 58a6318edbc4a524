"""Contrastive pre-training (Algorithm 1 with the Section IV optimizations).

Per epoch: mini-batches are drawn by clustering-based negative sampling
(Algorithm 2) when enabled, otherwise uniformly.  Each batch is augmented
with one base DA operator (Table I); the augmented view is additionally
perturbed by a batch-wise cutoff at the token-embedding level (Figure 5).
The loss is Equation 6 — NT-Xent optionally blended with Barlow Twins.

The epoch/step loop itself runs on the shared training engine
(:class:`repro.train.Trainer`): this module contributes only the
:class:`StepProgram` adapter — batch drawing, augmentation, and the
contrastive loss — while the engine owns optimizer stepping, tokenization
caching, data-parallel gradient workers, and full-state checkpoint/resume
(``checkpoint_dir=`` / ``resume=``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..augment import augment_batch, make_cutoff_sampler, mask_transform
from ..nn import AdamW
from ..text import MLMConfig, mlm_warm_start
from ..train import (
    TRAINER_STATE_FILE,
    StepProgram,
    TokenCache,
    Trainer,
    shard_bounds,
)
from ..utils import RngStream
from .config import SudowoodoConfig
from .encoder import SudowoodoEncoder, build_tokenizer
from .losses import combined_loss, nt_xent_loss
from .negative_sampling import ClusterBatcher

PathLike = Union[str, Path]

#: AdamW step size of contrastive pre-training (paper: 5e-5 at RoBERTa
#: scale; the CPU-scale encoder trains from a much shorter warm start).
PRETRAIN_LR = 5e-4


@dataclass
class PretrainResult:
    """The trained embedding model plus its training trace."""

    encoder: SudowoodoEncoder
    epoch_losses: List[float] = field(default_factory=list)
    corpus_size: int = 0


def prepare_corpus(
    items: Sequence[str], config: SudowoodoConfig, rng: np.random.Generator
) -> List[str]:
    """Up/down-sample the unlabeled corpus to ``corpus_cap`` items, as the
    paper fixes its pre-training corpus to 10k by re-sampling."""
    items = list(items)
    if config.corpus_cap is None or len(items) == config.corpus_cap:
        return items
    if len(items) > config.corpus_cap:
        chosen = rng.choice(len(items), size=config.corpus_cap, replace=False)
        return [items[int(i)] for i in chosen]
    extra = rng.choice(len(items), size=config.corpus_cap - len(items), replace=True)
    return items + [items[int(i)] for i in extra]


@dataclass
class _PreparedBatch:
    """Step inputs the contrastive program hands the engine."""

    ori: Any  # stacked Encoding of the original view
    aug: Any  # stacked Encoding of the augmented view
    transform: Optional[Any]  # embedding transform for the augmented view
    size: int


class ContrastivePretrainProgram(StepProgram):
    """Algorithm 1's inner loop as a :class:`~repro.train.StepProgram`.

    Batch preparation — text augmentation with the configured DA operator,
    tokenization (cache-first for the original view), cutoff mask drawing —
    runs in ``prepare``; the forward pass encodes both views and evaluates
    Equation 6.  Every stochastic choice draws from its own named stream.
    """

    def __init__(
        self,
        corpus: Sequence[str],
        config: SudowoodoConfig,
        rngs: RngStream,
        tokenizer: Any,
        token_cache: Optional[TokenCache] = None,
    ) -> None:
        self.corpus = list(corpus)
        self.config = config
        self.tokenizer = tokenizer
        self.token_cache = token_cache or TokenCache(tokenizer)
        self.batcher = ClusterBatcher(
            self.corpus,
            num_clusters=config.num_clusters if config.use_cluster_sampling else 1,
            rng=rngs.get("clustering"),
        )
        self.da_rng = rngs.get("augment")
        self.cutoff_rng = rngs.get("cutoff")
        self.batch_rng = rngs.get("batches")
        # Satellite fix: the cutoff factory's arguments are loop-invariant,
        # so it is hoisted here instead of being rebuilt per batch; the
        # per-batch mask draw consumes the identical cutoff-RNG sequence.
        self.cutoff_sampler = (
            make_cutoff_sampler(
                config.cutoff_kind, config.cutoff_ratio, self.cutoff_rng
            )
            if config.use_cutoff
            else None
        )

    # ------------------------------------------------------------------
    def epoch_batches(self, epoch: int) -> Sequence[np.ndarray]:
        if self.config.use_cluster_sampling:
            return self.batcher.batches(
                self.config.pretrain_batch_size, self.batch_rng
            )
        return self.batcher.uniform_batches(
            self.config.pretrain_batch_size, self.batch_rng
        )

    def prepare(self, batch_indices: np.ndarray) -> _PreparedBatch:
        batch = [self.corpus[int(i)] for i in batch_indices]
        # Line 7 of Algorithm 1: apply the configured DA operator.
        augmented = augment_batch(batch, self.da_rng, operator=self.config.da_operator)
        ori = self.token_cache.encode_batch(batch, self.config.max_seq_len)
        aug = self.tokenizer.encode_batch(augmented, max_len=self.config.max_seq_len)
        transform = None
        if self.cutoff_sampler is not None:
            # Sampled at the augmented view's own (trimmed) length, so a
            # cut never lands on columns that are padding in every row.
            mask = self.cutoff_sampler(aug.token_ids.shape[1], self.config.dim)
            transform = mask_transform(mask)
        return _PreparedBatch(ori=ori, aug=aug, transform=transform, size=len(batch))

    def loss(self, model: SudowoodoEncoder, prepared: _PreparedBatch):
        # Line 7/9 of Algorithm 1: encode both views, Equation 6 (or plain
        # Equation 2 without RR).
        z_ori = model.project(model.encode_tokens_training(prepared.ori))
        z_aug = model.project(
            model.encode_tokens_training(
                prepared.aug, embedding_transform=prepared.transform
            )
        )
        # The paper's constants (tau = 0.07, lambda = 3.9e-3) are the loss
        # functions' defaults.
        if self.config.use_barlow_twins:
            return combined_loss(z_ori, z_aug, alpha_bt=self.config.alpha_bt)
        return nt_xent_loss(z_ori, z_aug)

    def shard(
        self, prepared: _PreparedBatch, num_shards: int
    ) -> Optional[List[Tuple[_PreparedBatch, int]]]:
        # Contrastive losses need >= 2 items per shard for in-batch
        # negatives.
        bounds = shard_bounds(prepared.size, num_shards, min_per_shard=2)
        if bounds is None:
            return None
        return [
            (
                _PreparedBatch(
                    ori=_slice_encoding(prepared.ori, lo, hi),
                    aug=_slice_encoding(prepared.aug, lo, hi),
                    transform=prepared.transform,
                    size=hi - lo,
                ),
                hi - lo,
            )
            for lo, hi in bounds
        ]


def _slice_encoding(encoding: Any, lo: int, hi: int) -> Any:
    return type(encoding)(
        token_ids=encoding.token_ids[lo:hi],
        attention_mask=encoding.attention_mask[lo:hi],
        segment_ids=encoding.segment_ids[lo:hi],
    )


def pretrain(
    corpus: Sequence[str],
    config: Optional[SudowoodoConfig] = None,
    encoder: Optional[SudowoodoEncoder] = None,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
) -> PretrainResult:
    """Run contrastive pre-training over a corpus of serialized data items.

    If ``encoder`` is None a tokenizer is fitted and a fresh encoder built;
    when ``config.mlm_warm_start_epochs > 0`` the encoder is first warmed up
    with masked-LM training (the offline stand-in for initializing from a
    pre-trained LM — Algorithm 1, line 1).

    With ``checkpoint_dir`` the engine writes a full-state checkpoint
    (model + optimizer moments + RNG stream states) after every epoch;
    ``resume=True`` restores the latest checkpoint from that directory —
    when one exists — and continues, reproducing the uninterrupted run's
    weights and ``epoch_losses`` byte-identically.  A corrupt checkpoint
    raises ``ValueError`` rather than silently restarting.
    """
    config = config or SudowoodoConfig()
    config.validate()
    if resume and checkpoint_dir is None:
        raise ValueError(
            "resume=True requires checkpoint_dir (a resume request "
            "silently retraining from scratch would discard the prior run)"
        )
    rngs = RngStream(config.seed)
    corpus = prepare_corpus(corpus, config, rngs.get("corpus"))

    resuming = resume and (Path(checkpoint_dir) / TRAINER_STATE_FILE).exists()
    token_cache: Optional[TokenCache] = None
    if encoder is None:
        tokenizer = build_tokenizer(corpus, config)
        encoder = SudowoodoEncoder(config, tokenizer)
        token_cache = TokenCache(tokenizer)
        if config.mlm_warm_start_epochs > 0 and not resuming:
            # The warm-start corpus mixes single items with random pair
            # concatenations so the encoder has seen `[SEP]`-joined long
            # sequences before pair fine-tuning — the role RoBerta's
            # general pre-training plays in the original system.  (When
            # resuming, the checkpoint restores post-warm-start weights,
            # so the warm start is skipped outright.)
            warm_rng = rngs.get("warm-pairs")
            pair_lines = [
                corpus[int(warm_rng.integers(len(corpus)))]
                + " [SEP] "
                + corpus[int(warm_rng.integers(len(corpus)))]
                for _ in range(len(corpus) // 2)
            ]
            mlm_warm_start(
                encoder.encoder,
                tokenizer,
                list(corpus) + pair_lines,
                MLMConfig(
                    epochs=config.mlm_warm_start_epochs,
                    batch_size=config.pretrain_batch_size,
                    max_seq_len=config.pair_max_seq_len,
                    seed=config.seed,
                ),
                workers=config.train_workers,
            )
    else:
        tokenizer = encoder.tokenizer

    program = ContrastivePretrainProgram(
        corpus, config, rngs, tokenizer, token_cache=token_cache
    )
    optimizer = AdamW(encoder.parameters(), lr=PRETRAIN_LR)
    trainer = Trainer(
        encoder,
        program,
        optimizer,
        workers=config.train_workers,
        rngs=rngs,
        checkpoint_dir=checkpoint_dir,
    )
    if resume:
        trainer.try_resume()
    state = trainer.fit(max_epochs=config.pretrain_epochs)

    return PretrainResult(
        encoder=encoder,
        epoch_losses=list(state.epoch_losses),
        corpus_size=len(corpus),
    )
