"""Cutoff data augmentation (Figure 5 of the paper).

The three cutoff operators — token, feature, span — act directly on the
token-embedding matrix of a batch, zeroing a sampled row set, column set,
or contiguous row span.  Following Section IV-A, the *same* cutoff choice
is applied to every item in a batch, which makes the encoder predict from
partial information each step (a dropout-like regularizer).

Implementation: a cutoff produces an ``embedding_transform`` callable that
the :class:`~repro.nn.TransformerEncoder` applies between the embedding
lookup and the attention stack — exactly the paper's injection point.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..nn import Tensor

EmbeddingTransform = Callable[[Tensor, np.ndarray], Tensor]

#: A hoisted cutoff sampler: ``(seq_len, dim) -> (1, T, D) float mask``.
CutoffSampler = Callable[[int, int], np.ndarray]

CUTOFF_KINDS = ("token", "feature", "span", "none")


def make_cutoff_sampler(
    kind: str,
    ratio: float,
    rng: np.random.Generator,
) -> Optional[CutoffSampler]:
    """Build a reusable cutoff *mask* sampler.

    The sampler's arguments (``kind``, ``ratio``, ``rng``) are
    loop-invariant, so the training engine hoists this call out of the
    batch loop and draws one mask per batch, ahead of the forward pass
    (gradient workers need that); :func:`mask_transform` applies it.
    Returns None for kind="none" or ratio<=0 (no cutoff).
    """
    if kind not in CUTOFF_KINDS:
        raise ValueError(f"unknown cutoff kind {kind!r}; known: {CUTOFF_KINDS}")
    if kind == "none" or ratio <= 0:
        return None

    def sample(seq_len: int, dim: int) -> np.ndarray:
        mask = np.ones((1, seq_len, dim))
        if kind == "token":
            count = max(1, int(round(seq_len * ratio)))
            # Never cut position 0 ([CLS]) — it carries the pooled output.
            positions = rng.choice(
                np.arange(1, seq_len), size=min(count, seq_len - 1), replace=False
            )
            mask[0, positions, :] = 0.0
        elif kind == "feature":
            count = max(1, int(round(dim * ratio)))
            features = rng.choice(dim, size=count, replace=False)
            mask[0, :, features] = 0.0
        elif kind == "span":
            count = max(1, int(round(seq_len * ratio)))
            start = int(rng.integers(1, max(2, seq_len - count)))
            mask[0, start : start + count, :] = 0.0
        return mask

    return sample


def mask_transform(mask: np.ndarray) -> EmbeddingTransform:
    """Wrap a pre-sampled cutoff mask as an ``embedding_transform``.

    The mask is cast to the embedding dtype at apply time, so a sampler
    hoisted outside the autograd context composes with either float32 or
    float64 runs.
    """

    def transform(embeddings: Tensor, attention_mask: np.ndarray) -> Tensor:
        return embeddings * Tensor(mask.astype(embeddings.data.dtype, copy=False))

    return transform

