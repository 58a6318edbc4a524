"""The per-batch cutoff transform the training loop used before the
engine hoisted the sampler: the reference the equivalence and hoist
regression tests compare against.  Nothing in the library calls it; the
engine draws the identical mask sequence through
``make_cutoff_sampler`` / ``mask_transform``."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.augment import make_cutoff_sampler
from repro.augment.cutoff import EmbeddingTransform
from repro.nn import Tensor


def make_cutoff_transform(
    kind: str,
    ratio: float,
    rng: np.random.Generator,
) -> Optional[EmbeddingTransform]:
    """Build a batch-wise cutoff transform (mask drawn at apply time).

    ``ratio`` is the fraction of token positions (or feature dimensions)
    zeroed, the paper's ``cutoff_ratio`` hyper-parameter (Table IV).
    Returns None for kind="none" or ratio<=0 (no transform).
    """
    sampler = make_cutoff_sampler(kind, ratio, rng)
    if sampler is None:
        return None

    def transform(embeddings: Tensor, attention_mask: np.ndarray) -> Tensor:
        _, seq_len, dim = embeddings.shape
        mask = sampler(seq_len, dim)
        return embeddings * Tensor(mask.astype(embeddings.data.dtype, copy=False))

    return transform
