"""Embedding-level mixup views (Contrastive Mixup, tabular domain).

``mixup_embed`` builds the augmented view of each in-batch item by
interpolating its token embeddings with those of another item from the
same batch: ``lam * E_i + (1 - lam) * E_perm(i)``.  Following the
Contrastive Mixup recipe, ``lam`` is drawn from ``Beta(alpha, alpha)``
and folded to ``max(lam, 1 - lam)`` so the view stays anchored to its
own item (a *semantically equivalent* distortion, like the Table I text
operators, not a label-mixing regularizer).

At the text level ``mixup_embed`` is the identity — the distortion lives
entirely at the embedding injection point the cutoff operators already
use — which is what lets it register in ``EM_OPERATORS`` next to the
token/span operators.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..nn import Tensor
from .cutoff import EmbeddingTransform

#: Default Beta concentration; small alpha keeps lam near 0 or 1, and the
#: fold keeps it near 1 (mostly-self views).
MIXUP_ALPHA = 0.2


def sample_mixup(
    batch_size: int, rng: np.random.Generator, alpha: float = MIXUP_ALPHA
) -> Tuple[np.ndarray, float]:
    """Draw a batch mixup plan: partner permutation and fold-up lambda.

    Like the batch-wise cutoff, one ``lam`` is shared by the whole batch;
    partners come from a uniform permutation (an item may map to itself,
    in which case its view degenerates to the identity — harmless).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    permutation = rng.permutation(batch_size)
    lam = float(rng.beta(alpha, alpha))
    return permutation, max(lam, 1.0 - lam)


def mixup_transform(permutation: np.ndarray, lam: float) -> EmbeddingTransform:
    """Wrap a sampled mixup plan as an ``embedding_transform``.

    Gradients flow to both interpolation endpoints (the permutation is a
    differentiable gather), matching Contrastive Mixup's training setup.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")

    def transform(embeddings: Tensor, attention_mask: np.ndarray) -> Tensor:
        partners = embeddings[permutation]
        return embeddings * lam + partners * (1.0 - lam)

    return transform
