"""Loss functions and similarity helpers on autograd tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between (B, C) logits and integer labels (B,)."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected (B, C) logits, got shape {logits.shape}")
    if labels.shape[0] != logits.shape[0]:
        raise ValueError("labels and logits batch sizes differ")
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[np.arange(labels.shape[0]), labels]
    return -picked.mean()


def weighted_cross_entropy(
    logits: Tensor, labels: np.ndarray, weights: np.ndarray
) -> Tensor:
    """Per-example weighted cross-entropy; weights are normalized to mean 1.

    Used for pseudo-labeled training sets where automatically generated
    labels can be down-weighted relative to manual ones.
    """
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[0] != labels.shape[0]:
        raise ValueError("weights and labels sizes differ")
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[np.arange(labels.shape[0]), labels]
    scale = weights / max(weights.mean(), 1e-12)
    return -(picked * Tensor(scale)).mean()
