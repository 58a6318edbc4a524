"""Exact cosine-similarity oracles the serving and text tests compare
against: a scalar cosine, the pairwise cosine matrix and a brute-force
top-k.  Nothing in the library calls them; the exact backend is the
scan the library serves from."""

from __future__ import annotations

import numpy as np

from repro.text import normalize_rows


def cosine(u: np.ndarray, v: np.ndarray, eps: float = 1e-12) -> float:
    """Cosine similarity of two vectors (0.0 when either is all-zero)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    if denom < eps:
        return 0.0
    return float(u @ v / denom)


def cosine_matrix(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Pairwise cosine similarity between rows of two matrices."""
    return normalize_rows(a, np.float64, eps) @ normalize_rows(b, np.float64, eps).T


def top_k_cosine(
    queries: np.ndarray, corpus: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by cosine similarity.

    Returns ``(indices, scores)`` of shape (num_queries, k), scores sorted
    in descending order per row.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    sims = cosine_matrix(queries, corpus)
    k = min(k, corpus.shape[0])
    top = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
    row_scores = np.take_along_axis(sims, top, axis=1)
    order = np.argsort(-row_scores, axis=1)
    indices = np.take_along_axis(top, order, axis=1)
    scores = np.take_along_axis(row_scores, order, axis=1)
    return indices, scores
