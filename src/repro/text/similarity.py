"""Set/vector similarity measures used across blocking, profiling, baselines."""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np

from .tokenizer import word_tokenize


def jaccard(left: str, right: str) -> float:
    """Token-set Jaccard similarity of two strings (the paper's difficulty
    measure, Appendix E)."""
    a: Set[str] = set(word_tokenize(left))
    b: Set[str] = set(word_tokenize(right))
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def overlap_coefficient(left: str, right: str) -> float:
    a = set(word_tokenize(left))
    b = set(word_tokenize(right))
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def cosine(u: np.ndarray, v: np.ndarray, eps: float = 1e-12) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    if denom < eps:
        return 0.0
    return float(u @ v / denom)


def normalize_rows(
    matrix: np.ndarray, dtype: np.dtype | str | None = None, eps: float = 1e-12
) -> np.ndarray:
    """Unit-normalize the rows of ``matrix`` (all-zero rows stay zero).

    ``dtype=None`` works in, and keeps, the input's own dtype.  A given
    ``dtype`` normalizes in float64 (stable norms) and rounds *once* to
    that dtype — how the serving layers turn embeddings into
    ``store_dtype`` rows without a float64 copy of the result.
    """
    if dtype is not None:
        matrix = np.asarray(matrix, dtype=np.float64)
    unit = matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), eps)
    return unit if dtype is None else unit.astype(dtype, copy=False)


def cosine_matrix(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Pairwise cosine similarity between rows of two matrices."""
    return normalize_rows(a, np.float64, eps) @ normalize_rows(b, np.float64, eps).T


def levenshtein(left: str, right: str, cap: int | None = None) -> int:
    """Edit distance with an optional early-exit cap (used by the typo
    correction candidate generator)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if cap is not None and abs(len(left) - len(right)) > cap:
        return cap + 1
    previous = np.arange(len(right) + 1)
    for i, ch_left in enumerate(left, start=1):
        current = np.empty(len(right) + 1, dtype=np.int64)
        current[0] = i
        for j, ch_right in enumerate(right, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ch_left != ch_right),
            )
        if cap is not None and current.min() > cap:
            return cap + 1
        previous = current
    return int(previous[-1])


def top_k_cosine(
    queries: np.ndarray, corpus: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by cosine similarity.

    Returns ``(indices, scores)`` of shape (num_queries, k), scores sorted in
    descending order per row.  This is the similarity-search primitive the
    blocker uses; corpora at reproduction scale fit comfortably in memory so
    exact search replaces the paper's ANN index without changing results.
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
