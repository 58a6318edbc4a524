"""Set/vector similarity measures used across blocking, profiling, baselines."""

from __future__ import annotations

from typing import Set

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
    """Token-set overlap: shared tokens over the smaller set's size."""
    a = set(word_tokenize(left))
    b = set(word_tokenize(right))
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


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

