"""Jaccard-difficulty profiling (Appendix E, Table XVI).

Test pairs are split into five equal-size, equal-positive-ratio levels by
token Jaccard similarity: level 5 (hardest) holds the least-similar
positives and the most-similar negatives; level 1 the opposite.  A method
relying on surface similarity degrades sharply toward level 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..data import EMDataset, LabeledPair
from ..text import jaccard


@dataclass
class DifficultyLevel:
    level: int  # 1 = easiest ... 5 = hardest
    pairs: List[LabeledPair]
    positive_jaccard_range: Tuple[float, float]
    negative_jaccard_range: Tuple[float, float]


def pair_jaccard(dataset: EMDataset, pair: LabeledPair) -> float:
    """Token-set Jaccard similarity of the two records ``pair`` names."""
    return jaccard(
        dataset.table_a[pair.left].text(), dataset.table_b[pair.right].text()
    )


def split_by_difficulty(
    dataset: EMDataset, num_levels: int = 5, split: str = "test"
) -> List[DifficultyLevel]:
    """Partition a split into difficulty levels.

    Positives are sorted ascending by Jaccard (hardest = least similar),
    negatives descending (hardest = most similar); level k takes the k-th
    slice of each, so levels share the split's positive ratio.
    """
    pairs = list(getattr(dataset.pairs, split))
    positives = sorted(
        (p for p in pairs if p.label == 1), key=lambda p: pair_jaccard(dataset, p)
    )
    negatives = sorted(
        (p for p in pairs if p.label == 0),
        key=lambda p: -pair_jaccard(dataset, p),
    )
    levels = []
    for level in range(num_levels):
        pos_slice = positives[
            level * len(positives) // num_levels : (level + 1)
            * len(positives)
            // num_levels
        ]
        neg_slice = negatives[
            level * len(negatives) // num_levels : (level + 1)
            * len(negatives)
            // num_levels
        ]
        pos_j = [pair_jaccard(dataset, p) for p in pos_slice] or [0.0]
        neg_j = [pair_jaccard(dataset, p) for p in neg_slice] or [0.0]
        levels.append(
            DifficultyLevel(
                level=num_levels - level,  # first slice = hardest = level 5
                pairs=pos_slice + neg_slice,
                positive_jaccard_range=(min(pos_j), max(pos_j)),
                negative_jaccard_range=(min(neg_j), max(neg_j)),
            )
        )
    return levels
