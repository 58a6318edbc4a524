"""Error-correction building blocks (Section V-A): cell serialization,
the unlabeled EC corpus, and repair scoring.

The corrector itself is the ``clean`` task of :mod:`repro.api`
(``session.task("clean")``): label ~20 uniformly sampled rows, fine-tune
the pairwise matcher on (cell, candidate) pairs, then for every cell take
the candidate maximizing the match probability.  This module holds what
that task and the Raha/Baran baselines share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.generators.cleaning import CleaningDataset
from ..data.records import serialize_row_contextual
from .candidates import CandidateGenerator

#: Attributes serialized beside the target cell (its FD determinants
#: first, then leading attributes).
CONTEXT_WINDOW = 4


def context_schema(dataset: CleaningDataset, attribute: str) -> List[str]:
    """The serialized attribute window for ``attribute``.

    The paper's contextual scheme serializes the whole row; at CPU scale
    we trim to the target attribute plus its FD determinants and a few
    leading attributes (the same role the LM's 512-token truncation plays
    at full scale).
    """
    window: List[str] = []
    for determinant, dependents in dataset.dependencies.items():
        if attribute in dependents and determinant not in window:
            window.append(determinant)
    if attribute not in window:
        window.append(attribute)
    for other in dataset.schema:
        if len(window) >= CONTEXT_WINDOW + 1:
            break
        if other not in window:
            window.append(other)
    # Keep schema order for determinism.
    return [a for a in dataset.schema if a in window]


def serialize_cell(
    dataset: CleaningDataset, row: int, attribute: str, value: str
) -> str:
    """Serialize one (cell, candidate value) in the paper's contextual EC
    scheme: the row's attribute window with ``value`` in the cell."""
    return serialize_row_contextual(
        dataset.dirty[row], context_schema(dataset, attribute), attribute, value
    )


def cleaning_corpus(
    dataset: CleaningDataset, generator: Optional[CandidateGenerator] = None
) -> List[str]:
    """Unlabeled EC pre-training corpus: every serialized cell plus its
    top candidate corrections — what a :class:`repro.api.SudowoodoSession`
    should pre-train on before fitting the ``clean`` task."""
    generator = generator or CandidateGenerator().fit(dataset)
    corpus: List[str] = []
    for row in range(len(dataset.dirty)):
        for attribute in dataset.schema:
            value = dataset.dirty[row].get(attribute)
            corpus.append(serialize_cell(dataset, row, attribute, value))
            for candidate in generator.candidates(row, attribute)[:3]:
                if candidate != value:
                    corpus.append(serialize_cell(dataset, row, attribute, candidate))
    return corpus


@dataclass
class CleaningReport:
    dataset: str
    precision: float
    recall: float
    f1: float
    repaired: int
    timings: Dict[str, float] = field(default_factory=dict)


def score_repairs(
    dataset: CleaningDataset,
    repairs: Dict[Tuple[int, str], str],
    exclude_rows: Optional[Sequence[int]] = None,
) -> CleaningReport:
    """Correction P/R/F1 against ground truth (Baran's protocol):
    precision over repaired cells, recall over erroneous cells, both
    outside ``exclude_rows``."""
    excluded = set(exclude_rows or ())
    correct_repairs = 0
    counted_repairs = 0
    for (row, attribute), candidate in repairs.items():
        if row in excluded:
            continue
        counted_repairs += 1
        if candidate == dataset.ground_truth(row, attribute) and dataset.is_error(
            row, attribute
        ):
            correct_repairs += 1
    errors = [
        (row, attribute)
        for row, attribute in dataset.error_cells()
        if row not in excluded
    ]
    precision = correct_repairs / counted_repairs if counted_repairs else 0.0
    recall = correct_repairs / len(errors) if errors else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return CleaningReport(
        dataset=dataset.name,
        precision=precision,
        recall=recall,
        f1=f1,
        repaired=counted_repairs,
    )
