"""Data-cleaning baselines: Raha-style error detection and Baran-style
error correction (Mahdavi & Abedjan, PVLDB 2019/2020).

* :class:`RahaDetector` — an ensemble of configuration-free detectors
  (missing values, rare values, format outliers, FD violations) whose
  votes flag error cells.
* :class:`BaranCorrector` — ranks candidate corrections by an ensemble of
  tool-level evidence scores, with per-tool weights fit on ~20 labeled
  rows (the active-learning budget of the original system, here fit with
  logistic regression over tool scores).

Combinations evaluated in Table VIII: Raha+Baran and "Perfect ED"+Baran
(ground-truth error mask).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.generators.cleaning import CleaningDataset
from ..ml import LogisticRegression
from ..text import levenshtein
from ..utils import RngStream
from .candidates import CandidateGenerator
from .cleaner import CleaningReport, score_repairs


def _format_signature(value: str) -> str:
    """Character-class signature used for format-outlier detection."""
    signature = []
    for char in value:
        if char.isdigit():
            code = "d"
        elif char.isalpha():
            code = "a"
        else:
            code = char
        if not signature or signature[-1] != code:
            signature.append(code)
    return "".join(signature)


class RahaDetector:
    """Ensemble error detection; a cell is an error if >= ``votes`` of the
    four detectors flag it."""

    def __init__(self, votes: int = 1, rare_fraction: float = 0.02) -> None:
        self.votes = votes
        self.rare_fraction = rare_fraction

    def detect(self, dataset: CleaningDataset) -> Set[Tuple[int, str]]:
        flagged: Counter = Counter()
        n = len(dataset.dirty)
        for attribute in dataset.schema:
            column = dataset.dirty.column_values(attribute)
            counts = Counter(column)
            signatures = Counter(_format_signature(v) for v in column)
            dominant_signature = signatures.most_common(1)[0][0]
            fd_expected = self._fd_expectations(dataset, attribute)
            for row, value in enumerate(column):
                cell = (row, attribute)
                if not value or value == "n/a":
                    flagged[cell] += 1
                if counts[value] <= max(1, int(self.rare_fraction * n)) and len(
                    counts
                ) < n // 2:
                    flagged[cell] += 1
                if (
                    _format_signature(value) != dominant_signature
                    and signatures[_format_signature(value)] <= max(1, n // 20)
                ):
                    flagged[cell] += 1
                expected = fd_expected.get(row)
                if expected is not None and expected != value:
                    flagged[cell] += 1
        return {cell for cell, votes in flagged.items() if votes >= self.votes}

    def _fd_expectations(
        self, dataset: CleaningDataset, attribute: str
    ) -> Dict[int, str]:
        expectations: Dict[int, str] = {}
        for determinant, dependents in dataset.dependencies.items():
            if attribute not in dependents:
                continue
            votes: Dict[str, Counter] = {}
            for record in dataset.dirty:
                key = record.get(determinant)
                value = record.get(attribute)
                if key and value:
                    votes.setdefault(key, Counter())[value] += 1
            mapping = {
                key: counter.most_common(1)[0][0] for key, counter in votes.items()
            }
            for row, record in enumerate(dataset.dirty):
                expected = mapping.get(record.get(determinant))
                if expected is not None:
                    expectations[row] = expected
        return expectations

    def evaluate(self, dataset: CleaningDataset) -> Dict[str, float]:
        detected = self.detect(dataset)
        truth = set(dataset.error_cells())
        true_pos = len(detected & truth)
        precision = true_pos / len(detected) if detected else 0.0
        recall = true_pos / len(truth) if truth else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return {"precision": precision, "recall": recall, "f1": f1}


class BaranCorrector:
    """Ensemble corrector over the candidate tools' evidence scores."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._model: Optional[LogisticRegression] = None

    # ------------------------------------------------------------------
    def _tool_scores(
        self,
        dataset: CleaningDataset,
        generator: CandidateGenerator,
        row: int,
        attribute: str,
        candidate: str,
    ) -> List[float]:
        value = dataset.dirty[row].get(attribute)
        column = dataset.dirty.column_values(attribute)
        counts = Counter(column)
        frequency = counts.get(candidate, 0) / max(1, len(column))
        distance = levenshtein(value, candidate, cap=4) if value else 4
        proximity = 1.0 / (1.0 + distance)
        fd_agree = 0.0
        for determinant, dependents in dataset.dependencies.items():
            if attribute in dependents:
                implied = generator._dependency.candidates(row, attribute, "")
                if candidate in implied:
                    fd_agree = 1.0
        same_signature = float(
            _format_signature(candidate)
            == Counter(
                _format_signature(v) for v in column
            ).most_common(1)[0][0]
        )
        identity = float(candidate == value)
        return [frequency, proximity, fd_agree, same_signature, identity]

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: CleaningDataset,
        generator: CandidateGenerator,
        labeled_rows: int = 20,
    ) -> "BaranCorrector":
        self.dataset = dataset
        self.generator = generator
        rng = RngStream(self.seed).get("baran-rows")
        chosen = rng.choice(
            len(dataset.dirty), size=min(labeled_rows, len(dataset.dirty)),
            replace=False,
        )
        features: List[List[float]] = []
        labels: List[int] = []
        for row in sorted(int(r) for r in chosen):
            for attribute in dataset.schema:
                truth = dataset.ground_truth(row, attribute)
                for candidate in generator.candidates(row, attribute)[:8]:
                    features.append(
                        self._tool_scores(dataset, generator, row, attribute, candidate)
                    )
                    labels.append(int(candidate == truth))
        if len(set(labels)) < 2:
            self._model = None  # degenerate labels: fall back to heuristics
            return self
        self._model = LogisticRegression(iterations=200).fit(
            np.array(features), np.array(labels)
        )
        return self

    def _score(self, row: int, attribute: str, candidate: str) -> float:
        scores = self._tool_scores(
            self.dataset, self.generator, row, attribute, candidate
        )
        if self._model is None:
            return float(np.mean(scores))
        return float(self._model.predict_proba(np.array([scores]))[0, 1])

    # ------------------------------------------------------------------
    def correct(
        self, error_cells: Sequence[Tuple[int, str]]
    ) -> Dict[Tuple[int, str], str]:
        """Propose the best-scoring candidate for each flagged cell."""
        repairs: Dict[Tuple[int, str], str] = {}
        for row, attribute in error_cells:
            value = self.dataset.dirty[row].get(attribute)
            candidates = [
                c
                for c in self.generator.candidates(row, attribute)
                if c != value
            ]
            if not candidates:
                continue
            best = max(candidates, key=lambda c: self._score(row, attribute, c))
            repairs[(row, attribute)] = best
        return repairs

    def evaluate(
        self,
        error_cells: Sequence[Tuple[int, str]],
        name: str,
    ) -> CleaningReport:
        """Correction P/R/F1 given an error mask (Raha's or perfect)."""
        report = score_repairs(self.dataset, self.correct(error_cells))
        report.dataset = f"{self.dataset.name} ({name})"
        return report


def run_raha_baran(
    dataset: CleaningDataset,
    generator: Optional[CandidateGenerator] = None,
    labeled_rows: int = 20,
) -> CleaningReport:
    generator = generator or CandidateGenerator().fit(dataset)
    detector = RahaDetector()
    corrector = BaranCorrector().fit(dataset, generator, labeled_rows)
    return corrector.evaluate(sorted(detector.detect(dataset)), "Raha+Baran")


def run_perfect_ed_baran(
    dataset: CleaningDataset,
    generator: Optional[CandidateGenerator] = None,
    labeled_rows: int = 20,
) -> CleaningReport:
    generator = generator or CandidateGenerator().fit(dataset)
    corrector = BaranCorrector().fit(dataset, generator, labeled_rows)
    return corrector.evaluate(dataset.error_cells(), "PerfectED+Baran")
