"""Data cleaning: candidate tools, EC serialization and repair scoring,
Raha/Baran baselines.  The Sudowoodo corrector itself is the ``clean``
task of :mod:`repro.api`."""

from .baselines import (
    BaranCorrector,
    RahaDetector,
    run_perfect_ed_baran,
    run_raha_baran,
)
from .candidates import (
    CandidateGenerator,
    CandidateStats,
    DependencyTool,
    FormatTool,
    TypoTool,
    ValueFrequencyTool,
)
from .cleaner import (
    CleaningReport,
    cleaning_corpus,
    score_repairs,
    serialize_cell,
)

__all__ = [
    "BaranCorrector",
    "CandidateGenerator",
    "CandidateStats",
    "CleaningReport",
    "DependencyTool",
    "FormatTool",
    "RahaDetector",
    "TypoTool",
    "ValueFrequencyTool",
    "cleaning_corpus",
    "run_perfect_ed_baran",
    "run_raha_baran",
    "score_repairs",
    "serialize_cell",
]
