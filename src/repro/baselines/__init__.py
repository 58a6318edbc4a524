"""Baselines the paper evaluates against: Ditto, Rotom, DeepMatcher,
ZeroER, Auto-FuzzyJoin, and DL-Block."""

from .autofuzzyjoin import run_autofuzzyjoin
from .deepmatcher import DeepMatcherModel, train_deepmatcher
from .ditto import BaselineReport, build_warm_encoder, manual_examples, train_ditto
from .dlblock import DLBlockBlocker
from .rotom import ROTOM_OPERATORS, augmented_copies, train_rotom
from .zeroer import pair_similarity_features, run_zeroer

__all__ = [
    "BaselineReport",
    "DLBlockBlocker",
    "DeepMatcherModel",
    "ROTOM_OPERATORS",
    "augmented_copies",
    "build_warm_encoder",
    "manual_examples",
    "pair_similarity_features",
    "run_autofuzzyjoin",
    "run_zeroer",
    "train_deepmatcher",
    "train_ditto",
    "train_rotom",
]
