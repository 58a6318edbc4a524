"""Sudowoodo core: config, encoder, losses, pre-training, blocking,
matching, and pseudo-labeling — the pieces the session tasks in
:mod:`repro.api` compose into workloads."""

from .blocker import Blocker, CandidateSet
from .config import SudowoodoConfig
from .encoder import SudowoodoEncoder, build_tokenizer
from .losses import barlow_twins_loss, combined_loss, nt_xent_loss
from .matcher import (
    FinetuneResult,
    PairwiseMatcher,
    TrainingExample,
    evaluate_f1,
    f1_from_predictions,
    finetune_matcher,
)
from .negative_sampling import ClusterBatcher
from .persistence import load_encoder, save_encoder
from .pretrain import PretrainResult, prepare_corpus, pretrain
from .pseudo_label import (
    PseudoLabelSet,
    estimate_positive_ratio,
    generate_pseudo_labels,
    hill_climb_threshold,
    similarity_of_pairs,
)

__all__ = [
    "Blocker",
    "CandidateSet",
    "ClusterBatcher",
    "FinetuneResult",
    "PairwiseMatcher",
    "PretrainResult",
    "PseudoLabelSet",
    "SudowoodoConfig",
    "SudowoodoEncoder",
    "TrainingExample",
    "barlow_twins_loss",
    "build_tokenizer",
    "combined_loss",
    "estimate_positive_ratio",
    "evaluate_f1",
    "f1_from_predictions",
    "finetune_matcher",
    "generate_pseudo_labels",
    "hill_climb_threshold",
    "load_encoder",
    "nt_xent_loss",
    "prepare_corpus",
    "pretrain",
    "save_encoder",
    "similarity_of_pairs",
]
