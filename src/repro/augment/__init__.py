"""Data augmentation: Table I operators, cutoff (Section IV-A), and
embedding-level mixup views (Contrastive Mixup)."""

from .cutoff import (
    CUTOFF_KINDS,
    make_cutoff_sampler,
    make_cutoff_transform,
    mask_transform,
)
from .mixup import MIXUP_ALPHA, mixup_transform, sample_mixup
from .operators import (
    ALL_OPERATORS,
    COLUMN_OPERATORS,
    EM_OPERATORS,
    augment,
    augment_batch,
    cell_shuffle,
    col_del,
    col_shuffle,
    get_operator,
    identity,
    mixup_embed,
    span_del,
    span_shuffle,
    token_del,
    token_insert,
    token_repl,
    token_swap,
)

__all__ = [
    "ALL_OPERATORS",
    "COLUMN_OPERATORS",
    "CUTOFF_KINDS",
    "EM_OPERATORS",
    "MIXUP_ALPHA",
    "augment",
    "augment_batch",
    "cell_shuffle",
    "col_del",
    "col_shuffle",
    "get_operator",
    "identity",
    "make_cutoff_sampler",
    "make_cutoff_transform",
    "mask_transform",
    "mixup_embed",
    "mixup_transform",
    "sample_mixup",
    "span_del",
    "span_shuffle",
    "token_del",
    "token_insert",
    "token_repl",
    "token_swap",
]
