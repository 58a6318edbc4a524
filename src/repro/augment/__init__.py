"""Data augmentation: Table I operators and cutoff (Section IV-A)."""

from .cutoff import CUTOFF_KINDS, make_cutoff_sampler, mask_transform
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
    "augment",
    "augment_batch",
    "cell_shuffle",
    "col_del",
    "col_shuffle",
    "get_operator",
    "make_cutoff_sampler",
    "mask_transform",
    "span_del",
    "span_shuffle",
    "token_del",
    "token_insert",
    "token_repl",
    "token_swap",
]
