"""Data augmentation operators (Table I of the paper).

Each operator maps one *serialized* data item to a semantically equivalent
distorted view, used to create positive pairs for contrastive learning.
The attribute-level operators understand the ``[COL] name [VAL] value``
structure; token/span operators act on value tokens only, never on the
structure markers.

Operators for EM (Table I): token_del, token_repl, token_swap,
token_insert, span_del, span_shuffle, col_shuffle, col_del.
For column matching (Section V-B) the attribute operators don't apply and
``cell_shuffle`` (shuffle [VAL] cells) is added.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.generators.vocab import SYNONYMS

Operator = Callable[[str, np.random.Generator], str]

_COL_SPLIT = re.compile(r"(?=\[COL\])")
_VAL_SPLIT = re.compile(r"(?=\[VAL\])")


def _tokenize_structured(text: str) -> Tuple[List[str], List[int]]:
    """Split into tokens and mark which positions are mutable value tokens.

    Structure markers (``[COL]``, ``[VAL]``) and attribute names (the token
    immediately after ``[COL]``) are immutable.
    """
    tokens = text.split()
    mutable: List[int] = []
    previous = ""
    for index, token in enumerate(tokens):
        if token in ("[COL]", "[VAL]"):
            previous = token
            continue
        if previous == "[COL]":
            previous = ""
            continue  # attribute name
        previous = ""
        mutable.append(index)
    return tokens, mutable


def token_del(text: str, rng: np.random.Generator) -> str:
    """Sample and delete one value token."""
    tokens, mutable = _tokenize_structured(text)
    if not mutable:
        return text
    victim = int(rng.choice(mutable))
    return " ".join(t for i, t in enumerate(tokens) if i != victim)


def token_repl(text: str, rng: np.random.Generator) -> str:
    """Sample a value token and replace it with a synonym."""
    tokens, mutable = _tokenize_structured(text)
    candidates = [i for i in mutable if tokens[i] in SYNONYMS]
    if not candidates:
        return text
    target = int(rng.choice(candidates))
    options = SYNONYMS[tokens[target]]
    tokens[target] = str(options[int(rng.integers(len(options)))])
    return " ".join(tokens)


def token_swap(text: str, rng: np.random.Generator) -> str:
    """Sample two value tokens and swap them."""
    tokens, mutable = _tokenize_structured(text)
    if len(mutable) < 2:
        return text
    i, j = rng.choice(mutable, size=2, replace=False)
    tokens[int(i)], tokens[int(j)] = tokens[int(j)], tokens[int(i)]
    return " ".join(tokens)


def token_insert(text: str, rng: np.random.Generator) -> str:
    """Sample a value token and insert a synonym to its right."""
    tokens, mutable = _tokenize_structured(text)
    candidates = [i for i in mutable if tokens[i] in SYNONYMS]
    if not candidates:
        return text
    target = int(rng.choice(candidates))
    options = SYNONYMS[tokens[target]]
    synonym = str(options[int(rng.integers(len(options)))])
    return " ".join(tokens[: target + 1] + [synonym] + tokens[target + 1 :])


def span_del(text: str, rng: np.random.Generator) -> str:
    """Sample and delete a contiguous span of 2-4 value tokens."""
    tokens, mutable = _tokenize_structured(text)
    if len(mutable) < 3:
        return text
    span_len = int(rng.integers(2, min(4, len(mutable) - 1) + 1))
    start = int(rng.integers(len(mutable) - span_len + 1))
    victims = set(mutable[start : start + span_len])
    return " ".join(t for i, t in enumerate(tokens) if i not in victims)


def span_shuffle(text: str, rng: np.random.Generator) -> str:
    """Sample a span of value tokens and shuffle their order."""
    tokens, mutable = _tokenize_structured(text)
    if len(mutable) < 3:
        return text
    span_len = int(rng.integers(2, min(5, len(mutable)) + 1))
    start = int(rng.integers(len(mutable) - span_len + 1))
    positions = mutable[start : start + span_len]
    values = [tokens[i] for i in positions]
    order = rng.permutation(len(values))
    for position, new_index in zip(positions, order):
        tokens[position] = values[int(new_index)]
    return " ".join(tokens)


def _split_columns(text: str) -> List[str]:
    parts = [p.strip() for p in _COL_SPLIT.split(text) if p.strip()]
    return parts


def col_shuffle(text: str, rng: np.random.Generator) -> str:
    """Choose two attributes and swap their order."""
    columns = _split_columns(text)
    if len(columns) < 2:
        return text
    i, j = rng.choice(len(columns), size=2, replace=False)
    columns[int(i)], columns[int(j)] = columns[int(j)], columns[int(i)]
    return " ".join(columns)


def col_del(text: str, rng: np.random.Generator) -> str:
    """Choose an attribute and drop it entirely."""
    columns = _split_columns(text)
    if len(columns) < 2:
        return text
    victim = int(rng.integers(len(columns)))
    return " ".join(c for i, c in enumerate(columns) if i != victim)


def cell_shuffle(text: str, rng: np.random.Generator) -> str:
    """Shuffle the order of ``[VAL]`` cells (column-matching DA operator)."""
    cells = [p.strip() for p in _VAL_SPLIT.split(text) if p.strip()]
    if len(cells) < 2:
        return text
    order = rng.permutation(len(cells))
    return " ".join(cells[int(i)] for i in order)


def identity(text: str, rng: np.random.Generator) -> str:
    return text


def mixup_embed(text: str, rng: np.random.Generator) -> str:
    """Embedding-level mixup: identity at the text level.

    The actual distortion — interpolating token embeddings with another
    in-batch item's (see :mod:`repro.augment.mixup`) — happens at the
    embedding injection point during encoding, because it needs the whole
    batch.  Registering the text-level identity here lets the operator
    sit in :data:`EM_OPERATORS` and be selected as ``da_operator`` like
    any Table I operator.
    """
    return text


EM_OPERATORS: Dict[str, Operator] = {
    "token_del": token_del,
    "token_repl": token_repl,
    "token_swap": token_swap,
    "token_insert": token_insert,
    "span_del": span_del,
    "span_shuffle": span_shuffle,
    "col_shuffle": col_shuffle,
    "col_del": col_del,
    "mixup_embed": mixup_embed,
}

COLUMN_OPERATORS: Dict[str, Operator] = {
    "token_del": token_del,
    "token_swap": token_swap,
    "span_del": span_del,
    "span_shuffle": span_shuffle,
    "cell_shuffle": cell_shuffle,
}

ALL_OPERATORS: Dict[str, Operator] = {**EM_OPERATORS, "cell_shuffle": cell_shuffle,
                                      "identity": identity}


def get_operator(name: str) -> Operator:
    if name not in ALL_OPERATORS:
        known = ", ".join(sorted(ALL_OPERATORS))
        raise KeyError(f"unknown DA operator {name!r}; known: {known}")
    return ALL_OPERATORS[name]


def augment(
    text: str, rng: np.random.Generator, operator: str = "token_del"
) -> str:
    """Apply a single base DA operator (the paper applies one at a time)."""
    return get_operator(operator)(text, rng)


def augment_batch(
    texts: Sequence[str], rng: np.random.Generator, operator: str = "token_del"
) -> List[str]:
    op = get_operator(operator)
    return [op(t, rng) for t in texts]
