"""Word-level tokenizer with the paper's special tokens.

Sudowoodo serializes data items with ``[COL]`` / ``[VAL]`` markers (Ditto's
scheme) and encodes pairs as ``[CLS] x [SEP] y [SEP]``.  The original system
inherits RoBERTa's BPE vocabulary; with no pre-trained assets available we
use a corpus-fitted word vocabulary, which preserves every downstream
mechanism (serialization, special tokens, padding, truncation, segments).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

PAD, UNK, CLS, SEP, COL, VAL, MASK = (
    "[PAD]",
    "[UNK]",
    "[CLS]",
    "[SEP]",
    "[COL]",
    "[VAL]",
    "[MASK]",
)
SPECIAL_TOKENS = [PAD, UNK, CLS, SEP, COL, VAL, MASK]

_TOKEN_PATTERN = re.compile(r"\[(?:PAD|UNK|CLS|SEP|COL|VAL|MASK)\]|[a-z0-9]+(?:\.[0-9]+)?|[^\sa-z0-9]")


def word_tokenize(text: str) -> List[str]:
    """Lowercase word tokenization that keeps special tokens intact.

    Numbers with decimal points stay single tokens ("36.11"), punctuation
    becomes its own token, and ``[COL]``-style markers are preserved —
    including markers *not* surrounded by whitespace: each one is
    space-padded before splitting, so ``"[COL]name[VAL]3"`` yields
    ``["[COL]", "name", "[VAL]", "3"]`` instead of shredding the marker
    into ``[``, ``col``, ``]`` garbage tokens.
    """
    normalized = re.sub(
        r"\[(?:PAD|UNK|CLS|SEP|COL|VAL|MASK)\]", lambda m: f" {m.group(0)} ", text
    )
    pieces: List[str] = []
    for raw in normalized.split():
        if raw in SPECIAL_TOKENS:
            pieces.append(raw)
            continue
        pieces.extend(_TOKEN_PATTERN.findall(raw.lower()))
    return pieces


@dataclass
class Encoding:
    """The result of encoding one sequence (or pair) for the model."""

    token_ids: np.ndarray
    attention_mask: np.ndarray
    segment_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.attention_mask.sum())

    @staticmethod
    def stack(encodings: Sequence["Encoding"]) -> "Encoding":
        """Stack per-item rows into one batch cut to its longest row.

        Rows come padded to their ``max_len``; the batch is as wide as its
        longest member (never below ``[CLS] [SEP]``), so every dropped
        column is ``[PAD]`` with mask 0 in every row.  The one place a
        batch gets its length — the model reads T off the arrays.  Masked
        positions contribute exact zeros, so a row's embedding is the same
        function at any width: across batches it agrees to 1e-6 (float32
        autograd) / 1e-12 (float64), BLAS reduction shapes being all that
        differs (``docs/training.md`` has the full table).
        """
        ids, mask, segments = (
            np.stack([getattr(e, name) for e in encodings])
            for name in ("token_ids", "attention_mask", "segment_ids")
        )
        width = max(2, int(mask.sum(axis=1).max()))
        if width < mask.shape[1]:  # copies, so the wide buffers are not pinned
            ids, mask, segments = (
                rows[:, :width].copy() for rows in (ids, mask, segments)
            )
        return Encoding(ids, mask, segments)


class Tokenizer:
    """Corpus-fitted word vocabulary with special tokens and padding.

    >>> tok = Tokenizer.fit(["instant immersion spanish"], vocab_size=50)
    >>> enc = tok.encode("instant spanish", max_len=6)
    >>> tok.decode(enc.token_ids)
    '[CLS] instant spanish [SEP]'
    """

    def __init__(self, vocab: Dict[str, int]) -> None:
        for i, token in enumerate(SPECIAL_TOKENS):
            if vocab.get(token) != i:
                raise ValueError(
                    "vocabulary must start with the special tokens in order"
                )
        self.vocab = vocab
        self.inverse: Dict[int, str] = {i: t for t, i in vocab.items()}
        self.pad_id = vocab[PAD]
        self.unk_id = vocab[UNK]
        self.cls_id = vocab[CLS]
        self.sep_id = vocab[SEP]
        self.col_id = vocab[COL]
        self.val_id = vocab[VAL]
        self.mask_id = vocab[MASK]

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        corpus: Iterable[str],
        vocab_size: int = 2000,
        min_count: int = 1,
    ) -> "Tokenizer":
        """Build a vocabulary from the most frequent corpus tokens."""
        counter: Counter = Counter()
        for text in corpus:
            counter.update(
                t for t in word_tokenize(text) if t not in SPECIAL_TOKENS
            )
        vocab: Dict[str, int] = {t: i for i, t in enumerate(SPECIAL_TOKENS)}
        budget = vocab_size - len(SPECIAL_TOKENS)
        for token, count in counter.most_common():
            if budget <= 0:
                break
            if count < min_count:
                break
            vocab[token] = len(vocab)
            budget -= 1
        return cls(vocab)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    # ------------------------------------------------------------------
    def tokens_to_ids(self, tokens: Sequence[str]) -> List[int]:
        return [self.vocab.get(t, self.unk_id) for t in tokens]

    def encode(self, text: str, max_len: int = 64) -> Encoding:
        """Encode a single serialized item: ``[CLS] tokens... [SEP]`` padded."""
        tokens = word_tokenize(text)[: max_len - 2]
        ids = [self.cls_id] + self.tokens_to_ids(tokens) + [self.sep_id]
        return self._pad(ids, [0] * len(ids), max_len)

    def encode_pair(self, left: str, right: str, max_len: int = 64) -> Encoding:
        """Encode ``[CLS] left [SEP] right [SEP]`` with segment ids 0/1.

        Both sides are truncated proportionally so each retains content.
        """
        left_tokens = word_tokenize(left)
        right_tokens = word_tokenize(right)
        budget = max_len - 3
        half = budget // 2
        if len(left_tokens) + len(right_tokens) > budget:
            if len(left_tokens) <= half:
                right_tokens = right_tokens[: budget - len(left_tokens)]
            elif len(right_tokens) <= budget - half:
                left_tokens = left_tokens[: budget - len(right_tokens)]
            else:
                left_tokens = left_tokens[:half]
                right_tokens = right_tokens[: budget - half]
        ids = (
            [self.cls_id]
            + self.tokens_to_ids(left_tokens)
            + [self.sep_id]
            + self.tokens_to_ids(right_tokens)
            + [self.sep_id]
        )
        segments = [0] * (len(left_tokens) + 2) + [1] * (len(right_tokens) + 1)
        return self._pad(ids, segments, max_len)

    def encode_batch(self, texts: Sequence[str], max_len: int = 64) -> Encoding:
        """Encode a batch of single items, cut to its longest row."""
        return Encoding.stack([self.encode(t, max_len=max_len) for t in texts])

    def encode_pair_batch(
        self, pairs: Sequence[Tuple[str, str]], max_len: int = 64
    ) -> Encoding:
        return Encoding.stack(
            [self.encode_pair(a, b, max_len=max_len) for a, b in pairs]
        )

    def decode(self, token_ids: Sequence[int], skip_pad: bool = True) -> str:
        tokens = []
        for token_id in np.asarray(token_ids).reshape(-1):
            token = self.inverse.get(int(token_id), UNK)
            if skip_pad and token == PAD:
                continue
            tokens.append(token)
        return " ".join(tokens)

    # ------------------------------------------------------------------
    def _pad(self, ids: List[int], segments: List[int], max_len: int) -> Encoding:
        ids = ids[:max_len]
        segments = segments[:max_len]
        attention = [1] * len(ids)
        pad_count = max_len - len(ids)
        return Encoding(
            token_ids=np.array(ids + [self.pad_id] * pad_count, dtype=np.int64),
            attention_mask=np.array(attention + [0] * pad_count, dtype=np.int64),
            segment_ids=np.array(segments + [0] * pad_count, dtype=np.int64),
        )
