"""Batch-preparation helpers for the step loop.

* :class:`TokenCache` — tokenize each corpus item **once** and serve every
  later epoch from an id-cache keyed by the library-wide text fingerprint
  (:func:`repro.utils.text_fingerprint`).  Tokenization is deterministic,
  so cached batches are byte-identical to freshly encoded ones.
* :func:`permutation_batches` — the shuffled epoch order the MLM and
  fine-tuning programs draw.

The :class:`~repro.train.Trainer` calls a program's ``prepare`` inline,
in order, on the training thread; nothing here runs in the background.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Sequence

import numpy as np

from ..utils import text_fingerprint


class TokenCache:
    """Fingerprint-keyed cache of per-item tokenizer encodings.

    Wraps any tokenizer whose ``encode(text, max_len)`` returns an
    ``Encoding`` (any row type with its ``stack`` staticmethod will do);
    items are cached padded to ``max_len``, so rows are batch-independent,
    and :meth:`encode_batch` cuts each batch to its longest row.
    Keys include ``max_len`` so one cache serves single-item and pair-length
    encodings side by side.

    The cache keeps every entry until :meth:`discard` drops it: a fixed
    training corpus needs nothing else, and the serving store discards a
    record's entry when it evicts the record, so the serving cache stays
    bounded by the live index.

    Lookups are thread-safe (one short-held mutex per cache): besides the
    serial training loop, the cache also backs
    :meth:`repro.core.encoder.SudowoodoEncoder.embed_items` on the
    serving side, where it can be shared across encoders (blue/green
    reindex adopts the live encoder's warm cache) and hit from several
    service threads at once.
    """

    def __init__(self, tokenizer: Any) -> None:
        self.tokenizer = tokenizer
        self._cache: Dict[tuple, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def __getstate__(self) -> dict:
        # Locks neither copy nor pickle; a (deep)copied cache gets its own.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def encode(self, text: str, max_len: int) -> Any:
        """The cached per-item ``Encoding`` for ``text`` at ``max_len``."""
        key = (text_fingerprint(text), max_len)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        # Tokenize outside the lock: encodings are deterministic, so two
        # threads racing on the same key insert identical rows.
        encoding = self.tokenizer.encode(text, max_len=max_len)
        with self._lock:
            self._cache[key] = encoding
        return encoding

    def encode_batch(self, texts: Sequence[str], max_len: int) -> Any:
        """Stacked batch ``Encoding`` assembled from cached per-item rows.

        Byte-identical to ``tokenizer.encode_batch(texts, max_len)`` —
        tokenization is deterministic and both stack through
        ``Encoding.stack`` — but each distinct item pays the tokenizer
        cost only once per cache lifetime.
        """
        encodings = [self.encode(t, max_len) for t in texts]
        return type(encodings[0]).stack(encodings)

    def warm(self, texts: Iterable[str], max_len: int) -> None:
        """Pre-tokenize ``texts`` (the cold pass, amortized up front)."""
        for text in texts:
            self.encode(text, max_len)

    def discard(self, fingerprints: Iterable[str], max_len: int) -> None:
        """Drop the ``max_len`` entries of ``fingerprints`` (absent ones
        are skipped); a later :meth:`encode` of one re-tokenizes it."""
        with self._lock:
            for fingerprint in fingerprints:
                self._cache.pop((fingerprint, max_len), None)


def permutation_batches(
    rng: np.random.Generator, num_items: int, batch_size: int
) -> Sequence[np.ndarray]:
    """A shuffled epoch order chunked into batch-index arrays.

    The common epoch-batching of the MLM and fine-tuning programs: one
    permutation draw per epoch, consecutive slices of ``batch_size``
    (the final slice may be short).
    """
    order = rng.permutation(num_items)
    return [
        order[start : start + batch_size]
        for start in range(0, num_items, batch_size)
    ]
