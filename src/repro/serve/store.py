"""Fingerprint-keyed embedding cache over a Sudowoodo encoder.

The store turns the encoder's per-call ``embed_items`` into a service-style
primitive: every requested text is fingerprinted, previously seen texts are
served from the cache, and only the misses are batch-encoded (in
configurable chunks).  Cached vectors are the *raw* pooled outputs —
normalization and corpus centering are cheap per-request transforms, so
they stay out of the cache and one stored vector serves every consumer.

For streaming consumers the store also hands out **stable record ids**:
the first time a fingerprint is seen it gets the next integer id, and
that assignment survives LRU eviction, re-encoding, and (via
``save``/``load``) process restarts.  :meth:`upsert_batch` is the
delta-encoding entry point — it returns ``(ids, vectors)`` while
encoding only the fingerprints the store has never seen — and
:meth:`evict` retires records whose ids must not be reused.

>>> store = EmbeddingStore(encoder, batch_size=64)
>>> vectors = store.embed_batch(corpus)          # encodes everything once
>>> ids, vectors = store.upsert_batch(new_rows)  # encodes only the delta
>>> store.save("vectors.npz")                    # persist across processes
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.encoder import SudowoodoEncoder
from ..core.persistence import load_vector_cache, save_vector_cache
from ..text.similarity import normalize_rows
from ..utils import text_fingerprint

PathLike = Union[str, Path]


class EmbeddingStore:
    """Batched, cached embedding lookups for one encoder.

    Parameters
    ----------
    encoder:
        The pre-trained (or at least constructed) embedding model.  The
        cache is only valid for this encoder; persistence records an
        encoder fingerprint so a stale cache cannot be silently reloaded
        into a different model.
    batch_size:
        Chunk size for encoding cache misses.
    capacity:
        Optional LRU bound on the number of cached vectors (``None`` keeps
        everything — the right default for corpus-at-a-time pipelines).
    dtype:
        In-RAM precision of cached vectors: ``"float64"`` (the default,
        byte-identical to the seed behaviour), ``"float32"`` (halves
        cache RSS — the serving default via
        ``SudowoodoConfig.store_dtype``), or ``"float16"``.

    A vector is cached as first encoded, next to whichever misses shared
    its chunk (``Encoding.stack``: equal to 1e-6, not byte for byte).
    """

    #: Cache precisions the ``dtype`` knob accepts.
    DTYPES = ("float64", "float32", "float16")

    def __init__(
        self,
        encoder: SudowoodoEncoder,
        batch_size: int = 64,
        capacity: Optional[int] = None,
        dtype: str = "float64",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        if dtype not in self.DTYPES:
            raise ValueError(
                f"unknown store dtype {dtype!r}; "
                f"valid options: {', '.join(self.DTYPES)}"
            )
        self.encoder = encoder
        self.batch_size = batch_size
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        # One reentrant mutex per store, acquired by every state-touching
        # public method (even cache hits mutate: LRU move-to-end, hit
        # counters).  Reentrant so a concurrent consumer — e.g. a
        # MatchService, which uses this same lock to keep its
        # index metadata consistent with the store — can hold it across
        # a compound operation; crucially, services *sharing* a store
        # thereby share one lock instead of racing through private ones.
        self.lock = threading.RLock()
        self._cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        # Stable record ids: assigned once per fingerprint, never reused.
        # The assignment outlives LRU eviction of the *vector* (a record
        # that falls out of the cache and returns keeps its id), while
        # evict() retires both the vector and the id.
        self._key_ids: Dict[str, int] = {}
        self._id_keys: Dict[int, str] = {}
        self._next_id = 0
        self.hits = 0
        self.misses = 0
        # Optional MetricsRegistry mirror of the hit/miss counters (set
        # via bind_metrics); None keeps the hot path metric-free.
        self._metrics = None

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(text: str) -> str:
        """Stable cache key for a serialized record (shared scheme —
        see :func:`repro.utils.text_fingerprint`)."""
        return text_fingerprint(text)

    def encoder_fingerprint(self) -> str:
        """Identity of the encoder the cached vectors belong to.

        Hashes the config, the tokenizer vocabulary, and the model
        weights, so a cache saved before in-place fine-tuning (which
        changes weights but neither config nor vocab) is rejected by a
        strict :meth:`load` into the updated model.  Only computed on
        save/load, where one pass over the parameters is cheap.
        """
        digest = hashlib.sha1()
        digest.update(repr(sorted(self.encoder.config.__dict__.items())).encode())
        digest.update(repr(sorted(self.encoder.tokenizer.vocab.items())).encode())
        for name, value in sorted(self.encoder.state_dict().items()):
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(value).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Dimensionality of stored vectors."""
        return self.encoder.config.dim

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, text: str) -> bool:
        return self.fingerprint(text) in self._cache

    def stats(self) -> Dict[str, float]:
        """Cache counters: hits, misses, size, and hit rate."""
        with self.lock:
            lookups = self.hits + self.misses
            return {
                "hits": float(self.hits),
                "misses": float(self.misses),
                "size": float(len(self._cache)),
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def bind_metrics(self, metrics) -> None:
        """Stream cache hits/misses into ``metrics`` (a
        :class:`~repro.serve.metrics.MetricsRegistry`) as the
        ``store.hits`` / ``store.misses`` counters.

        Rebinding replaces the previous registry; the store's own
        :meth:`stats` counters are unaffected either way.  Counter
        increments happen after each embed batch resolves (one
        delta-sized increment per call, not one per text).
        """
        with self.lock:
            self._metrics = metrics

    def clear(self) -> None:
        """Drop every cached vector (counters and id assignments are
        kept — ids identify *records*, not cache entries)."""
        with self.lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    # Stable record ids
    # ------------------------------------------------------------------
    def ids_for(self, texts: Sequence[str], assign: bool = True) -> np.ndarray:
        """Stable integer ids for ``texts`` (one per request position).

        With ``assign`` (default) unseen fingerprints get fresh ids;
        otherwise an unseen text raises ``KeyError``.
        """
        with self.lock:
            ids = np.empty(len(texts), dtype=np.int64)
            for position, text in enumerate(texts):
                key = self.fingerprint(text)
                record_id = self._key_ids.get(key)
                if record_id is None:
                    if not assign:
                        raise KeyError(
                            f"text has no assigned record id: {text!r}"
                        )
                    record_id = self._assign_id(key)
                ids[position] = record_id
            return ids

    def has_id(self, record_id: int) -> bool:
        """Whether ``record_id`` is currently assigned to some record."""
        with self.lock:
            return int(record_id) in self._id_keys

    def _assign_id(self, key: str) -> int:
        record_id = self._next_id
        self._next_id += 1
        self._key_ids[key] = record_id
        self._id_keys[record_id] = key
        return record_id

    # ------------------------------------------------------------------
    # Streaming upserts / eviction
    # ------------------------------------------------------------------
    def upsert_batch(
        self,
        texts: Sequence[str],
        normalize: bool = False,
        chunk_size: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Delta-encode ``texts``; returns ``(ids, vectors)``.

        Only fingerprints the store has never cached are encoded (the
        same miss accounting as :meth:`embed_batch`); every text gets a
        stable id, newly seen ones a fresh assignment.  This is the
        single call streaming consumers need to feed an incremental ANN
        index: ids key the index, vectors are the delta-friendly payload.
        """
        with self.lock:  # reentrant: one atomic id-assign + encode step
            ids = self.ids_for(texts, assign=True)
            vectors = self.embed_batch(
                texts, normalize=normalize, chunk_size=chunk_size
            )
            return ids, vectors

    def evict(self, texts: Sequence[str]) -> np.ndarray:
        """Retire records: drop their vectors *and* id assignments.

        Returns the retired ids.  Unlike LRU capacity eviction (which
        only drops vectors), an evicted record that later reappears is a
        *new* record and receives a fresh id — the contract incremental
        indexes rely on to never resurrect deleted entries.  Unknown
        texts raise ``KeyError``.
        """
        with self.lock:
            return self._evict_locked(texts)

    def _evict_locked(self, texts: Sequence[str]) -> np.ndarray:
        retired = np.empty(len(texts), dtype=np.int64)
        keys = []
        for position, text in enumerate(texts):
            key = self.fingerprint(text)
            record_id = self._key_ids.get(key)
            if record_id is None:
                raise KeyError(f"cannot evict unknown text: {text!r}")
            keys.append(key)
            retired[position] = record_id
        for key, record_id in zip(keys, retired.tolist()):
            self._cache.pop(key, None)
            self._key_ids.pop(key, None)
            self._id_keys.pop(record_id, None)
        return retired

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def embed_batch(
        self,
        texts: Sequence[str],
        normalize: bool = False,
        chunk_size: Optional[int] = None,
        cache: bool = True,
    ) -> np.ndarray:
        """Return a ``(len(texts), dim)`` matrix, encoding only cache misses.

        A text already in the cache counts as a hit; each *distinct* new
        text counts as one miss even if it appears several times in the
        request.  Rows come back in request order.  With ``normalize``
        the returned rows are L2-normalized copies; the cache always holds
        raw vectors.  ``cache=False`` still serves (and refreshes) hits
        but does *not* insert the misses, here or in the encoder's token
        cache — the right mode for transient query traffic that must not
        evict or outgrow the corpus caches.
        """
        with self.lock:
            return self._embed_batch_locked(texts, normalize, chunk_size, cache)

    def _embed_batch_locked(self, texts, normalize, chunk_size, cache):
        hits_before, misses_before = self.hits, self.misses
        try:
            return self._resolve_batch_locked(texts, normalize, chunk_size, cache)
        finally:
            if self._metrics is not None:
                hit_delta = self.hits - hits_before
                miss_delta = self.misses - misses_before
                if hit_delta:
                    self._metrics.counter("store.hits").increment(hit_delta)
                if miss_delta:
                    self._metrics.counter("store.misses").increment(miss_delta)

    def _resolve_batch_locked(self, texts, normalize, chunk_size, cache):
        keys = [self.fingerprint(text) for text in texts]
        resolved: Dict[str, np.ndarray] = {}
        missing: "OrderedDict[str, str]" = OrderedDict()
        for key, text in zip(keys, texts):
            if key in resolved:
                self.hits += 1
            elif key in self._cache:
                self.hits += 1
                resolved[key] = self._lookup(key)
            elif key not in missing:
                missing[key] = text
                self.misses += 1
            else:
                self.hits += 1
        if missing:
            encode_start = time.perf_counter()
            encoded = self.encoder.embed_items(
                list(missing.values()),
                batch_size=chunk_size or self.batch_size,
                normalize=False,
                use_token_cache=cache,
            )
            if self._metrics is not None:
                # Encode-stage observability: how long cache misses spend
                # in tokenize+forward, and how many texts paid it.  The
                # frontend's metrics_snapshot() surfaces the histogram as
                # store.encode_seconds (p50/p99 over encode batches).
                self._metrics.histogram("store.encode_seconds").record(
                    time.perf_counter() - encode_start
                )
                self._metrics.counter("store.encode_texts").increment(len(missing))
            for row, key in enumerate(missing):
                vector = np.asarray(encoded[row], dtype=self.dtype)
                resolved[key] = vector
                if cache:
                    self._insert(key, vector)
        if not keys:
            return np.zeros((0, self.dim), dtype=self.dtype)
        matrix = np.vstack([resolved[key] for key in keys])
        return normalize_rows(matrix) if normalize else matrix

    def _insert(self, key: str, vector: np.ndarray) -> None:
        self._cache[key] = np.asarray(vector, dtype=self.dtype)
        self._cache.move_to_end(key)
        if self.capacity is not None:
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)

    def _lookup(self, key: str) -> np.ndarray:
        vector = self._cache[key]
        self._cache.move_to_end(key)  # LRU freshness
        return vector

    # ------------------------------------------------------------------
    # Persistence (via core.persistence)
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Persist cached vectors (plus stable-id state) to an ``.npz``
        vector-cache file.

        Rows carry their record id when one was assigned (``-1``
        otherwise).  The *complete* id assignment — including records
        whose vectors fell out of the LRU cache, which therefore have no
        row — rides along as ``id_assignments``, and ``next_id`` lets a
        reloading store continue the sequence instead of reusing retired
        ids.
        """
        with self.lock:
            keys = list(self._cache)
            vectors = (
                np.vstack([self._cache[key] for key in keys])
                if keys
                else np.zeros((0, self.dim))
            )
            next_id = self._next_id
            assignments = dict(self._key_ids)
        return save_vector_cache(
            path,
            keys,
            vectors,
            metadata={
                "dim": self.dim,
                "encoder_fingerprint": self.encoder_fingerprint(),
                "next_id": next_id,
                "id_assignments": assignments,
            },
            ids=[assignments.get(key, -1) for key in keys],
        )

    def load(self, path: PathLike, strict: bool = True) -> int:
        """Merge a persisted vector cache into this store.

        Returns the number of vectors loaded.  With ``strict`` (default)
        the stored encoder fingerprint must match this store's encoder;
        pass ``strict=False`` to skip that check (the dimension check
        always applies).

        Stable-id state is restored only when this store has no
        assignments of its own yet (a fresh store resuming a persisted
        service); merging into a store that already handed out ids keeps
        the live assignment and ignores the file's.
        """
        keys, vectors, metadata = load_vector_cache(path)
        if int(metadata.get("dim", -1)) != self.dim:
            raise ValueError(
                f"vector cache dim {metadata.get('dim')} != encoder dim {self.dim}"
            )
        if strict and metadata.get("encoder_fingerprint") != self.encoder_fingerprint():
            raise ValueError(
                "vector cache was built by a different encoder; "
                "pass strict=False to load anyway"
            )
        with self.lock:
            adopt_ids = not self._key_ids and (
                "id_assignments" in metadata or "ids" in metadata
            )
            for row, key in enumerate(keys):
                self._insert(key, vectors[row])
            if adopt_ids:
                # Prefer the complete assignment map (covers records whose
                # vectors were LRU-evicted before the save); fall back to the
                # row-aligned ids of older caches.
                if "id_assignments" in metadata:
                    assignments = {
                        str(key): int(record_id)
                        for key, record_id in metadata["id_assignments"].items()
                    }
                else:
                    assignments = {
                        key: int(metadata["ids"][row])
                        for row, key in enumerate(keys)
                        if int(metadata["ids"][row]) >= 0
                    }
                for key, record_id in assignments.items():
                    self._key_ids[key] = record_id
                    self._id_keys[record_id] = key
            # Never rewind the sequence: ids this store already handed out
            # (even if since retired) must not be reissued after a load.
            self._next_id = max(
                self._next_id,
                int(metadata.get("next_id", 0)),
                max(self._id_keys, default=-1) + 1,
            )
        return len(keys)
