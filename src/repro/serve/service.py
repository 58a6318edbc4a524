"""The live index over the embedding store and ANN backends.

``MatchService`` is the serving entry point shared by the EM, cleaning,
and column-matching workloads: callers hand it raw serialized texts and
get embeddings or live-index neighbours back, while the underlying
:class:`EmbeddingStore` guarantees each distinct text is encoded exactly
once per process.  :meth:`index_records` + :meth:`upsert_records` /
:meth:`delete_records` / :meth:`search_batch` form a *live* incremental
index for streaming traffic: upserts encode only unseen records and
patch the ANN structure in place, deletes never require a re-encode, and
results carry the store's stable record ids.

Each neighbouring job has one other owner: batch blocking is
:class:`~repro.core.blocker.Blocker` (``session.task("block")``),
matching is the fitted task's ``predict``, and coalescing concurrent
searches is :class:`~repro.serve.frontend.ServiceFrontend`, whose
broker hands each batch to :meth:`search_batch`.

The service is thread-safe at any ``config.num_shards`` (1 included):
the live index is always a lock-guarded
:class:`~repro.serve.sharding.ShardedBackend`, and cross-shard mutations
are atomic with respect to concurrent ``search_batch`` calls.

>>> service = MatchService(encoder, config)
>>> vectors = service.embed_batch(corpus)                 # warm the cache
>>> ids = service.index_records(corpus)                   # go streaming
>>> service.upsert_records(new_records)                   # delta-encode
>>> neighbor_ids, scores = service.search_batch(queries, k=10)
>>> ids, scores = ServiceFrontend(service).search(queries, k=10)  # coalesced
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import SudowoodoConfig
from ..core.encoder import SudowoodoEncoder
from ..text.similarity import normalize_rows
from .backends import ANNBackend, build_backend, updatable_backends
from .store import EmbeddingStore


class MatchService:
    """Thread-safe ``embed_batch`` plus a live, sharded streaming index.

    For the exact backend ``search_batch`` returns the same ids at any
    shard count; only the partitioning of the live index changes.

    Locking model (acquisition order prevents deadlock):

    1. ``_mutation_lock`` — serializes index mutations
       (``index_records`` / ``upsert_records`` / ``delete_records`` /
       ``rebuild_index``) against each other.
    2. ``_store_lock`` — guards the (not thread-safe)
       :class:`EmbeddingStore`, the encoder behind it, and index
       metadata; held for the embed step of searches and
       ``embed_batch``, and by mutations.
    3. per-shard :class:`~repro.serve.sharding.ReadWriteLock`\\ s — inside
       :class:`~repro.serve.sharding.ShardedBackend`; queries share read
       locks, mutations take write locks of every affected shard at once.

    Parameters
    ----------
    encoder:
        The shared representation model.
    config:
        Serving knobs (``serve_batch_size``, ``ann_backend``,
        ``store_dtype``, ``num_shards``);
        defaults to the encoder's own config.  To vary one per service,
        pass ``dataclasses.replace(config, ...)``.
    store:
        Pass an existing :class:`EmbeddingStore` to share its warm cache
        (e.g. ``session.store``, which the session's tasks already
        filled during blocking — what ``session.serve`` passes).
    """

    def __init__(
        self,
        encoder: SudowoodoEncoder,
        config: Optional[SudowoodoConfig] = None,
        store: Optional[EmbeddingStore] = None,
    ) -> None:
        self.encoder = encoder
        self.config = config if config is not None else encoder.config
        if self.config.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = self.config.num_shards
        if store is None:
            # NB: explicit None check — an *empty* store is falsy (it
            # defines __len__), and replacing a shared-but-cleared store
            # with a fresh one would silently break cache sharing.
            store = EmbeddingStore(
                encoder,
                batch_size=self.config.serve_batch_size,
                dtype=self.config.store_dtype,
            )
        self.store = store
        # Streaming state: a live mutable index over store record ids.
        self._live_backend: Optional[ANNBackend] = None
        self._live_texts: Dict[int, str] = {}
        self._index_mean: Optional[np.ndarray] = None
        self._mutation_lock = threading.RLock()
        # The store's own reentrant mutex, not a private one: services
        # sharing one store (e.g. two serve() calls on the same
        # session) must serialize on the same lock, and holding it
        # across embed + metadata keeps both consistent.
        self._store_lock = self.store.lock

    # ------------------------------------------------------------------
    def embed_batch(
        self, texts: Sequence[str], normalize: bool = True
    ) -> np.ndarray:
        """Embed ``texts`` through the shared store (cache-first)."""
        with self._store_lock:
            return self.store.embed_batch(texts, normalize=normalize)

    # ------------------------------------------------------------------
    # Streaming index: upsert / delete / search over stable record ids
    # ------------------------------------------------------------------
    @property
    def index_size(self) -> int:
        """Number of live records in the streaming index (0 when absent)."""
        return 0 if self._live_backend is None else len(self._live_backend)

    def record_text(self, record_id: int) -> str:
        """The serialized text indexed under ``record_id``."""
        try:
            return self._live_texts[int(record_id)]
        except KeyError:
            raise KeyError(f"record id {record_id} is not indexed") from None

    def index_records(
        self, texts: Sequence[str], center: bool = True
    ) -> np.ndarray:
        """(Re)build the live index over ``texts``; returns their ids.

        Embeddings come from the shared store (only unseen fingerprints
        are encoded).  With ``center`` the corpus mean is subtracted
        before normalization and *frozen*: later upserts and queries use
        the same mean, so scores stay comparable across updates.  Call
        this again (or :meth:`rebuild_index`) when drift accumulates.
        """
        # Validate the backend before touching any state: a failure here
        # must leave an existing live index (and its frozen mean) intact.
        # sharded=True even for num_shards == 1: a single-shard service
        # still needs the ReadWriteLock-guarded wrapper, or searches
        # would race mutations inside a raw backend.
        backend = build_backend(self.config, sharded=True)
        if not backend.supports_updates:
            raise ValueError(
                f"ann_backend {backend.name!r} does not support incremental "
                f"updates; choose one of {updatable_backends()} "
                "for streaming serving"
            )
        with self._mutation_lock, self._store_lock:
            ids, raw = self.store.upsert_batch(texts)
            if center and raw.shape[0]:
                self._index_mean = raw.mean(axis=0, keepdims=True)
            else:
                self._index_mean = np.zeros((1, self.store.dim))
            backend.build(np.zeros((0, self.store.dim)))
            unique_ids, first_rows = np.unique(ids, return_index=True)
            backend.add(
                unique_ids, normalize_rows(raw - self._index_mean)[first_rows]
            )
            self._live_backend = backend
            self._live_texts = {
                int(record_id): texts[row]
                for record_id, row in zip(unique_ids.tolist(), first_rows.tolist())
            }
            return ids

    def upsert_records(self, texts: Sequence[str]) -> np.ndarray:
        """Insert-or-refresh records in the live index; returns their ids.

        The delta path: only fingerprints the store has never seen are
        encoded, and the ANN backend is patched in place (no rebuild).
        Creates the index on first use.
        """
        with self._mutation_lock:
            if self._live_backend is None:
                return self.index_records(texts)
            with self._store_lock:
                ids, raw = self.store.upsert_batch(texts)
                vectors = normalize_rows(raw - self._index_mean)
                unique_ids, first_rows = np.unique(ids, return_index=True)
                # Texts first: any id a concurrent search can return must
                # already resolve through record_text().
                for record_id, row in zip(
                    unique_ids.tolist(), first_rows.tolist()
                ):
                    self._live_texts[record_id] = texts[row]
            self._live_backend.add(unique_ids, vectors[first_rows])
            return ids

    def delete_records(self, texts: Sequence[str]) -> np.ndarray:
        """Remove records from the live index; returns the retired ids.

        Retires the ids permanently (via ``EmbeddingStore.evict``): if
        the same text is upserted again later it is a *new* record with
        a fresh id.  A text that is not in the live index — never
        indexed, or already deleted — is a documented **no-op**: it is
        skipped (its store cache entry, if any, is left untouched, so
        deleting query traffic can never evict blocking corpora) and
        only the ids actually retired are returned, an empty array when
        none were.  Store eviction is therefore symmetric with index
        removal: exactly the records leaving the index leave the store.
        """
        with self._mutation_lock, self._store_lock:
            if self._live_backend is None:
                raise RuntimeError("no live index; call index_records() first")
            doomed_texts: list = []
            doomed_ids: list = []
            seen: set = set()
            for text in texts:
                try:
                    record_id = int(self.store.ids_for([text], assign=False)[0])
                except KeyError:
                    continue  # never assigned an id at all
                if record_id not in self._live_texts or record_id in seen:
                    continue  # cached-but-unindexed, already deleted, or duplicate
                seen.add(record_id)
                doomed_texts.append(text)
                doomed_ids.append(record_id)
            if not doomed_ids:
                return np.empty(0, dtype=np.int64)
            id_array = np.asarray(doomed_ids, dtype=np.int64)
            self._live_backend.remove(id_array)
            for record_id in doomed_ids:
                del self._live_texts[record_id]
            self.store.evict(doomed_texts)
            return id_array

    def search_batch(
        self, texts: Sequence[str], k: int = 10
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k live-index neighbours for one already-formed batch of
        query texts: a single encode and a single fan-out query.

        Returns ``(ids, scores)`` arrays of shape ``(len(texts), k)``;
        ids are the stable record ids (``-1`` padding for short rows)
        and map back to texts via :meth:`record_text`.  Query texts are
        served from the warm cache when they happen to be corpus records
        but are *not* cached themselves — unbounded query traffic must
        neither grow the store nor evict the indexed corpus.

        Thread-safe, but uncoalesced: concurrent callers that should
        share one batch go through
        :class:`~repro.serve.frontend.ServiceFrontend`, whose broker
        calls this once per batch.
        """
        with self._store_lock:
            # Snapshot backend and mean together: index_records() swaps
            # both under this lock, and pairing the old backend with the
            # new frozen mean would silently skew every score.
            backend = self._live_backend
            mean = self._index_mean
            if backend is None:
                raise RuntimeError("no live index; call index_records() first")
            raw = self.store.embed_batch(list(texts), cache=False)
        vectors = normalize_rows(raw - mean)
        return backend.query(vectors, k)

    def live_texts(self) -> List[str]:
        """The live corpus in ascending record-id order (a snapshot
        consistent with concurrent mutations — the blue/green reindex
        reads its corpus through this)."""
        with self._store_lock:
            return [text for _, text in sorted(self._live_texts.items())]

    def rebuild_index(self) -> "MatchService":
        """Compact the live index (drop tombstones); ids are unchanged."""
        with self._mutation_lock:
            if self._live_backend is None:
                raise RuntimeError("no live index; call index_records() first")
            self._live_backend.rebuild()
        return self

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cache statistics of the underlying embedding store."""
        with self._store_lock:
            return self.store.stats()
