"""Pluggable approximate-nearest-neighbour backends for blocking.

The paper indexes learned embeddings with a high-dimensional similarity
search technique (Section II-C); which index is the right one depends on
corpus size, so the blocker talks to a small backend protocol instead of a
hard-coded search routine:

* :class:`ExactBackend` — brute-force cosine top-k (the seed behaviour,
  exact and fast at reproduction scale).
* :class:`HNSWBackend` — graph-based search via
  :class:`~repro.serve.hnsw.HNSWIndex`, sublinear per-query latency: it
  overtakes the exact scan somewhere between 10k and 50k rows, at a
  recall cost its ``ef_search`` trades against that lead
  (``docs/serving.md``, "when to pick hnsw").
* ``"ivfpq"`` — :class:`~repro.serve.ivfpq.IVFPQBackend`, the
  compressed tier for corpora whose dense rows do not fit in RAM.

Backends are selected by name through ``SudowoodoConfig.ann_backend`` and
:func:`build_backend`.

All built-in backends are **mutable**: records carry stable integer ids
(``build`` assigns ``0..N-1``; callers can choose their own through
``add``), and :meth:`ANNBackend.add` / :meth:`ANNBackend.remove` patch
the index in place instead of rebuilding it — the contract streaming
upserts rely on.  ``query`` always returns stable ids, never internal
positions.

>>> backend = build_backend(config)          # config.ann_backend == "hnsw"
>>> backend.build(corpus_vectors)            # records get ids 0..N-1
>>> indices, scores = backend.query(query_vectors, k=10)
>>> backend.add(np.array([n]), new_vectors)  # incremental insert
>>> backend.remove([3, 7])                   # incremental delete
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.config import SudowoodoConfig
from ..text.similarity import normalize_rows
from ..utils import grow_array
from .hnsw import HNSWIndex


class ANNBackend(abc.ABC):
    """Protocol for candidate-generating similarity indexes.

    ``build`` indexes a corpus of vectors — the exact and IVF-PQ
    backends unit-normalise what they are given; HNSW scores inner
    products, so hand it unit rows — assigning stable ids
    ``0..N-1``; ``query`` returns per-row top-k
    ``(ids, scores)`` arrays of shape ``(num_queries, k)``.  Rows with
    fewer than ``k`` results are padded with ``-1`` ids and ``-inf``
    scores — consumers must skip negative ids.

    Every backend is mutable: :meth:`add`, :meth:`remove`, and
    :meth:`rebuild` patch the index in place.  Ids chosen via ``add`` are
    arbitrary non-negative ints and survive any interleaving of updates;
    ``rebuild`` compacts internal storage without changing them.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def build(self, vectors: np.ndarray) -> "ANNBackend":
        """Index a ``(N, dim)`` corpus with ids ``0..N-1``; returns ``self``."""

    @abc.abstractmethod
    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k ``(ids, scores)`` for each query row."""

    @abc.abstractmethod
    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "ANNBackend":
        """Upsert ``vectors`` under stable ``ids`` (replacing existing ids)."""

    @abc.abstractmethod
    def remove(self, ids: Sequence[int]) -> "ANNBackend":
        """Delete the records with the given stable ids."""

    @abc.abstractmethod
    def rebuild(self) -> "ANNBackend":
        """Compact internal storage (drop tombstones); ids are preserved."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live records in the index."""

    def _require_built(self, vectors: Optional[np.ndarray]) -> np.ndarray:
        if vectors is None:
            raise RuntimeError(f"{self.name} backend: call build() before query()")
        return vectors


def _check_ids_vectors(
    ids: Sequence[int], vectors: np.ndarray, dim: Optional[int] = None
) -> np.ndarray:
    """Validate an add() request *before* any mutation (``dim`` is the
    index's dimension, None while unbuilt); returns the ids as int64."""
    if vectors.ndim != 2 or dim not in (None, vectors.shape[1]):
        raise ValueError(f"expected (N, {dim or 'dim'}) vectors")
    id_array = np.asarray(list(ids), dtype=np.int64)
    if id_array.size != vectors.shape[0]:
        raise ValueError(
            f"got {id_array.size} ids for {vectors.shape[0]} vectors"
        )
    if id_array.size and (id_array < 0).any():
        raise ValueError("record ids must be non-negative")
    if np.unique(id_array).size != id_array.size:
        raise ValueError("record ids must be unique within one add() call")
    return id_array


def _check_remove_ids(ids: Sequence[int]) -> np.ndarray:
    """Validate a remove() request *before* any mutation: duplicates would
    otherwise corrupt index state halfway through the patch."""
    id_array = np.asarray(list(ids), dtype=np.int64)
    if np.unique(id_array).size != id_array.size:
        raise ValueError("record ids must be unique within one remove() call")
    return id_array


#: In-RAM storage dtypes a backend may keep its corpus in.  The exact
#: backend also *scores* in that precision (float16 rows in float32), so
#: the knob trades resident memory and scan time for score resolution:
#: float64 byte-equal to the seed (<= 1e-12 once a ``remove`` has
#: reordered rows), float32 within 1e-6 of the float64 cosine of the
#: stored rows, float16 within 1e-3 — the table in ``docs/serving.md``.
BACKEND_DTYPES = ("float64", "float32", "float16")


def _check_backend_dtype(dtype: str) -> np.dtype:
    if dtype not in BACKEND_DTYPES:
        raise ValueError(
            f"unknown backend storage dtype {dtype!r}; "
            f"valid options: {', '.join(BACKEND_DTYPES)}"
        )
    return np.dtype(dtype)


class ExactBackend(ANNBackend):
    """Brute-force cosine top-k — exact results, O(N) per query.

    Rows are unit-normalised **once**, at ``build``/``add`` time (in
    float64, rounded once to the store ``dtype``) and kept *in place of*
    the raw rows, so ``query`` normalises only its own (rows, d) block
    and scores it with one GEMM — in float64 for a ``float64`` store, in
    float32 for ``float32``/``float16`` (NumPy has no half GEMM; float16
    rows upcast once per call).  Scores come back as float64, in the
    (score desc, id asc) total order at every dtype:

    * ``float64`` — byte-equal to a float64 scan of unit rows (the
      normalised-rows GEMM) for an index that has seen no ``remove``,
      <= 1e-12 after;
    * ``float32`` (the serving default through ``store_dtype``) —
      within 1e-6 of the float64 cosine of the stored rows and of any
      other shard count;
    * ``float16`` — within 1e-3.

    ``add`` appends (or overwrites) rows in a capacity-doubling buffer;
    ``remove`` moves the last row into the hole — O(removed), and
    order-safe because ties break on *id*, never on row position; the
    buffer keeps its capacity until ``rebuild`` trims it to ``len``.
    """

    name = "exact"

    def __init__(self, dtype: str = "float64") -> None:
        self._dtype = _check_backend_dtype(dtype)
        self._compute_dtype = np.promote_types(self._dtype, np.float32)
        self._vectors: Optional[np.ndarray] = None  # capacity buffer, unit rows
        self._size = 0
        self._ids: np.ndarray = np.empty(0, dtype=np.int64)  # same capacity
        self._id_to_row: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._size

    def _view(self) -> np.ndarray:
        """The live (size-bounded) slice of the capacity buffer."""
        return self._require_built(self._vectors)[: self._size]

    def _ensure_capacity(self, needed: int) -> None:
        self._vectors = grow_array(self._vectors, self._size, needed)
        self._ids = grow_array(self._ids, self._size, needed)

    def build(self, vectors: np.ndarray) -> "ExactBackend":
        # normalize_rows returns a fresh array: add() may later overwrite
        # rows in place, and the caller's array must not be mutated.
        self._vectors = normalize_rows(vectors, self._dtype)
        self._size = self._vectors.shape[0]
        self._ids = np.arange(self._size, dtype=np.int64)
        self._id_to_row = {int(i): int(i) for i in range(self._size)}
        return self

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "ExactBackend":
        vectors = np.asarray(vectors)
        dim = None if self._vectors is None else self._vectors.shape[1]
        id_array = _check_ids_vectors(ids, vectors, dim)
        if dim is None:
            self.build(np.zeros((0, vectors.shape[1])))
        unit = normalize_rows(vectors, self._dtype)
        fresh = [
            offset
            for offset, record_id in enumerate(id_array.tolist())
            if record_id not in self._id_to_row
        ]
        self._ensure_capacity(self._size + len(fresh))
        for offset, record_id in enumerate(id_array.tolist()):
            row = self._id_to_row.get(record_id)
            if row is not None:
                self._vectors[row] = unit[offset]
            else:
                self._vectors[self._size] = unit[offset]
                self._ids[self._size] = record_id
                self._id_to_row[record_id] = self._size
                self._size += 1
        return self

    def remove(self, ids: Sequence[int]) -> "ExactBackend":
        vectors = self._require_built(self._vectors)
        id_array = _check_remove_ids(ids)
        missing = [int(i) for i in id_array if int(i) not in self._id_to_row]
        if missing:
            raise KeyError(f"unknown record ids: {missing}")
        for record_id in id_array.tolist():
            row = self._id_to_row.pop(record_id)
            self._size -= 1
            if row != self._size:  # move the last live row into the hole
                moved = int(self._ids[self._size])
                vectors[row] = vectors[self._size]
                self._ids[row] = moved
                self._id_to_row[moved] = row
        return self

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, unit_rows)`` in row order, as stored: read-only views
        that the next ``add`` / ``remove`` may overwrite."""
        ids, vectors = self._ids[: self._size], self._view()
        ids.flags.writeable = vectors.flags.writeable = False
        return ids, vectors

    def rebuild(self) -> "ExactBackend":
        # Rows are always dense; give back the capacity remove() keeps.
        if self._vectors is not None:
            self._vectors = self._vectors[: self._size].copy()
            self._ids = self._ids[: self._size].copy()
        return self

    #: Extra candidates taken past k before the deterministic sort; rows
    #: whose k-th score ties past this many boundary candidates have
    #: that tied tail re-picked exactly.
    _TIE_PAD = 32

    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if k <= 0:
            raise ValueError("k must be positive")
        vectors = self._view()
        unit = normalize_rows(queries, self._compute_dtype)
        if vectors.shape[0] == 0:
            return (
                np.full((unit.shape[0], k), -1, dtype=np.int64),
                np.full((unit.shape[0], k), -np.inf),
            )
        sims = unit @ vectors.astype(self._compute_dtype, copy=False).T
        row_ids = self._ids[: self._size]
        n = vectors.shape[0]
        kk = min(k, n)
        # Total order (score descending, id ascending): score ties are
        # broken deterministically, which keeps results reproducible and
        # shard-stable — the sharded merge sorts by exactly this key.
        # Fast path: argpartition down to kk + _TIE_PAD candidates, then
        # lexsort only those.  That is exact unless a score tie spans
        # the partition boundary (a dropped record could then deserve a
        # kept record's slot by id); such rows are repaired below.
        take = kk + self._TIE_PAD
        if n > take:
            cand = np.argpartition(-sims, kth=take - 1, axis=1)[:, :take]
            cand_scores = np.take_along_axis(sims, cand, axis=1)
            cand_ids = row_ids[cand]
            order = np.lexsort((cand_ids, -cand_scores), axis=-1)[:, :kk]
            indices = np.take_along_axis(cand_ids, order, axis=1)
            scores = np.take_along_axis(cand_scores, order, axis=1)
            # Every dropped score <= the worst retained candidate; a tie
            # can only cross when the kk-th kept score reaches it.
            unsafe = np.flatnonzero(scores[:, -1] <= cand_scores.min(axis=1))
            if unsafe.size:
                indices[unsafe], scores[unsafe] = _repair_ties(
                    sims[unsafe], row_ids, indices[unsafe], scores[unsafe]
                )
        else:
            ids = np.broadcast_to(row_ids, sims.shape)
            order = np.lexsort((ids, -sims), axis=-1)[:, :kk]
            indices = np.take_along_axis(ids, order, axis=1)
            scores = np.take_along_axis(sims, order, axis=1)
        if indices.shape[1] < k:
            # Honour the protocol shape: pad rows out to k like the
            # approximate backends do, so "exact" and "hnsw" stay
            # interchangeable for consumers that rely on the contract.
            pad = k - indices.shape[1]
            indices = np.pad(indices, ((0, 0), (0, pad)), constant_values=-1)
            scores = np.pad(scores, ((0, 0), (0, pad)), constant_values=-np.inf)
        return indices, scores.astype(np.float64, copy=False)


def _repair_ties(
    sims: np.ndarray, row_ids: np.ndarray, indices: np.ndarray, scores: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (score desc, id asc) top-k for rows whose k-th score tied past
    the argpartition cut, given their (rows, N) ``sims`` and fast-path
    answer.  Records above the k-th score all survived the cut, in order;
    only the tail tied *at* it must become the smallest tied ids.  Scores
    are gathered from ``sims``: byte-identical to a full sort, zero signs
    included."""
    k = indices.shape[1]
    threshold = scores[:, -1:]
    above = (scores > threshold).sum(axis=1, keepdims=True)
    keys = np.where(sims == threshold, row_ids, np.iinfo(np.int64).max)
    picks = np.argpartition(keys, kth=k - 1, axis=1)[:, :k]
    order = np.argsort(np.take_along_axis(keys, picks, axis=1), axis=1)
    picks = np.take_along_axis(picks, order, axis=1)  # tied, smallest id first
    slot = np.arange(k) - above  # output column j takes tied pick j - above
    source = np.take_along_axis(picks, np.maximum(slot, 0), axis=1)
    kept = slot < 0
    return (
        np.where(kept, indices, row_ids[source]),
        np.where(kept, scores, np.take_along_axis(sims, source, axis=1)),
    )


class _SlotIdMap:
    """Stable-id bookkeeping for :class:`HNSWBackend`.

    The wrapped index hands out internal *slots*; this map tracks
    ``slot -> id`` and ``id -> slot`` so the backend can expose stable
    ids across adds, tombstoned removals, and compactions.
    """

    def __init__(self) -> None:
        self.slot_ids = np.empty(0, dtype=np.int64)
        self.id_to_slot: Dict[int, int] = {}

    def assign(self, slots: np.ndarray, ids: np.ndarray) -> None:
        if slots.size:
            needed = int(slots.max()) + 1
            if needed > self.slot_ids.size:
                grown = np.full(needed, -1, dtype=np.int64)
                grown[: self.slot_ids.size] = self.slot_ids
                self.slot_ids = grown
            self.slot_ids[slots] = ids
            for slot, record_id in zip(slots.tolist(), ids.tolist()):
                self.id_to_slot[record_id] = slot

    def slots_for(self, ids: Sequence[int]) -> np.ndarray:
        id_list = [int(i) for i in ids]
        missing = [i for i in id_list if i not in self.id_to_slot]
        if missing:
            raise KeyError(f"unknown record ids: {missing}")
        return np.asarray([self.id_to_slot[i] for i in id_list], dtype=np.int64)

    def drop(self, ids: Sequence[int]) -> None:
        for record_id in ids:
            slot = self.id_to_slot.pop(int(record_id))
            self.slot_ids[slot] = -1

    def remap_after_compact(self, survivors: np.ndarray) -> None:
        """``survivors[new_slot] == old_slot`` (from ``compact()``)."""
        self.slot_ids = self.slot_ids[survivors]
        self.id_to_slot = {
            int(record_id): slot
            for slot, record_id in enumerate(self.slot_ids.tolist())
            if record_id >= 0
        }

    def translate(self, slots: np.ndarray) -> np.ndarray:
        """Map a (possibly -1 padded) slot matrix to stable ids."""
        ids = np.full_like(slots, -1)
        valid = slots >= 0
        ids[valid] = self.slot_ids[slots[valid]]
        return ids


class HNSWBackend(ANNBackend):
    """Graph-based search over a :class:`~repro.serve.hnsw.HNSWIndex`.

    Sublinear per-query latency: a beam search walks ``O(log N)`` graph
    hops instead of scanning the corpus.  ``add`` inserts new nodes
    without touching unrelated ones; ``remove`` tombstones (removed
    nodes keep routing but are never returned); ``rebuild`` compacts
    once churn accumulates.  Deterministic for a fixed ``seed``.

    The index addresses positional *slots*; :class:`_SlotIdMap` maps
    them to the stable ids callers see.  ``dtype`` is the precision
    vectors are handed to the index in (it stores them as given, so
    float32 halves its RSS).
    """

    name = "hnsw"

    def __init__(
        self,
        m: int = 16,
        ef_construction: int = 120,
        ef_search: int = 12,
        seed: int = 0,
        dtype: str = "float64",
    ) -> None:
        self._dtype = _check_backend_dtype(dtype)
        self.m = m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed
        self._index: Optional[HNSWIndex] = None
        self._ids = _SlotIdMap()

    def _require_index(self, operation: str) -> HNSWIndex:
        if self._index is None:
            raise RuntimeError(
                f"{self.name} backend: call build() before {operation}()"
            )
        return self._index

    def __len__(self) -> int:
        return 0 if self._index is None else self._index.num_alive

    def build(self, vectors: np.ndarray) -> "HNSWBackend":
        vectors = np.asarray(vectors, dtype=self._dtype)
        if vectors.ndim != 2:
            raise ValueError("expected (N, dim) vectors")
        self._index = HNSWIndex(
            dim=vectors.shape[1],
            m=self.m,
            ef_construction=self.ef_construction,
            ef_search=self.ef_search,
            seed=self.seed,
        ).build(vectors)
        self._ids = _SlotIdMap()
        self._ids.assign(
            np.arange(vectors.shape[0], dtype=np.int64),
            np.arange(vectors.shape[0], dtype=np.int64),
        )
        return self

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "HNSWBackend":
        vectors = np.asarray(vectors, dtype=self._dtype)
        dim = None if self._index is None else self._index.dim
        id_array = _check_ids_vectors(ids, vectors, dim)
        if dim is None:
            self.build(np.zeros((0, vectors.shape[1])))
        # Upsert semantics: an id that is already indexed gets its old
        # slot tombstoned before the new vector lands under a new slot.
        existing = [i for i in id_array.tolist() if i in self._ids.id_to_slot]
        if existing:
            self._index.remove(self._ids.slots_for(existing))
            self._ids.drop(existing)
        slots = self._index.add(vectors)
        self._ids.assign(slots, id_array)
        return self

    def remove(self, ids: Sequence[int]) -> "HNSWBackend":
        index = self._require_index("remove")
        id_array = _check_remove_ids(ids)
        slots = self._ids.slots_for(id_array)
        index.remove(slots)
        self._ids.drop(id_array.tolist())
        return self

    def rebuild(self) -> "HNSWBackend":
        survivors = self._require_index("rebuild").compact()
        self._ids.remap_after_compact(survivors)
        return self

    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        index = self._require_index("query")
        slots, scores = index.query_batch(np.asarray(queries, dtype=self._dtype), k)
        return self._ids.translate(slots), scores


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
BackendFactory = Callable[[SudowoodoConfig], ANNBackend]

def _make_ivfpq(config: SudowoodoConfig) -> ANNBackend:
    from .ivfpq import IVFPQBackend  # deferred: ivfpq imports backends

    return IVFPQBackend(
        num_cells=config.ivf_cells,
        num_subvectors=config.pq_subvectors,
        bits=config.pq_bits,
        nprobe=config.nprobe,
        seed=config.seed,
    )


_BACKENDS: Dict[str, BackendFactory] = {
    "exact": lambda config: ExactBackend(dtype=config.store_dtype),
    "hnsw": lambda config: HNSWBackend(seed=config.seed, dtype=config.store_dtype),
    "ivfpq": _make_ivfpq,
}


def build_backend(
    config: Optional[SudowoodoConfig] = None,
    name: Optional[str] = None,
    sharded: bool = False,
) -> ANNBackend:
    """Instantiate the backend selected by ``name`` or ``config.ann_backend``.

    With ``config.num_shards > 1`` the chosen backend is wrapped in a
    :class:`~repro.serve.sharding.ShardedBackend` — one partition per
    shard, lock-guarded, queried one shard after another on the
    caller's thread — so every consumer that builds backends through
    this registry (``Blocker``, ``MatchService.index_records``, the
    pipeline) shards transparently.  ``sharded=True`` wraps even at one
    shard, for callers that need the lock.
    """
    config = config or SudowoodoConfig()
    chosen = name or config.ann_backend
    try:
        factory = _BACKENDS[chosen]
    except KeyError:
        raise ValueError(
            f"unknown ANN backend {chosen!r}; available: {sorted(_BACKENDS)}"
        ) from None
    if sharded or config.num_shards > 1:
        from .sharding import ShardedBackend  # deferred: sharding imports backends

        return ShardedBackend(lambda: factory(config), config.num_shards)
    return factory(config)
