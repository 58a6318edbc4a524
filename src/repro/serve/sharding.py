"""Sharded ANN index: partitioned, lock-guarded shards behind one backend.

One ANN index stops scaling long before the encoder does: a 10M-record
corpus does not fit one brute-force scan, and one mutable index cannot
serve concurrent readers and writers without locking.
:class:`ShardedBackend` is an
:class:`~repro.serve.backends.ANNBackend` that hash-partitions record
ids across ``num_shards`` inner backends (any of exact / HNSW /
IVF-PQ), guards each shard with a :class:`ReadWriteLock`, fans queries
out to all shards on the caller's thread and merges per-shard top-k
into global top-k (:func:`_merge_topk`).  Because every id lives in
exactly one shard (:func:`shard_assignments`), the merged result is the
true global top-k (no duplicates, no misses) for exact inner backends.

``SudowoodoConfig(num_shards=4)`` routes the whole stack here:
``build_backend`` wraps the configured backend in a
:class:`ShardedBackend`, so ``Blocker`` shards transparently, and
:class:`~repro.serve.service.MatchService` always asks for the wrapper
(``sharded=True``, a single shard included) because its live index needs
the locks.

>>> config = SudowoodoConfig(num_shards=4, ann_backend="exact")
>>> service = MatchService(encoder, config=config)
>>> service.index_records(corpus)                # partitioned across 4 shards
>>> ids, scores = service.search_batch(queries)  # fanned out and merged
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .backends import ANNBackend, _check_ids_vectors, _check_remove_ids


# ----------------------------------------------------------------------
# Locking
# ----------------------------------------------------------------------
class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Any number of readers may hold the lock concurrently; writers get
    exclusive access.  Waiting writers block *new* readers (preference),
    so a steady query stream cannot starve index mutations.  Not
    reentrant — a thread must not re-acquire a lock it already holds.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@contextmanager
def _all_locked(locks: Sequence[ReadWriteLock], write: bool) -> Iterator[None]:
    """Hold every lock simultaneously (always in index order, so two
    cross-shard operations can never deadlock against each other)."""
    held: List[ReadWriteLock] = []
    try:
        for lock in locks:
            if write:
                lock.acquire_write()
            else:
                lock.acquire_read()
            held.append(lock)
        yield
    finally:
        for lock in reversed(held):
            if write:
                lock.release_write()
            else:
                lock.release_read()


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------
_KNUTH_MIX = 2654435761  # 2**32 / golden ratio (Fibonacci hashing)


def shard_assignments(ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Stable hash partition of non-negative record ids onto shards.

    Fibonacci (Knuth multiplicative) hashing: structured id sequences —
    the store hands them out consecutively — still spread evenly, and
    the assignment is a pure function of the id, so every consumer
    (add, remove, query merge) agrees on where a record lives.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mixed = (ids * _KNUTH_MIX) & 0xFFFFFFFF
    return mixed % num_shards


class ShardedBackend(ANNBackend):
    """Hash-partitioned fan-out over ``num_shards`` inner ANN backends.

    Each record id is owned by exactly one shard
    (:func:`shard_assignments`), so per-shard top-k results are disjoint
    and the merge — sort the union of per-shard candidates by score —
    yields the global top-k whenever the inner backends do (always for
    ``exact``; at their usual recall for HNSW / IVF-PQ).  For ``exact``,
    ids are identical to a single backend whenever top-k boundary
    scores are distinct at the resolution of the shards' dtype (scores
    agree to that dtype's tolerance, see :class:`ExactBackend`) —
    effectively always for real embeddings.  The one caveat: when
    *bit-identical duplicate vectors* tie at the boundary, both paths
    pick deterministically (score desc, id asc), but BLAS may round the
    duplicates' scores differently in different shard shapes, so which
    duplicates win can differ from the single backend across shards.

    Thread safety: every shard carries a :class:`ReadWriteLock`.
    Queries hold all read locks for the duration of the fan-out, which
    visits the shards one after another on the calling thread: a pool
    hand-off costs two thread wake-ups per shard and only measured
    ahead from ~1.7e6 query-row x record scans on two cores, ten times
    the largest scan any workload here issues.  Concurrent callers
    still overlap (readers share the locks).  Mutations hold all write
    locks — validating the batch under them, *before* touching any
    shard — so a concurrent reader observes each cross-shard ``add`` /
    ``remove`` either completely or not at all, and a batch with an
    unknown id or a wrong-dimension block fails atomically.  Queries
    and vectors are handed to the shards as given: they own the dtype.

    Parameters
    ----------
    factory:
        Zero-argument callable building one inner backend (e.g.
        ``lambda: ExactBackend()``).  Shards must be homogeneous.
    num_shards:
        Number of partitions; queries fan out across all of them.
    """

    def __init__(self, factory: Callable[[], ANNBackend], num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._shards: List[ANNBackend] = [factory() for _ in range(num_shards)]
        self.num_shards = num_shards
        self.supports_updates = all(s.supports_updates for s in self._shards)
        self.name = f"sharded-{self._shards[0].name}"
        self._locks = [ReadWriteLock() for _ in range(num_shards)]
        self._live_ids: set = set()
        self._dim: Optional[int] = None  # None until built

    def __len__(self) -> int:
        with _all_locked(self._locks, write=False):
            return sum(len(shard) for shard in self._shards)

    # -- helpers --------------------------------------------------------
    def _group_by_shard(self, ids: np.ndarray) -> Dict[int, np.ndarray]:
        """Map shard index -> positions (into ``ids``) routed there."""
        owners = shard_assignments(ids, self.num_shards)
        return {
            int(shard): np.flatnonzero(owners == shard)
            for shard in np.unique(owners)
        }

    # -- ANNBackend protocol --------------------------------------------
    # Every mutation takes ALL write locks and validates under them:
    # checking _dim / _live_ids outside the locked region would let a
    # concurrent mutation invalidate the check between test and patch,
    # re-creating exactly the torn cross-shard state the validation
    # exists to prevent.
    def _build_locked(self, vectors: np.ndarray) -> None:
        """Rebuild every shard; caller holds all write locks."""
        ids = np.arange(vectors.shape[0], dtype=np.int64)
        groups = self._group_by_shard(ids) if ids.size else {}
        for shard_index, shard in enumerate(self._shards):
            shard.build(np.zeros((0, vectors.shape[1])))
            rows = groups.get(shard_index)
            if rows is not None and rows.size:
                shard.add(ids[rows], vectors[rows])
        self._live_ids = set(ids.tolist())
        self._dim = vectors.shape[1]

    def build(self, vectors: np.ndarray) -> "ShardedBackend":
        vectors = np.asarray(vectors)  # the shards own the dtype
        if vectors.ndim != 2:
            raise ValueError("expected (N, dim) vectors")
        with _all_locked(self._locks, write=True):
            self._build_locked(vectors)
        return self

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "ShardedBackend":
        vectors = np.asarray(vectors)
        with _all_locked(self._locks, write=True):
            # A wrong-dimension block must fail here, not inside the one
            # shard that would drop its record while _live_ids keeps it.
            id_array = _check_ids_vectors(ids, vectors, self._dim)
            groups = self._group_by_shard(id_array) if id_array.size else {}
            if self._dim is None:
                self._build_locked(np.zeros((0, vectors.shape[1])))
            for shard_index, rows in groups.items():
                self._shards[shard_index].add(id_array[rows], vectors[rows])
            self._live_ids.update(id_array.tolist())
        return self

    def remove(self, ids: Sequence[int]) -> "ShardedBackend":
        id_array = _check_remove_ids(ids)
        groups = self._group_by_shard(id_array) if id_array.size else {}
        with _all_locked(self._locks, write=True):
            if self._dim is None:
                raise RuntimeError(
                    f"{self.name} backend: call build() before remove()"
                )
            # Validate the whole batch before touching any shard — a
            # KeyError halfway through would leave a torn cross-shard
            # state.
            missing = [int(i) for i in id_array if int(i) not in self._live_ids]
            if missing:
                raise KeyError(f"unknown record ids: {missing}")
            for shard_index, rows in groups.items():
                self._shards[shard_index].remove(id_array[rows])
            self._live_ids.difference_update(id_array.tolist())
        return self

    def rebuild(self) -> "ShardedBackend":
        with _all_locked(self._locks, write=True):
            if self._dim is None:
                raise RuntimeError(
                    f"{self.name} backend: call build() before rebuild()"
                )
            for shard in self._shards:
                shard.rebuild()
        return self

    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        queries = np.asarray(queries)  # the shards own the dtype
        # All read locks for the whole fan-out: the merged answer is a
        # consistent cross-shard snapshot (readers share the locks, so
        # queries still run concurrently with each other).
        with _all_locked(self._locks, write=False):
            if self._dim is None:
                raise RuntimeError(
                    f"{self.name} backend: call build() before query()"
                )
            results = [shard.query(queries, k) for shard in self._shards]
        return results[0] if self.num_shards == 1 else _merge_topk(results, k)


def _merge_topk(
    results: Sequence[Tuple[np.ndarray, np.ndarray]], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(ids, scores)`` top-k blocks into global top-k.

    Ids are disjoint across shards, so the merge is a pure sort: per
    row, order the union by descending score (ties broken by ascending
    id — the store assigns ids in insertion order, matching the
    insertion-order tie-break of a single exact backend) and keep the
    first ``k``.  ``-1`` padding carries ``-inf`` scores and naturally
    sinks to the back.
    """
    all_ids = np.concatenate([ids for ids, _ in results], axis=1)
    all_scores = np.concatenate([scores for _, scores in results], axis=1)
    order = np.lexsort((all_ids, -all_scores), axis=-1)[:, :k]
    return (
        np.take_along_axis(all_ids, order, axis=1),
        np.take_along_axis(all_scores, order, axis=1),
    )
