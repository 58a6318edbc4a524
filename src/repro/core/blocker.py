"""Blocking via kNN search over learned representations (Section II-C, ②).

Every record of table A is embedded and its k nearest neighbours in table B
(cosine similarity over unit-norm vectors) form the candidate set.  The
evaluation follows the paper and DL-Block: recall over positives from all
three splits, and candidate-set-size-ratio CSSR = |C| / (|A|·|B|).

Embeddings are produced through a :class:`~repro.serve.store.EmbeddingStore`
(each distinct record is encoded once per process, then served from the
cache) and candidate search goes through the pluggable
:class:`~repro.serve.backends.ANNBackend` protocol — exact brute-force by
default, graph-based HNSW for large corpora.
With ``SudowoodoConfig(num_shards > 1)``, ``build_backend`` hands the
blocker a :class:`~repro.serve.sharding.ShardedBackend`: table B is
hash-partitioned across per-shard indexes and every candidate query fans
out in parallel, with no change to the blocker itself:

>>> from repro.serve import EmbeddingStore, build_backend
>>> store = EmbeddingStore(encoder)
>>> backend = build_backend(config)  # config.ann_backend: "exact"|"hnsw"|"ivfpq"
>>> blocker = Blocker(encoder, dataset, store=store, backend=backend)
>>> candidate_set = blocker.candidates(k=10)
>>> candidate_set.recall(dataset.matches), candidate_set.cssr()  # doctest: +SKIP

The blocker is also the incremental path of the streaming pipeline:
:meth:`Blocker.upsert_b` embeds only the new records (warm store cache)
and patches the backend in place, :meth:`Blocker.delete_b` retires
table-B rows without touching anything else, and :meth:`Blocker.rebuild`
re-centers once drift accumulates.  Candidate generation therefore never
re-encodes or re-indexes the standing corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data import EMDataset
from ..serve import ANNBackend, EmbeddingStore, ExactBackend, updatable_backends
from ..text.similarity import normalize_rows
from .encoder import SudowoodoEncoder


@dataclass
class CandidateSet:
    """Blocking output: scored candidate (a, b) pairs."""

    pairs: List[Tuple[int, int]]
    scores: Dict[Tuple[int, int], float]
    num_a: int
    num_b: int
    k: int

    def __len__(self) -> int:
        return len(self.pairs)

    def cssr(self) -> float:
        """Candidate set size ratio (Section VI-B)."""
        total = self.num_a * self.num_b
        return len(self.pairs) / total if total else 0.0

    def recall(self, matches: Set[Tuple[int, int]]) -> float:
        """Fraction of ground-truth matches retained in the candidates."""
        if not matches:
            return 0.0
        retained = sum(1 for pair in matches if pair in self.scores)
        return retained / len(matches)

    def contains(self, left: int, right: int) -> bool:
        """Whether the (left, right) pair survived blocking."""
        return (left, right) in self.scores


class Blocker:
    """Embeds both tables once, then answers kNN candidate queries.

    Parameters
    ----------
    encoder:
        The representation model (ignored when ``store`` is given).
    dataset:
        The two-table EM dataset to block.
    batch_size:
        Encode chunk size when the blocker creates its own store.
    center:
        Subtract the joint corpus mean before normalizing (see below).
    store:
        Share an existing :class:`EmbeddingStore` so a corpus already
        embedded by another task is not re-encoded.
    backend:
        ANN backend instance; defaults to :class:`ExactBackend` (the seed
        behaviour).  Backends may return fewer than ``k`` neighbours per
        query (``-1`` padding), which :meth:`candidates` skips.
    """

    def __init__(
        self,
        encoder: Optional[SudowoodoEncoder] = None,
        dataset: Optional[EMDataset] = None,
        batch_size: int = 64,
        center: bool = True,
        store: Optional[EmbeddingStore] = None,
        backend: Optional[ANNBackend] = None,
    ) -> None:
        if dataset is None:
            raise ValueError("Blocker requires a dataset")
        if store is None:
            if encoder is None:
                raise ValueError("Blocker requires an encoder or an EmbeddingStore")
            store = EmbeddingStore(encoder, batch_size=batch_size)
        self.dataset = dataset
        self.store = store
        self.backend = backend if backend is not None else ExactBackend()
        self.center = center
        self.batch_size = batch_size
        items_a = [dataset.serialize_a(i) for i in range(len(dataset.table_a))]
        items_b = [dataset.serialize_b(j) for j in range(len(dataset.table_b))]
        raw_a = store.embed_batch(items_a, chunk_size=batch_size)
        raw_b = store.embed_batch(items_b, chunk_size=batch_size)
        # Raw (uncentered) vectors and the centering mean are kept so the
        # incremental path can fold new records in under the *frozen*
        # mean, and rebuild() can re-derive everything without a single
        # re-encode (the store cache still holds every fingerprint).
        self._raw_a = raw_a
        self._raw_b = raw_b
        self._alive_b = np.ones(raw_b.shape[0], dtype=bool)
        self._mean = self._compute_mean()
        self.vectors_a = normalize_rows(raw_a - self._mean)
        self.vectors_b = normalize_rows(raw_b - self._mean)
        self.backend.build(self.vectors_b)

    def _compute_mean(self) -> np.ndarray:
        if not self.center:
            return np.zeros((1, self._raw_a.shape[1]))
        # Small Transformers produce anisotropic embeddings (a shared
        # mean direction dominates every vector, so all cosines are
        # high).  Centering by the joint corpus mean restores contrast;
        # the paper's RoBERTa needs no such correction only because its
        # large-scale pre-training already spreads the space.
        rows = np.vstack([self._raw_a, self._raw_b[self._alive_b]])
        if rows.shape[0] == 0:
            return np.zeros((1, self._raw_a.shape[1]))
        return rows.mean(axis=0, keepdims=True)

    # ------------------------------------------------------------------
    # Incremental maintenance (streaming table-B updates)
    # ------------------------------------------------------------------
    @property
    def num_live_b(self) -> int:
        """Live table-B rows (initial corpus plus upserts minus deletes)."""
        return int(self._alive_b.sum())

    def _require_mutable_backend(self) -> ANNBackend:
        if not self.backend.supports_updates:
            raise RuntimeError(
                f"backend {self.backend.name!r} does not support incremental "
                f"updates; use one of {updatable_backends()}"
            )
        return self.backend

    def upsert_b(self, texts: Sequence[str]) -> np.ndarray:
        """Append records to table B without rebuilding anything.

        Only the new records are encoded (warm cache) and the backend is
        patched in place under the frozen centering mean.  Returns the
        new rows' ids — the same id space ``candidates()`` reports in
        its ``(a, b)`` pairs.
        """
        backend = self._require_mutable_backend()
        raw = self.store.embed_batch(list(texts), chunk_size=self.batch_size)
        start = self._raw_b.shape[0]
        ids = np.arange(start, start + raw.shape[0], dtype=np.int64)
        if raw.shape[0] == 0:
            return ids
        self._raw_b = np.vstack([self._raw_b, raw])
        self._alive_b = np.concatenate(
            [self._alive_b, np.ones(raw.shape[0], dtype=bool)]
        )
        vectors = normalize_rows(raw - self._mean)
        self.vectors_b = np.vstack([self.vectors_b, vectors])
        backend.add(ids, vectors)
        return ids

    def delete_b(self, ids: Sequence[int]) -> None:
        """Retire table-B rows by id; candidate generation is untouched
        otherwise (no re-encode, no re-index of the survivors)."""
        backend = self._require_mutable_backend()
        id_array = np.asarray(list(ids), dtype=np.int64)
        if id_array.size == 0:
            return
        bad = [
            int(i)
            for i in id_array
            if i < 0 or i >= self._alive_b.size or not self._alive_b[i]
        ]
        if bad:
            raise KeyError(f"unknown or already deleted table-B ids: {bad}")
        backend.remove(id_array)
        self._alive_b[id_array] = False

    def rebuild(self) -> "Blocker":
        """Re-center over the live corpus and rebuild the backend.

        The antidote to mean drift after heavy churn: embeddings come
        from the store cache (no re-encode), the mean is recomputed over
        live rows only, and the backend is rebuilt with the same stable
        ids, so outstanding candidate pairs stay meaningful.
        """
        backend = self._require_mutable_backend()
        self._mean = self._compute_mean()
        self.vectors_a = normalize_rows(self._raw_a - self._mean)
        self.vectors_b = normalize_rows(self._raw_b - self._mean)
        live = np.flatnonzero(self._alive_b)
        backend.build(np.zeros((0, self.vectors_b.shape[1])))
        if live.size:
            backend.add(live, self.vectors_b[live])
        return self

    # ------------------------------------------------------------------
    def candidates(self, k: int) -> CandidateSet:
        """Top-k nearest B records for every A record (via the backend)."""
        indices, scores = self.backend.query(self.vectors_a, k)
        pairs: List[Tuple[int, int]] = []
        score_map: Dict[Tuple[int, int], float] = {}
        for a_index in range(indices.shape[0]):
            for rank in range(indices.shape[1]):
                b_index = int(indices[a_index, rank])
                if b_index < 0:  # approximate backends pad short rows
                    continue
                pair = (a_index, b_index)
                pairs.append(pair)
                score_map[pair] = float(scores[a_index, rank])
        return CandidateSet(
            pairs=pairs,
            scores=score_map,
            num_a=self.vectors_a.shape[0],
            num_b=self.num_live_b,
            k=k,
        )

    def recall_cssr_curve(
        self, ks: Sequence[int]
    ) -> List[Dict[str, float]]:
        """Recall/CSSR rows for a range of k — the data behind Figure 7."""
        rows = []
        for k in ks:
            candidate_set = self.candidates(k)
            rows.append(
                {
                    "k": k,
                    "recall": candidate_set.recall(self.dataset.matches),
                    "cssr": candidate_set.cssr(),
                    "num_candidates": float(len(candidate_set)),
                }
            )
        return rows

    def first_k_beating_recall(
        self, target_recall: float, max_k: int = 20
    ) -> Optional[CandidateSet]:
        """Smallest k whose recall exceeds ``target_recall`` (Table VII's
        protocol: report Sudowoodo at the first k beating DL-Block)."""
        for k in range(1, max_k + 1):
            candidate_set = self.candidates(k)
            if candidate_set.recall(self.dataset.matches) >= target_recall:
                return candidate_set
        return None
