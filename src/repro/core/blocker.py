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
out across them, with no change to the blocker itself:

>>> from repro.serve import EmbeddingStore, build_backend
>>> store = EmbeddingStore(encoder)
>>> backend = build_backend(config)  # config.ann_backend: "exact"|"hnsw"|"ivfpq"
>>> blocker = Blocker(encoder, dataset, store=store, backend=backend)
>>> candidate_set = blocker.candidates(k=10)
>>> candidate_set.recall(dataset.matches), candidate_set.cssr()  # doctest: +SKIP

The blocker is batch-only: it embeds both tables once and answers
candidate queries over that snapshot.  Streaming table-B changes go
through the live index of ``session.serve("match")`` (``upsert_records``
/ ``delete_records``), which patches its backend in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data import EMDataset
from ..serve import ANNBackend, EmbeddingStore, ExactBackend
from ..text.similarity import normalize_rows
from .encoder import SudowoodoEncoder

#: Records per encode call.  Chunking changes the bytes of an embedding
#: (see :class:`~repro.serve.store.EmbeddingStore`), so it is fixed.
ENCODE_CHUNK = 64


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


class Blocker:
    """Embeds both tables once, then answers kNN candidate queries.

    Parameters
    ----------
    encoder:
        The representation model (ignored when ``store`` is given).
    dataset:
        The two-table EM dataset to block.
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
        store: Optional[EmbeddingStore] = None,
        backend: Optional[ANNBackend] = None,
    ) -> None:
        if dataset is None:
            raise ValueError("Blocker requires a dataset")
        if store is None:
            if encoder is None:
                raise ValueError("Blocker requires an encoder or an EmbeddingStore")
            store = EmbeddingStore(encoder)
        self.dataset = dataset
        self.store = store
        self.backend = backend if backend is not None else ExactBackend()
        items_a = [dataset.serialize_a(i) for i in range(len(dataset.table_a))]
        items_b = [dataset.serialize_b(j) for j in range(len(dataset.table_b))]
        raw_a = store.embed_batch(items_a, chunk_size=ENCODE_CHUNK)
        raw_b = store.embed_batch(items_b, chunk_size=ENCODE_CHUNK)
        # Small Transformers produce anisotropic embeddings (a shared
        # mean direction dominates every vector, so all cosines are
        # high).  Centering by the joint corpus mean restores contrast;
        # the paper's RoBERTa needs no such correction only because its
        # large-scale pre-training already spreads the space.
        mean = np.zeros((1, raw_a.shape[1]))
        if raw_a.shape[0] + raw_b.shape[0]:
            mean = np.vstack([raw_a, raw_b]).mean(axis=0, keepdims=True)
        self.vectors_a = normalize_rows(raw_a - mean)
        self.vectors_b = normalize_rows(raw_b - mean)
        self.backend.build(self.vectors_b)

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
            num_b=self.vectors_b.shape[0],
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
