"""IVF-PQ: coarse k-means partitioning + product-quantized residuals.

The FAISS-style answer to million-record corpora: an inverted-file (IVF)
index splits the corpus into ``num_cells`` k-means cells, and each
vector is stored inside its cell as a **product-quantization code** —
``num_subvectors`` bytes instead of ``dim`` floats, a 24–48x compression
at this repo's dimensions.  A query visits only the ``nprobe`` nearest
cells and scores their members with asymmetric distance computation
(ADC): one ``(num_subvectors, 2**bits)`` lookup table per probed cell
turns each candidate's distance into ``num_subvectors`` table reads, so
query cost is ``O(nprobe * cell_size)`` table lookups instead of
``O(N * dim)`` multiplies.

Training rides the repo's own k-means (``text.kmeans``): the coarse
quantizer is plain :func:`~repro.text.kmeans.kmeans` (mini-batch above
16k rows) and each PQ subquantizer is a k-means codebook over residual
subvectors.  Everything is deterministic for a fixed ``seed``.

Lifecycle: the backend starts in a **flat** state that buffers raw
float32 rows and answers queries exactly — the contract-compliant
behaviour for the tiny corpora the test-suite feeds every backend.  The
first time the live corpus reaches ``train_threshold`` rows, it trains
the coarse + PQ codebooks on everything buffered, encodes the corpus,
and drops the raw buffer; later ``add``\\ s encode directly.  ``remove``
deletes eagerly (swap-delete inside the cell), so ``rebuild`` has no
tombstones to drop and is a no-op.

Scores are *approximate* cosine similarities: callers index unit-norm
rows (the shared backend convention — inputs are re-normalized
defensively), and for a reconstruction ``x̂`` of a stored unit vector
the ADC distance gives ``cosine ~= 1 - d²(q, x̂) / 2``.  Recall against
the exact top-k grows with ``nprobe`` (more cells scanned) and with
``bits`` / ``num_subvectors`` (finer codes).

>>> backend = IVFPQBackend(num_cells=32, num_subvectors=8, nprobe=8)
>>> backend.build(corpus_vectors)          # trains when corpus is big enough
>>> ids, scores = backend.query(queries, k=10)
>>> backend.add(np.array([n]), new_rows)   # encoded against trained codebooks
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..text.kmeans import _squared_distances, assign_clusters, kmeans, minibatch_kmeans
from ..text.similarity import normalize_rows
from ..utils import grow_array
from .backends import ANNBackend, _check_ids_vectors, _check_remove_ids

#: Corpus size above which codebook training switches to mini-batch
#: k-means (full Lloyd iterations would scan every row per iteration).
_MINIBATCH_ABOVE = 16_384


class ProductQuantizer:
    """Per-subvector k-means codebooks for vector compression.

    Splits ``dim`` into ``num_subvectors`` contiguous blocks and trains
    one ``2**bits``-entry k-means codebook per block; a vector is stored
    as the ``num_subvectors`` nearest-codeword indices (one byte each
    for ``bits <= 8``).  :meth:`distance_tables` is the ADC primitive:
    all query-to-codeword distances, computed once per query and reused
    for every candidate.
    """

    def __init__(
        self,
        num_subvectors: int = 8,
        bits: int = 8,
        seed: int = 0,
        train_iterations: int = 15,
    ) -> None:
        if num_subvectors < 1:
            raise ValueError("num_subvectors must be positive")
        if not 1 <= bits <= 8:
            raise ValueError("bits must be in [1, 8] (codes are one byte)")
        self.num_subvectors = num_subvectors
        self.bits = bits
        self.seed = seed
        self.train_iterations = train_iterations
        self.codebooks: Optional[np.ndarray] = None  # (M, K, dim // M)

    def train(self, vectors: np.ndarray) -> "ProductQuantizer":
        """Fit the ``num_subvectors`` codebooks on ``vectors``."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("expected a non-empty (N, dim) training matrix")
        n, dim = vectors.shape
        if dim % self.num_subvectors:
            raise ValueError(
                f"dim {dim} is not divisible by num_subvectors "
                f"{self.num_subvectors}"
            )
        sub_dim = dim // self.num_subvectors
        num_codes = min(2**self.bits, n)
        rng = np.random.default_rng(self.seed)
        cluster = minibatch_kmeans if n > _MINIBATCH_ABOVE else kmeans
        codebooks = np.zeros((self.num_subvectors, num_codes, sub_dim))
        for sub in range(self.num_subvectors):
            block = vectors[:, sub * sub_dim : (sub + 1) * sub_dim]
            codebooks[sub] = cluster(
                block, num_codes, rng, max_iterations=self.train_iterations
            ).centers
        self.codebooks = codebooks
        return self

    def _require_trained(self) -> np.ndarray:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer: call train() first")
        return self.codebooks

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Codes ``(N, num_subvectors)`` (uint8) for ``vectors``."""
        codebooks = self._require_trained()
        vectors = np.asarray(vectors, dtype=np.float64)
        sub_dim = codebooks.shape[2]
        codes = np.empty((vectors.shape[0], self.num_subvectors), dtype=np.uint8)
        for sub in range(self.num_subvectors):
            block = vectors[:, sub * sub_dim : (sub + 1) * sub_dim]
            labels, _ = assign_clusters(block, codebooks[sub])
            codes[:, sub] = labels
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct ``(N, dim)`` vectors from ``codes``."""
        codebooks = self._require_trained()
        codes = np.asarray(codes)
        blocks = [
            codebooks[sub][codes[:, sub]] for sub in range(self.num_subvectors)
        ]
        return np.concatenate(blocks, axis=1)

    def distance_tables(self, query: np.ndarray) -> np.ndarray:
        """ADC tables ``(num_subvectors, K)``: squared distance from each
        query subvector to every codeword."""
        codebooks = self._require_trained()
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        sub_dim = codebooks.shape[2]
        blocks = query.reshape(self.num_subvectors, 1, sub_dim)
        return ((codebooks - blocks) ** 2).sum(axis=2)


class IVFPQBackend(ANNBackend):
    """Inverted-file + product-quantization ANN backend.

    Parameters
    ----------
    num_cells:
        Coarse k-means partition count (capped at the training corpus
        size).  More cells = smaller cells = faster queries at fixed
        ``nprobe``, but lower recall per probed cell.
    num_subvectors:
        PQ blocks per vector — the compressed size in bytes.  Must
        divide the vector dimension.
    bits:
        Bits per PQ code (``2**bits`` codewords per block, max 8).
    nprobe:
        Cells scanned per query; the recall/latency knob.
    train_threshold:
        Corpus size that triggers codebook training (default
        ``max(256, 4 * num_cells, 2**bits)``).  Below it the backend
        serves exact results from a raw float32 buffer.
    seed:
        Seeds both k-means trainings; fixed seed = identical index.
    """

    name = "ivfpq"
    supports_updates = True

    def __init__(
        self,
        num_cells: int = 64,
        num_subvectors: int = 8,
        bits: int = 8,
        nprobe: int = 8,
        train_threshold: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if num_cells < 1:
            raise ValueError("num_cells must be positive")
        if nprobe < 1:
            raise ValueError("nprobe must be positive")
        self.num_cells = num_cells
        self.num_subvectors = num_subvectors
        self.bits = bits
        self.nprobe = nprobe
        self.seed = seed
        self.train_threshold = (
            train_threshold
            if train_threshold is not None
            else max(256, 4 * num_cells, 2**bits)
        )
        if self.train_threshold < 1:
            raise ValueError("train_threshold must be positive")
        # Constructing eagerly validates num_subvectors/bits up front.
        self._pq = ProductQuantizer(num_subvectors, bits, seed=seed)
        self._dim: Optional[int] = None
        self._built = False
        # Flat (pre-training) state: unit-norm rows in a capacity buffer.
        self._raw = np.zeros((0, 0), dtype=np.float32)
        self._raw_ids = np.empty(0, dtype=np.int64)
        self._raw_size = 0
        self._raw_rows: Dict[int, int] = {}
        # Trained state: per-cell id + code arrays.
        self._centroids: Optional[np.ndarray] = None
        self._cell_ids: List[np.ndarray] = []
        self._cell_codes: List[np.ndarray] = []
        self._locations: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def trained(self) -> bool:
        """Whether codebooks exist (False = exact flat mode)."""
        return self._centroids is not None

    def __len__(self) -> int:
        if self.trained:
            return len(self._locations)
        return self._raw_size

    def memory_bytes(self) -> int:
        """In-RAM bytes of the vector payload (codes or the flat buffer,
        plus centroids and codebooks) — the number the million-scale
        benchmark compares against a dense float store."""
        if not self.trained:
            return self._raw_size * (self._dim or 0) * 4 + self._raw_size * 8
        assert self._centroids is not None and self._pq.codebooks is not None
        total = self._centroids.nbytes + self._pq.codebooks.nbytes
        for ids, codes in zip(self._cell_ids, self._cell_codes):
            total += ids.nbytes + codes.nbytes
        return total

    # ------------------------------------------------------------------
    # ANNBackend protocol
    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray) -> "IVFPQBackend":
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("expected (N, dim) vectors")
        self._reset(vectors.shape[1])
        self._built = True
        if vectors.shape[0]:
            self.add(np.arange(vectors.shape[0], dtype=np.int64), vectors)
        return self

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "IVFPQBackend":
        vectors = np.asarray(vectors, dtype=np.float64)
        id_array = _check_ids_vectors(ids, vectors, self._dim)
        if not self._built:
            self.build(np.zeros((0, vectors.shape[1])))
        if not id_array.size:
            return self
        # Upsert semantics: an existing id is dropped before re-insert.
        existing = [
            int(i)
            for i in id_array.tolist()
            if i in self._locations or i in self._raw_rows
        ]
        if existing:
            self._delete(existing)
        unit = normalize_rows(vectors)
        if self.trained:
            self._insert_trained(id_array, unit)
        else:
            self._insert_flat(id_array, unit)
            if self._raw_size >= self.train_threshold:
                self._train()
        return self

    def remove(self, ids: Sequence[int]) -> "IVFPQBackend":
        if not self._built:
            raise RuntimeError(f"{self.name} backend: call build() before remove()")
        id_array = _check_remove_ids(ids)
        # Validate the whole batch first so a bad id fails atomically.
        missing = [
            int(i)
            for i in id_array
            if int(i) not in self._locations and int(i) not in self._raw_rows
        ]
        if missing:
            raise KeyError(f"unknown record ids: {missing}")
        self._delete([int(i) for i in id_array])
        return self

    def rebuild(self) -> "IVFPQBackend":
        # Deletes are eager swap-deletes — no tombstones to compact.
        return self

    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if k <= 0:
            raise ValueError("k must be positive")
        if not self._built:
            raise RuntimeError(f"{self.name} backend: call build() before query()")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("expected (Q, dim) queries")
        num_queries = queries.shape[0]
        indices = np.full((num_queries, k), -1, dtype=np.int64)
        scores = np.full((num_queries, k), -np.inf)
        if len(self) == 0 or num_queries == 0:
            return indices, scores
        unit = normalize_rows(queries)
        for row in range(num_queries):
            if self.trained:
                found_ids, found_scores = self._query_trained(unit[row], k)
            else:
                found_ids, found_scores = self._query_flat(unit[row], k)
            indices[row, : found_ids.size] = found_ids
            scores[row, : found_ids.size] = found_scores
        return indices, scores

    # ------------------------------------------------------------------
    # Flat (pre-training) state
    # ------------------------------------------------------------------
    def _reset(self, dim: int) -> None:
        self._dim = dim
        self._raw = np.zeros((0, dim), dtype=np.float32)
        self._raw_ids = np.empty(0, dtype=np.int64)
        self._raw_size = 0
        self._raw_rows = {}
        self._centroids = None
        self._cell_ids = []
        self._cell_codes = []
        self._locations = {}
        self._pq = ProductQuantizer(self.num_subvectors, self.bits, seed=self.seed)

    def _insert_flat(self, ids: np.ndarray, unit: np.ndarray) -> None:
        needed = self._raw_size + ids.size
        self._raw = grow_array(self._raw, self._raw_size, needed)
        self._raw_ids = grow_array(self._raw_ids, self._raw_size, needed)
        for offset, record_id in enumerate(ids.tolist()):
            self._raw[self._raw_size] = unit[offset]
            self._raw_ids[self._raw_size] = record_id
            self._raw_rows[record_id] = self._raw_size
            self._raw_size += 1

    def _query_flat(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        live = self._raw[: self._raw_size].astype(np.float64)
        sims = live @ query
        ids = self._raw_ids[: self._raw_size]
        order = np.lexsort((ids, -sims))[:k]
        return ids[order], sims[order]

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _train(self) -> None:
        """Fit coarse + PQ codebooks on the flat buffer and encode it."""
        assert self._dim is not None
        vectors = self._raw[: self._raw_size].astype(np.float64)
        ids = self._raw_ids[: self._raw_size].copy()
        n = vectors.shape[0]
        rng = np.random.default_rng(self.seed)
        num_cells = min(self.num_cells, n)
        cluster = minibatch_kmeans if n > _MINIBATCH_ABOVE else kmeans
        coarse = cluster(vectors, num_cells, rng)
        self._centroids = coarse.centers
        self._pq.train(vectors - coarse.centers[coarse.labels])
        self._cell_ids = [
            np.empty(0, dtype=np.int64) for _ in range(coarse.centers.shape[0])
        ]
        self._cell_codes = [
            np.empty((0, self.num_subvectors), dtype=np.uint8)
            for _ in range(coarse.centers.shape[0])
        ]
        self._locations = {}
        # Encode through the same path later adds use, so build-then-add
        # and one-shot build produce identical cell contents.
        self._raw = np.zeros((0, self._dim), dtype=np.float32)
        self._raw_ids = np.empty(0, dtype=np.int64)
        self._raw_size = 0
        self._raw_rows = {}
        self._insert_trained(ids, vectors)

    def _insert_trained(self, ids: np.ndarray, unit: np.ndarray) -> None:
        assert self._centroids is not None
        labels = _squared_distances(unit, self._centroids).argmin(axis=1)
        codes = self._pq.encode(unit - self._centroids[labels])
        for cell in np.unique(labels):
            rows = np.flatnonzero(labels == cell)
            start = self._cell_ids[cell].shape[0]
            self._cell_ids[cell] = np.concatenate([self._cell_ids[cell], ids[rows]])
            self._cell_codes[cell] = np.concatenate(
                [self._cell_codes[cell], codes[rows]]
            )
            for offset, record_id in enumerate(ids[rows].tolist()):
                self._locations[record_id] = (int(cell), start + offset)

    def _query_trained(
        self, query: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        assert self._centroids is not None
        cell_d2 = ((self._centroids - query) ** 2).sum(axis=1)
        probe = np.argsort(cell_d2)[: min(self.nprobe, cell_d2.shape[0])]
        sub_index = np.arange(self.num_subvectors)
        found_ids: List[np.ndarray] = []
        found_scores: List[np.ndarray] = []
        for cell in probe.tolist():
            members = self._cell_ids[cell]
            if not members.size:
                continue
            tables = self._pq.distance_tables(query - self._centroids[cell])
            d2 = tables[sub_index[None, :], self._cell_codes[cell]].sum(axis=1)
            found_ids.append(members)
            # For unit-norm q and x̂: cos(q, x̂) = 1 - ||q - x̂||² / 2.
            found_scores.append(1.0 - 0.5 * d2)
        if not found_ids:
            return np.empty(0, dtype=np.int64), np.empty(0)
        ids = np.concatenate(found_ids)
        scores = np.concatenate(found_scores)
        order = np.lexsort((ids, -scores))[:k]
        return ids[order], scores[order]

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def _delete(self, ids: List[int]) -> None:
        for record_id in ids:
            row = self._raw_rows.pop(record_id, None)
            if row is not None:
                last = self._raw_size - 1
                if row != last:
                    moved = int(self._raw_ids[last])
                    self._raw[row] = self._raw[last]
                    self._raw_ids[row] = moved
                    self._raw_rows[moved] = row
                self._raw_size -= 1
                continue
            cell, position = self._locations.pop(record_id)
            members = self._cell_ids[cell]
            last = members.shape[0] - 1
            if position != last:
                moved = int(members[last])
                members[position] = moved
                self._cell_codes[cell][position] = self._cell_codes[cell][last]
                self._locations[moved] = (cell, position)
            self._cell_ids[cell] = members[:last]
            self._cell_codes[cell] = self._cell_codes[cell][:last]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Persist codebooks + codes to an ``.npz`` archive (see
        :func:`repro.core.persistence.save_ivfpq_index`)."""
        from ..core.persistence import save_ivfpq_index

        return save_ivfpq_index(path, self)

    @classmethod
    def load(cls, path) -> "IVFPQBackend":
        """Rebuild a backend from :meth:`save` output; corrupt archives
        raise ``ValueError`` naming the path."""
        from ..core.persistence import load_ivfpq_index

        return load_ivfpq_index(path)
