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

Lifecycle: the backend starts in a **flat** state — an
:class:`~repro.serve.backends.ExactBackend` over float32 unit rows that
answers queries exactly, the contract-compliant behaviour for the tiny
corpora the test-suite feeds every backend.  The first time the live
corpus reaches ``train_threshold`` rows, it trains the coarse + PQ
codebooks on those rows (in row order), encodes the corpus, and drops
the flat backend; later ``add``\\ s encode directly.  ``remove``
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
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import load_state_archive, save_state_archive
from ..text.kmeans import _squared_distances, assign_clusters, kmeans, minibatch_kmeans
from ..text.similarity import normalize_rows
from .backends import ANNBackend, ExactBackend, _check_ids_vectors, _check_remove_ids

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
        serves exact results from a float32 :class:`ExactBackend`.
    seed:
        Seeds both k-means trainings; fixed seed = identical index.
    """

    name = "ivfpq"

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
        # Flat (pre-training) state: the rows training will read.
        self._flat = ExactBackend("float32")
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
        return len(self._locations) if self.trained else len(self._flat)

    def memory_bytes(self) -> int:
        """In-RAM bytes of the vector payload (codes or the flat rows and
        their ids, plus centroids and codebooks) — the number the
        million-scale benchmark compares against a dense float store."""
        if not self.trained:
            return len(self._flat) * ((self._dim or 0) * 4 + 8)
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
        if vectors.shape[0]:
            self.add(np.arange(vectors.shape[0], dtype=np.int64), vectors)
        return self

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "IVFPQBackend":
        vectors = np.asarray(vectors, dtype=np.float64)
        id_array = _check_ids_vectors(ids, vectors, self._dim)
        if self._dim is None:
            self.build(np.zeros((0, vectors.shape[1])))
        if not id_array.size:
            return self
        # Upsert semantics: an existing id is dropped before re-insert,
        # so a replaced row moves to the end of the flat rows.
        if self.trained:
            existing = [i for i in id_array.tolist() if i in self._locations]
            if existing:
                self._delete(existing)
            self._insert_trained(id_array, normalize_rows(vectors))
            return self
        existing = id_array[np.isin(id_array, self._flat.rows()[0])]
        if existing.size:
            self._flat.remove(existing)
        self._flat.add(id_array, vectors)
        if len(self._flat) >= self.train_threshold:
            self._train()
        return self

    def remove(self, ids: Sequence[int]) -> "IVFPQBackend":
        if self._dim is None:
            raise RuntimeError(f"{self.name} backend: call build() before remove()")
        if not self.trained:
            self._flat.remove(ids)
            return self
        id_array = _check_remove_ids(ids)
        # Validate the whole batch first so a bad id fails atomically.
        missing = [int(i) for i in id_array if int(i) not in self._locations]
        if missing:
            raise KeyError(f"unknown record ids: {missing}")
        self._delete(id_array.tolist())
        return self

    def rebuild(self) -> "IVFPQBackend":
        # Deletes are eager swap-deletes — no tombstones to compact.
        return self

    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if k <= 0:
            raise ValueError("k must be positive")
        if self._dim is None:
            raise RuntimeError(f"{self.name} backend: call build() before query()")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("expected (Q, dim) queries")
        if not self.trained:
            return self._flat.query(queries, k)
        num_queries = queries.shape[0]
        indices = np.full((num_queries, k), -1, dtype=np.int64)
        scores = np.full((num_queries, k), -np.inf)
        if len(self) == 0 or num_queries == 0:
            return indices, scores
        unit = normalize_rows(queries)
        for row in range(num_queries):
            found_ids, found_scores = self._query_trained(unit[row], k)
            indices[row, : found_ids.size] = found_ids
            scores[row, : found_ids.size] = found_scores
        return indices, scores

    def _reset(self, dim: int) -> None:
        self._dim = dim
        self._flat = ExactBackend("float32").build(np.zeros((0, dim)))
        self._centroids = None
        self._cell_ids = []
        self._cell_codes = []
        self._locations = {}
        self._pq = ProductQuantizer(self.num_subvectors, self.bits, seed=self.seed)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _train(self) -> None:
        """Fit coarse + PQ codebooks on the flat rows and encode them."""
        assert self._dim is not None
        flat_ids, flat_rows = self._flat.rows()
        ids = flat_ids.copy()
        vectors = flat_rows.astype(np.float64)
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
        self._flat = ExactBackend("float32").build(np.zeros((0, self._dim)))
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
        """Swap-delete trained records out of their cells."""
        for record_id in ids:
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
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the index to one ``.npz`` archive, written atomically.

        The archive bundles the coarse centroids, the PQ codebooks, and
        the per-cell codes (flattened in cell order with a ``cell_sizes``
        split vector); a still-flat (untrained) index stores its float32
        rows and their ids instead.  :meth:`load` round-trips either state.
        """
        if self._dim is None:
            raise ValueError("cannot save an unbuilt IVF-PQ index; call build() first")
        metadata: Dict[str, Any] = {
            "format_version": 1,
            "kind": "ivfpq",
            "dim": self._dim,
            "num_cells": self.num_cells,
            "num_subvectors": self.num_subvectors,
            "bits": self.bits,
            "nprobe": self.nprobe,
            "seed": self.seed,
            "train_threshold": self.train_threshold,
            "trained": self.trained,
        }
        payload: Dict[str, np.ndarray] = {}
        if self.trained:
            payload["centroids"] = self._centroids
            payload["codebooks"] = self._pq.codebooks
            payload["cell_sizes"] = np.asarray(
                [ids.shape[0] for ids in self._cell_ids], dtype=np.int64
            )
            payload["flat_ids"] = np.concatenate(self._cell_ids)
            payload["flat_codes"] = np.concatenate(self._cell_codes)
        else:
            payload["raw_ids"], payload["raw_vectors"] = self._flat.rows()
        return save_state_archive(path, payload, metadata)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "IVFPQBackend":
        """Rebuild an index written by :meth:`save`.

        Corrupt, truncated, or inconsistent archives (mismatched cell
        sizes, wrong code width, unknown format version) raise
        ``ValueError`` naming the path; a missing one ``FileNotFoundError``.
        """
        arrays, metadata = load_state_archive(path)
        if metadata.get("format_version") != 1 or metadata.get("kind") != "ivfpq":
            raise ValueError(f"unsupported IVF-PQ index format in {path}")
        try:
            dim = int(metadata["dim"])
            backend = cls(
                num_cells=int(metadata["num_cells"]),
                num_subvectors=int(metadata["num_subvectors"]),
                bits=int(metadata["bits"]),
                nprobe=int(metadata["nprobe"]),
                train_threshold=int(metadata["train_threshold"]),
                seed=int(metadata["seed"]),
            )
            backend._reset(dim)
            if metadata["trained"]:
                centroids = np.asarray(arrays["centroids"], dtype=np.float64)
                codebooks = np.asarray(arrays["codebooks"], dtype=np.float64)
                cell_sizes = np.asarray(arrays["cell_sizes"], dtype=np.int64)
                flat_ids = np.asarray(arrays["flat_ids"], dtype=np.int64)
                flat_codes = np.asarray(arrays["flat_codes"], dtype=np.uint8)
            else:
                raw_ids = np.asarray(arrays["raw_ids"], dtype=np.int64)
                raw_vectors = np.asarray(arrays["raw_vectors"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"corrupt IVF-PQ index {path}: {error}") from error
        if not metadata["trained"]:
            if raw_vectors.ndim != 2 or raw_vectors.shape != (raw_ids.shape[0], dim):
                raise ValueError(
                    f"corrupt IVF-PQ index {path}: raw buffer shape "
                    f"{raw_vectors.shape} does not match {raw_ids.shape[0]} ids"
                )
            if raw_ids.size:
                backend.add(raw_ids, raw_vectors)
            return backend
        if (
            centroids.ndim != 2
            or centroids.shape[1] != dim
            or cell_sizes.shape[0] != centroids.shape[0]
            or (cell_sizes < 0).any()
            or int(cell_sizes.sum()) != flat_ids.shape[0]
            or flat_codes.shape != (flat_ids.shape[0], backend.num_subvectors)
            or codebooks.ndim != 3
            or codebooks.shape[0] != backend.num_subvectors
            or codebooks.shape[2] * backend.num_subvectors != dim
        ):
            raise ValueError(f"corrupt IVF-PQ index {path}: inconsistent array shapes")
        backend._centroids = centroids
        backend._pq.codebooks = codebooks
        offsets = np.concatenate([[0], np.cumsum(cell_sizes)])
        for cell in range(centroids.shape[0]):
            ids = flat_ids[offsets[cell] : offsets[cell + 1]].copy()
            backend._cell_ids.append(ids)
            backend._cell_codes.append(
                flat_codes[offsets[cell] : offsets[cell + 1]].copy()
            )
            for position, record_id in enumerate(ids.tolist()):
                if record_id in backend._locations:
                    raise ValueError(
                        f"corrupt IVF-PQ index {path}: duplicate record id {record_id}"
                    )
                backend._locations[record_id] = (cell, position)
        return backend
