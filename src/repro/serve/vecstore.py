"""Memory-mapped, quantized on-disk vector storage.

:class:`EmbeddingStore` keeps every cached vector as an in-RAM array,
which caps corpus size far below the "millions of records" the serve
layer targets.  :class:`MemmapVectorStore` is the disk-backed
counterpart: vectors live in a flat binary file accessed through
``np.memmap`` (the OS pages rows in on demand, so resident memory stays
bounded by the working set, not the corpus), and the element type is a
knob — ``float64`` / ``float32`` / ``float16`` store rows verbatim at
8/4/2 bytes per dimension, ``int8`` applies per-row scalar quantization
(max-abs scale) for an 8x reduction over float64 at ~0.4% reconstruction
error on unit-norm embeddings.

The store honours the same **stable-id contract** as
:class:`EmbeddingStore`: callers append vectors under arbitrary
non-negative integer ids, ids never shift as the file grows, and the
full assignment survives :meth:`flush` + :meth:`open` across processes.

On-disk layout (one directory per store)::

    <path>/meta.json     dim, dtype, row count, format version
    <path>/vectors.dat   raw (N, dim) buffer in the storage dtype
    <path>/ids.dat       int64 stable id per row
    <path>/scales.dat    float32 per-row scale (int8 stores only)

Every :meth:`open` failure mode — missing files, malformed JSON, a
truncated data file, an unknown dtype — raises :class:`ValueError`
naming the path (the contract shared with ``core.persistence``).

>>> store = MemmapVectorStore.create(tmp / "corpus", dim=48, dtype="int8")
>>> store.append(ids, vectors)            # quantize + append, ids stay stable
>>> rows = store.get(ids[:100])           # dequantized float32 rows
>>> store.flush()
>>> reopened = MemmapVectorStore.open(tmp / "corpus")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..core.persistence import atomic_write_text

PathLike = Union[str, Path]

#: Supported storage element types and their bytes/value.
STORE_DTYPES: Dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
    "float16": np.dtype(np.float16),
    "int8": np.dtype(np.int8),
}

_FORMAT_VERSION = 1
_META = "meta.json"
_VECTORS = "vectors.dat"
_IDS = "ids.dat"
_SCALES = "scales.dat"


def quantize_rows(vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar-quantize rows to int8 with per-row max-abs scales.

    Returns ``(codes, scales)`` with ``codes[i] ~= vectors[i] / scales[i]``
    rounded to the int8 range; an all-zero row gets scale 0 and decodes
    back to exact zeros.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    peaks = np.abs(vectors).max(axis=1)
    scales = (peaks / 127.0).astype(np.float32)
    safe = np.where(scales > 0, scales, 1.0).astype(np.float64)
    codes = np.clip(np.rint(vectors / safe[:, None]), -127, 127).astype(np.int8)
    return codes, scales


def dequantize_rows(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Invert :func:`quantize_rows` back to float32 rows."""
    return codes.astype(np.float32) * np.asarray(scales, dtype=np.float32)[:, None]


class MemmapVectorStore:
    """Append-only on-disk vector storage with stable integer ids.

    Use :meth:`create` for a new store and :meth:`open` to reattach to an
    existing one; the constructor is internal.  Rows are read back as
    float32 (dequantized for ``int8``), except that a ``float64`` store
    returns its rows exactly, as float64.
    """

    def __init__(
        self,
        path: Path,
        dim: int,
        dtype: str,
        size: int,
        ids: np.ndarray,
    ) -> None:
        self.path = Path(path)
        self.dim = dim
        self.dtype = dtype
        self._size = size
        self._ids = ids
        self._id_to_row: Dict[int, int] = {
            int(record_id): row for row, record_id in enumerate(ids.tolist())
        }
        self._vectors = self._map(_VECTORS, STORE_DTYPES[dtype], (size, dim))
        self._scales = (
            self._map(_SCALES, np.dtype(np.float32), (size,))
            if dtype == "int8"
            else None
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, path: PathLike, dim: int, dtype: str = "float32"
    ) -> "MemmapVectorStore":
        """Initialise an empty store directory at ``path``."""
        if dim < 1:
            raise ValueError("dim must be positive")
        if dtype not in STORE_DTYPES:
            raise ValueError(
                f"unknown store dtype {dtype!r}; "
                f"valid options: {', '.join(sorted(STORE_DTYPES))}"
            )
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        for name in (_VECTORS, _IDS, _SCALES):
            (path / name).write_bytes(b"")
        store = cls(path, dim, dtype, 0, np.empty(0, dtype=np.int64))
        store.flush()
        return store

    @classmethod
    def open(cls, path: PathLike) -> "MemmapVectorStore":
        """Reattach to a store directory written by :meth:`create`.

        Corrupt, truncated, or wrong-format stores raise ``ValueError``
        naming the path — never an opaque JSON/numpy traceback.  Opening
        never writes: data past the committed row count (an append that
        crashed before its :meth:`flush`) is ignored, and the next
        :meth:`append` overwrites it.
        """
        path = Path(path)
        meta_path = path / _META
        if not meta_path.is_file():
            raise ValueError(f"not a vector store (no {_META}): {path}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"corrupt vector store metadata {meta_path}: {error}") from error
        if not isinstance(meta, dict) or meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported vector store format in {meta_path}")
        try:
            dim = int(meta["dim"])
            dtype = str(meta["dtype"])
            size = int(meta["size"])
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"corrupt vector store metadata {meta_path}: {error}") from error
        if dtype not in STORE_DTYPES:
            raise ValueError(f"unknown store dtype {dtype!r} in {meta_path}")
        if dim < 1 or size < 0:
            raise ValueError(f"corrupt vector store metadata {meta_path}")
        expected = {
            _VECTORS: size * dim * STORE_DTYPES[dtype].itemsize,
            _IDS: size * 8,
        }
        if dtype == "int8":
            expected[_SCALES] = size * 4
        for name, length in expected.items():
            file = path / name
            if not file.is_file() or file.stat().st_size < length:
                raise ValueError(
                    f"corrupt or truncated vector store file {file}: "
                    f"expected >= {length} bytes"
                )
        ids = (
            np.fromfile(path / _IDS, dtype=np.int64, count=size)
            if size
            else np.empty(0, dtype=np.int64)
        )
        if np.unique(ids).size != ids.size or (ids.size and (ids < 0).any()):
            raise ValueError(f"corrupt vector store ids in {path / _IDS}")
        return cls(path, dim, dtype, size, ids)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def ids(self) -> np.ndarray:
        """Stable ids in row order (a copy; rows never shift)."""
        return self._ids[: self._size].copy()

    @property
    def nbytes(self) -> int:
        """On-disk vector payload bytes (the RSS the memmap saves)."""
        per_row = self.dim * STORE_DTYPES[self.dtype].itemsize
        if self.dtype == "int8":
            per_row += 4  # the per-row scale
        return self._size * per_row

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Append ``vectors`` under new stable ``ids`` (append-only: an
        id that is already stored raises ``ValueError``)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) vectors")
        id_array = np.asarray(list(ids), dtype=np.int64)
        if id_array.size != vectors.shape[0]:
            raise ValueError(
                f"got {id_array.size} ids for {vectors.shape[0]} vectors"
            )
        if id_array.size and (id_array < 0).any():
            raise ValueError("record ids must be non-negative")
        if np.unique(id_array).size != id_array.size:
            raise ValueError("record ids must be unique within one append()")
        known = [int(i) for i in id_array if int(i) in self._id_to_row]
        if known:
            raise ValueError(f"ids already stored (store is append-only): {known}")
        if not id_array.size:
            return
        if self.dtype == "int8":
            codes, scales = quantize_rows(vectors)
            self._append_file(_SCALES, scales.tobytes(), 4)
            payload = codes
        else:
            payload = vectors.astype(STORE_DTYPES[self.dtype])
        row_bytes = self.dim * STORE_DTYPES[self.dtype].itemsize
        self._append_file(_VECTORS, np.ascontiguousarray(payload).tobytes(), row_bytes)
        self._append_file(_IDS, id_array.tobytes(), 8)
        start = self._size
        self._size += id_array.size
        self._ids = np.concatenate([self._ids, id_array])
        for offset, record_id in enumerate(id_array.tolist()):
            self._id_to_row[record_id] = start + offset
        self._remap()
        self.flush()

    def flush(self) -> None:
        """Persist metadata (the data files are already on disk)."""
        atomic_write_text(
            self.path / _META,
            json.dumps(
                {
                    "format_version": _FORMAT_VERSION,
                    "dim": self.dim,
                    "dtype": self.dtype,
                    "size": self._size,
                }
            ),
        )

    def _copy_rows(self, path: PathLike, ids: Sequence[int]) -> "MemmapVectorStore":
        """A new store at ``path`` with the rows of ``ids`` under ids 0..n-1,
        copied as stored (int8 codes and scales are never requantized), so
        they read back byte-equal; ``meta.json`` is written last."""
        rows = np.asarray([self._id_to_row[int(i)] for i in ids], dtype=np.int64)
        path = Path(path)
        path.mkdir(parents=True)
        payloads = {
            _VECTORS: self._vectors[rows],
            _IDS: np.arange(rows.size, dtype=np.int64),
            _SCALES: self._scales[rows] if self._scales is not None else rows[:0],
        }
        for name, payload in payloads.items():
            (path / name).write_bytes(np.ascontiguousarray(payload).tobytes())
        copy = MemmapVectorStore(path, self.dim, self.dtype, rows.size, payloads[_IDS])
        copy.flush()
        return copy

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, ids: Sequence[int]) -> np.ndarray:
        """The rows for ``ids``: float64 for a float64 store, dequantized
        float32 otherwise (unknown ids raise ``KeyError``)."""
        rows = []
        for record_id in ids:
            row = self._id_to_row.get(int(record_id))
            if row is None:
                raise KeyError(f"unknown record id: {int(record_id)}")
            rows.append(row)
        return self._rows(np.asarray(rows, dtype=np.int64))

    def batches(self, batch_size: int = 4096):
        """Iterate ``(ids, vectors)`` chunks in row order.

        The streaming read path: each chunk materialises only
        ``batch_size`` dequantized rows, so a full-corpus scan (an index
        build, a rebuild after retraining) never holds the whole matrix
        in RAM.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        for start in range(0, self._size, batch_size):
            stop = min(start + batch_size, self._size)
            rows = np.arange(start, stop, dtype=np.int64)
            yield self._ids[start:stop].copy(), self._rows(rows)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rows(self, rows: np.ndarray) -> np.ndarray:
        dtype = np.float64 if self.dtype == "float64" else np.float32
        if rows.size == 0:
            return np.zeros((0, self.dim), dtype=dtype)
        raw = self._vectors[rows]
        if self.dtype == "int8":
            assert self._scales is not None
            return dequantize_rows(raw, self._scales[rows])
        return np.asarray(raw, dtype=dtype)

    def _map(self, name: str, dtype: np.dtype, shape: Tuple[int, ...]):
        if 0 in shape or self._size == 0:
            return np.zeros(shape, dtype=dtype)
        return np.memmap(self.path / name, dtype=dtype, mode="r", shape=shape)

    def _append_file(self, name: str, payload: bytes, row_bytes: int) -> None:
        # Write right after the committed rows: bytes past them are a
        # torn append (written, never flushed) and must not sit in front.
        with open(self.path / name, "r+b") as handle:
            handle.seek(self._size * row_bytes)
            handle.truncate()
            handle.write(payload)

    def _remap(self) -> None:
        """Re-open the memmaps after the files grew."""
        self._vectors = self._map(
            _VECTORS, STORE_DTYPES[self.dtype], (self._size, self.dim)
        )
        if self.dtype == "int8":
            self._scales = self._map(_SCALES, np.dtype(np.float32), (self._size,))
