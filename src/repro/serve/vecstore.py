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

A row's id is its position: :meth:`append` adds rows ``len(store)``
onwards, rows never move, and the rows survive :meth:`flush` +
:meth:`open` across processes.

On-disk layout (one directory per store)::

    <path>/meta.json     dim, dtype, row count, format version
    <path>/vectors.dat   raw (N, dim) buffer in the storage dtype
    <path>/scales.dat    float32 per-row scale (int8 stores only)

A store written before rows were their own ids also has an
``ids.dat`` (int64 per row); it opens when those ids are ``0..n-1``.

Every :meth:`open` failure mode — missing files, malformed JSON, a
truncated data file, an unknown dtype, an ``ids.dat`` that is not
``0..n-1`` — raises :class:`ValueError` naming the path (the contract
shared with ``core.persistence``).

>>> store = MemmapVectorStore.create(tmp / "corpus", dim=48, dtype="int8")
>>> store.append(vectors)                 # quantize + append as rows 0..N-1
>>> rows = store.get(range(100))          # dequantized float32 rows
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
    """Append-only on-disk vector storage, addressed by row.

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
    ) -> None:
        self.path = Path(path)
        self.dim = dim
        self.dtype = dtype
        self._size = size
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
        for name in (_VECTORS, _SCALES):
            (path / name).write_bytes(b"")
        store = cls(path, dim, dtype, 0)
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
        expected = {_VECTORS: size * dim * STORE_DTYPES[dtype].itemsize}
        if dtype == "int8":
            expected[_SCALES] = size * 4
        for name, length in expected.items():
            file = path / name
            if not file.is_file() or file.stat().st_size < length:
                raise ValueError(
                    f"corrupt or truncated vector store file {file}: "
                    f"expected >= {length} bytes"
                )
        # An older store's ids.dat holds rows 0..k-1 (k < size once this
        # version has appended to it); any other ids cannot be rows.
        ids_file = path / _IDS
        if ids_file.is_file():
            ids = np.fromfile(ids_file, dtype=np.int64)[:size]
            if not np.array_equal(ids, np.arange(ids.size)):
                raise ValueError(f"vector store ids are not rows 0..n-1 in {ids_file}")
        return cls(path, dim, dtype, size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

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
    def append(self, vectors: np.ndarray) -> None:
        """Append ``vectors`` as rows ``len(self)`` onwards."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) vectors")
        if not vectors.shape[0]:
            return
        if self.dtype == "int8":
            codes, scales = quantize_rows(vectors)
            self._append_file(_SCALES, scales.tobytes(), 4)
            payload = codes
        else:
            payload = vectors.astype(STORE_DTYPES[self.dtype])
        row_bytes = self.dim * STORE_DTYPES[self.dtype].itemsize
        self._append_file(_VECTORS, np.ascontiguousarray(payload).tobytes(), row_bytes)
        self._size += vectors.shape[0]
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

    def _copy_rows(self, path: PathLike, rows: Sequence[int]) -> "MemmapVectorStore":
        """A new store at ``path`` holding ``rows`` as its rows 0..n-1,
        copied as stored (int8 codes and scales are never requantized), so
        they read back byte-equal; ``meta.json`` is written last."""
        rows = self._check_rows(rows)
        path = Path(path)
        path.mkdir(parents=True)
        payloads = {
            _VECTORS: self._vectors[rows],
            _SCALES: self._scales[rows] if self._scales is not None else rows[:0],
        }
        for name, payload in payloads.items():
            (path / name).write_bytes(np.ascontiguousarray(payload).tobytes())
        copy = MemmapVectorStore(path, self.dim, self.dtype, rows.size)
        copy.flush()
        return copy

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, rows: Sequence[int]) -> np.ndarray:
        """The given rows: float64 for a float64 store, dequantized
        float32 otherwise (a row outside ``[0, len)`` raises ``KeyError``)."""
        return self._rows(self._check_rows(rows))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_rows(self, rows: Sequence[int]) -> np.ndarray:
        row_array = np.asarray(list(rows), dtype=np.int64)
        outside = row_array[(row_array < 0) | (row_array >= self._size)]
        if outside.size:
            raise KeyError(f"unknown rows: {outside.tolist()}")
        return row_array

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
