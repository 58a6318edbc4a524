"""Persistence for pre-trained Sudowoodo encoders and embedding caches.

An encoder checkpoint bundles the encoder + projector weights with the
fitted tokenizer vocabulary and the full config, so a pre-trained
representation model can be reused across tasks (the paper's
multi-purpose premise) without re-running contrastive pre-training.

A *vector cache* is the companion artifact for the serving layer: the
fingerprint-keyed embedding matrix an
:class:`~repro.serve.store.EmbeddingStore` accumulated, persisted so a
re-started service skips re-encoding a corpus entirely.  Caches may also
carry the store's stable record-id assignment (``ids``), which is what
lets a restarted service keep serving the ANN index ids it handed out
before the restart.

Every loader in this module raises :class:`ValueError` with the file
path on corrupt, truncated, or wrong-format input — never an opaque
``zipfile``/``pickle`` traceback, and never silent garbage.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import load_state_archive, save_checkpoint, save_state_archive
from ..nn.serialization import atomic_replace, load_module_state
from ..text import SPECIAL_TOKENS, Tokenizer
from .config import SudowoodoConfig
from .encoder import SudowoodoEncoder

PathLike = Union[str, Path]


def atomic_write_text(path: PathLike, text: str) -> None:
    """Replace ``path``'s content with ``text`` all-or-nothing.

    Written through :func:`~repro.nn.serialization.atomic_replace`: a
    reader, or a reopen after a crash mid-write, sees the old file or the
    new one, never a torn mix.  For small metadata files rewritten in
    place.
    """
    with atomic_replace(Path(path)) as temp:
        temp.write_text(text, encoding="utf-8")


def save_encoder(encoder: SudowoodoEncoder, path: PathLike) -> Path:
    """Write weights + tokenizer + config to a single ``.npz`` checkpoint."""
    metadata = {
        "config": encoder.config.to_dict(),
        "vocab": encoder.tokenizer.vocab,
        "format_version": 1,
    }
    return save_checkpoint(encoder, path, metadata=metadata)


def load_encoder(path: PathLike) -> SudowoodoEncoder:
    """Rebuild a :class:`SudowoodoEncoder` from :func:`save_encoder` output."""
    # One read: the metadata rebuilds the module skeleton, then the
    # weights load into it.
    arrays, metadata = load_state_archive(path)
    if metadata.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint format in {path}")
    # from_dict drops RETIRED_CONFIG_FIELDS: older checkpoints still load.
    config = SudowoodoConfig.from_dict(metadata["config"])
    vocab = {token: int(index) for token, index in metadata["vocab"].items()}
    for i, token in enumerate(SPECIAL_TOKENS):
        if vocab.get(token) != i:
            raise ValueError(f"corrupt tokenizer vocabulary in {path}")
    encoder = SudowoodoEncoder(config, Tokenizer(vocab))
    load_module_state(encoder, arrays)
    encoder.eval()
    return encoder


# ----------------------------------------------------------------------
# Vector caches (serving layer)
# ----------------------------------------------------------------------
def save_vector_cache(
    path: PathLike,
    fingerprints: Sequence[str],
    vectors: np.ndarray,
    metadata: Optional[Dict[str, Any]] = None,
    ids: Optional[Sequence[int]] = None,
) -> Path:
    """Write a fingerprint-keyed embedding matrix to one ``.npz`` file.

    ``fingerprints[i]`` keys ``vectors[i]``; ``metadata`` (JSON-serializable)
    typically records the embedding dimension and an encoder fingerprint so
    :func:`load_vector_cache` consumers can reject stale caches.  ``ids``
    optionally records the stable record id of each row (the serving
    layer's incremental-index state); omitted for plain caches.  The
    write is atomic: a crash mid-save leaves the previous file intact.
    """
    fingerprints = list(fingerprints)
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] != len(fingerprints):
        raise ValueError(
            f"expected ({len(fingerprints)}, dim) vectors, got {vectors.shape}"
        )
    payload = {
        "fingerprints": np.asarray(fingerprints, dtype=np.str_),
        "vectors": vectors,
    }
    if ids is not None:
        id_array = np.asarray(list(ids), dtype=np.int64)
        if id_array.shape != (len(fingerprints),):
            raise ValueError(
                f"expected {len(fingerprints)} ids, got shape {id_array.shape}"
            )
        payload["ids"] = id_array
    return save_state_archive(
        path, payload, {"format_version": 1, **(metadata or {})}
    )


def load_vector_cache(
    path: PathLike,
) -> Tuple[List[str], np.ndarray, Dict[str, Any]]:
    """Read ``(fingerprints, vectors, metadata)`` written by
    :func:`save_vector_cache`.

    When the file carries stable record ids they are surfaced as
    ``metadata["ids"]`` (a list aligned with ``fingerprints``); caches
    written without ids leave the key absent.  Corrupt or truncated
    files raise :class:`ValueError` naming the path.
    """
    arrays, metadata = load_state_archive(path)
    if metadata.get("format_version") != 1:
        raise ValueError(f"unsupported vector cache format in {path}")
    try:
        fingerprints = [str(key) for key in arrays["fingerprints"]]
        vectors = np.asarray(arrays["vectors"], dtype=np.float64)
        if "ids" in arrays:
            metadata["ids"] = [int(i) for i in arrays["ids"]]
    except (KeyError, ValueError) as error:
        raise ValueError(f"corrupt vector cache {path}: {error}") from error
    if vectors.ndim != 2 or vectors.shape[0] != len(fingerprints):
        raise ValueError(
            f"corrupt vector cache {path}: {len(fingerprints)} fingerprints "
            f"but vector shape {vectors.shape}"
        )
    return fingerprints, vectors, metadata


# ----------------------------------------------------------------------
# IVF-PQ indexes (serving layer)
# ----------------------------------------------------------------------
def save_ivfpq_index(path: PathLike, backend) -> Path:
    """Persist an :class:`~repro.serve.ivfpq.IVFPQBackend` to one ``.npz``.

    The archive bundles the coarse centroids, the PQ codebooks, and the
    per-cell codes (flattened in cell order with a ``cell_sizes`` split
    vector); a still-flat (untrained) backend stores its raw float32
    buffer instead.  :func:`load_ivfpq_index` round-trips either state.
    Written atomically, like :func:`save_vector_cache`.
    """
    if backend._dim is None:
        raise ValueError("cannot save an unbuilt IVF-PQ index; call build() first")
    metadata: Dict[str, Any] = {
        "format_version": 1,
        "kind": "ivfpq",
        "dim": backend._dim,
        "num_cells": backend.num_cells,
        "num_subvectors": backend.num_subvectors,
        "bits": backend.bits,
        "nprobe": backend.nprobe,
        "seed": backend.seed,
        "train_threshold": backend.train_threshold,
        "trained": backend.trained,
    }
    payload: Dict[str, np.ndarray] = {}
    if backend.trained:
        payload["centroids"] = backend._centroids
        payload["codebooks"] = backend._pq.codebooks
        payload["cell_sizes"] = np.asarray(
            [ids.shape[0] for ids in backend._cell_ids], dtype=np.int64
        )
        payload["flat_ids"] = (
            np.concatenate(backend._cell_ids)
            if backend._cell_ids
            else np.empty(0, dtype=np.int64)
        )
        payload["flat_codes"] = (
            np.concatenate(backend._cell_codes)
            if backend._cell_codes
            else np.empty((0, backend.num_subvectors), dtype=np.uint8)
        )
    else:
        payload["raw_ids"] = backend._raw_ids[: backend._raw_size]
        payload["raw_vectors"] = backend._raw[: backend._raw_size]
    return save_state_archive(path, payload, metadata)


def load_ivfpq_index(path: PathLike):
    """Rebuild an :class:`~repro.serve.ivfpq.IVFPQBackend` written by
    :func:`save_ivfpq_index`.

    Corrupt, truncated, or inconsistent archives (mismatched cell sizes,
    wrong code width, unknown format version) raise :class:`ValueError`
    naming the path.
    """
    from ..serve.ivfpq import IVFPQBackend, ProductQuantizer

    arrays, metadata = load_state_archive(path)
    if metadata.get("format_version") != 1 or metadata.get("kind") != "ivfpq":
        raise ValueError(f"unsupported IVF-PQ index format in {path}")
    try:
        dim = int(metadata["dim"])
        backend = IVFPQBackend(
            num_cells=int(metadata["num_cells"]),
            num_subvectors=int(metadata["num_subvectors"]),
            bits=int(metadata["bits"]),
            nprobe=int(metadata["nprobe"]),
            train_threshold=int(metadata["train_threshold"]),
            seed=int(metadata["seed"]),
        )
        backend._reset(dim)
        backend._built = True
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
    quantizer = ProductQuantizer(
        backend.num_subvectors, backend.bits, seed=backend.seed
    )
    quantizer.codebooks = codebooks
    backend._pq = quantizer
    offsets = np.concatenate([[0], np.cumsum(cell_sizes)])
    backend._cell_ids = []
    backend._cell_codes = []
    backend._locations = {}
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
