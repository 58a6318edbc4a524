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
