"""Checkpointing: save/load module state dicts as ``.npz`` archives.

Two layers:

* :func:`save_state_archive` / :func:`load_state_archive` — the generic
  primitive: a named bundle of numpy arrays plus a JSON metadata blob in
  one ``.npz`` file.  The training engine builds its full-state trainer
  checkpoints (model + optimizer moments + RNG stream states) on it.
* :func:`save_checkpoint` / :func:`load_checkpoint` — the module-level
  convenience wrappers (weights + metadata only).

Every save is atomic (:func:`atomic_replace`): a crash mid-write leaves
the previous file in place.  Loading is defensive: a corrupt, truncated,
or non-checkpoint file raises :class:`ValueError` naming the path —
never an opaque ``zipfile`` traceback and never a silently garbage state
dict.
"""

from __future__ import annotations

import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from .module import Module

PathLike = Union[str, Path]

_METADATA_KEY = "__metadata__"


def _npz_path(path: Path) -> Path:
    """The path ``np.savez`` actually writes (it appends ``.npz``)."""
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


@contextmanager
def atomic_replace(path: Path) -> Iterator[Path]:
    """Yield a sibling temp path to write ``path``'s new content to.

    When the block returns, the temp file is synced and ``os.replace``
    swaps it in (same filesystem), so a reader — or a reopen after a
    crash mid-write — sees the old file or the complete new one, never a
    torn mix.  If the block raises, the temp file is removed and ``path``
    is untouched.  The temp name keeps ``path``'s suffix, so writers that
    append one (``np.savez``) write where they are told.
    """
    temp = path.with_name(path.name + ".tmp" + path.suffix)
    try:
        yield temp
        descriptor = os.open(temp, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
        os.replace(temp, path)
    finally:
        if temp.exists():  # only on failure before the rename
            temp.unlink()


def save_state_archive(
    path: PathLike,
    arrays: Dict[str, np.ndarray],
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write named arrays plus a JSON ``metadata`` dict to one ``.npz``.

    Array names must not collide with the reserved metadata key.  The
    write goes through :func:`atomic_replace`, so a crash mid-write never
    leaves a truncated archive under the final name.
    """
    path = _npz_path(Path(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    if _METADATA_KEY in arrays:
        raise ValueError(f"array name {_METADATA_KEY!r} is reserved")
    payload: Dict[str, np.ndarray] = dict(arrays)
    payload[_METADATA_KEY] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    )
    with atomic_replace(path) as temp:
        np.savez(temp, **payload)
    return path


def load_state_archive(path: PathLike) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read ``(arrays, metadata)`` written by :func:`save_state_archive`.

    Raises ``FileNotFoundError`` when the file does not exist and
    ``ValueError`` (naming the path) when it exists but is corrupt,
    truncated, or not a state archive.
    """
    path = Path(path)
    if not path.exists() and _npz_path(path).exists():
        path = _npz_path(path)
    try:
        # Own the handle: numpy leaves it dangling when the archive turns
        # out to be garbage, which would leak a ResourceWarning.
        with open(path, "rb") as handle:
            with np.load(handle) as archive:
                if _METADATA_KEY not in archive.files:
                    raise KeyError(_METADATA_KEY)
                arrays = {
                    key: archive[key]
                    for key in archive.files
                    if key != _METADATA_KEY
                }
                metadata_raw = archive[_METADATA_KEY].tobytes().decode("utf-8")
        metadata = json.loads(metadata_raw)
        if not isinstance(metadata, dict):
            raise ValueError("metadata is not a JSON object")
    except FileNotFoundError:
        raise
    except (
        OSError,
        EOFError,
        ValueError,
        KeyError,
        zipfile.BadZipFile,
        UnicodeDecodeError,
        json.JSONDecodeError,
    ) as error:
        raise ValueError(
            f"corrupt or unreadable checkpoint {path}: {error}"
        ) from error
    return arrays, metadata


def save_checkpoint(
    module: Module, path: PathLike, metadata: Optional[Dict[str, Any]] = None
) -> Path:
    """Write a module's weights (and optional JSON metadata) to ``path``.

    Weights are stored uncompressed for fast reload; metadata (e.g. the
    tokenizer vocabulary hash or config dict) rides along as a JSON string.
    """
    state = module.state_dict()
    arrays = {f"param::{k}": v for k, v in state.items()}
    return save_state_archive(path, arrays, metadata)


def load_checkpoint(module: Module, path: PathLike) -> Dict[str, Any]:
    """Load weights saved by :func:`save_checkpoint`; returns the metadata.

    Raises ``ValueError`` on corrupt/truncated archives or files that are
    not checkpoints, and ``KeyError`` (from ``load_state_dict``) when the
    parameter set does not match ``module``.
    """
    arrays, metadata = load_state_archive(path)
    load_module_state(module, arrays)
    return metadata


def load_module_state(module: Module, arrays: Dict[str, np.ndarray]) -> None:
    """Load the weights among a checkpoint's ``arrays`` into ``module``.

    For callers that read the archive themselves with
    :func:`load_state_archive` (to build ``module`` from its metadata
    first) instead of opening it twice.
    """
    module.load_state_dict(
        {
            key[len("param::") :]: value
            for key, value in arrays.items()
            if key.startswith("param::")
        }
    )
