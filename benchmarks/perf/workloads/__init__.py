"""The four workloads, by name.  Each class builds its inputs and program
state in ``__init__`` (set-up), then offers ``install_shims`` /
``measure`` / ``check`` / ``layer_metrics`` to the worker."""

from __future__ import annotations

import importlib

_CLASSES = {
    "train_em": ("train_em", "TrainEM"),
    "serve_hot": ("serve_hot", "ServeHot"),
    "stream_mixed": ("stream_mixed", "StreamMixed"),
    "lake_churn": ("lake_churn", "LakeChurn"),
}


def load(name: str):
    """The workload class for ``name`` (imports only that workload)."""
    module, attribute = _CLASSES[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), attribute)
