"""Full-state trainer checkpoints: everything a byte-identical resume needs.

A model-weights checkpoint is not enough to resume training exactly: the
optimizer's moment buffers, the LR-schedule position, and — crucially in
a library where every stochastic component draws from an explicit
generator — the state of *every* RNG stream (including the dropout
generators living inside the model) all shape future updates.  This
module serializes the lot into one ``.npz`` archive via
:func:`repro.nn.serialization.save_state_archive`, inheriting its
defensive loading contract: corrupt or truncated files raise a clear
``ValueError`` naming the path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module
from ..nn.optim import LRSchedule, Optimizer
from ..nn.serialization import PathLike, load_state_archive, save_state_archive
from ..utils import RngStream

#: Archive format tag; bumped on incompatible layout changes.
FORMAT = "sudowoodo-trainer-v1"

#: The file a trainer with a ``checkpoint_dir`` writes after every epoch.
TRAINER_STATE_FILE = "trainer_state.npz"

_MODEL_PREFIX = "model::"
_OPT_PREFIX = "optimizer{index}::"


def _named_modules(module: Module, prefix: str = "") -> Iterator[Tuple[str, Module]]:
    yield prefix, module
    for name, value in vars(module).items():
        if isinstance(value, Module):
            yield from _named_modules(value, f"{prefix}{name}.")
        elif isinstance(value, (list, tuple)):
            for index, element in enumerate(value):
                if isinstance(element, Module):
                    yield from _named_modules(element, f"{prefix}{name}.{index}.")


def module_generators(module: Module) -> Dict[str, np.random.Generator]:
    """Every ``np.random.Generator`` attribute in the module tree (e.g.
    dropout noise generators), keyed by dotted path.  A generator shared
    between submodules appears once per path."""
    return {
        f"{path}{name}": value
        for path, submodule in _named_modules(module)
        for name, value in vars(submodule).items()
        if isinstance(value, np.random.Generator)
    }


def module_rng_states(module: Module) -> Dict[str, Any]:
    """Bit-generator states of :func:`module_generators`, keyed by path.

    Generators shared between submodules appear once per path with equal
    states, so restoring is idempotent.
    """
    return {
        path: generator.bit_generator.state
        for path, generator in module_generators(module).items()
    }


def restore_module_rng_states(module: Module, states: Dict[str, Any]) -> None:
    """Restore :func:`module_rng_states` output into ``module`` in place.

    Raises ``ValueError`` when the module's generator paths do not match
    the snapshot — a structural drift that would silently desynchronize
    the noise streams.
    """
    own = module_generators(module)
    if set(own) != set(states):
        missing = sorted(set(own) - set(states))
        unexpected = sorted(set(states) - set(own))
        raise ValueError(
            "module RNG state mismatch: "
            f"missing={missing} unexpected={unexpected}"
        )
    for path, generator in own.items():
        generator.bit_generator.state = states[path]


# ----------------------------------------------------------------------
# Trainer state archives
# ----------------------------------------------------------------------
def save_trainer_state(
    path: PathLike,
    *,
    model: Module,
    optimizers: Sequence[Optimizer],
    schedules: Sequence[LRSchedule],
    state_values: Dict[str, Any],
    rngs: Optional[RngStream] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write the full training state to ``path`` (atomically).

    ``state_values`` carries the engine counters (epoch, step, losses);
    ``metadata`` is free-form extra JSON.
    """
    arrays: Dict[str, np.ndarray] = {
        f"{_MODEL_PREFIX}{name}": value
        for name, value in model.state_dict().items()
    }
    optimizer_values: List[Dict[str, Any]] = []
    for index, optimizer in enumerate(optimizers):
        opt_state = optimizer.state_dict()
        optimizer_values.append(opt_state["values"])
        prefix = _OPT_PREFIX.format(index=index)
        for key, value in opt_state["arrays"].items():
            arrays[f"{prefix}{key}"] = value

    meta: Dict[str, Any] = {
        "format": FORMAT,
        "state": dict(state_values),
        "optimizers": optimizer_values,
        "schedules": [schedule.state_dict() for schedule in schedules],
        "model_rngs": module_rng_states(model),
        "rng_stream": rngs.state_dict() if rngs is not None else None,
        "metadata": dict(metadata or {}),
    }
    save_state_archive(path, arrays, meta)


def load_trainer_state(
    path: PathLike,
    *,
    model: Module,
    optimizers: Sequence[Optimizer],
    schedules: Sequence[LRSchedule],
    rngs: Optional[RngStream] = None,
) -> Dict[str, Any]:
    """Restore a :func:`save_trainer_state` archive in place.

    Returns ``{"state": ..., "metadata": ...}`` for the caller (the
    engine restores its counters).  Entries this version no longer
    writes (the ``callbacks`` list and the ``program`` state of older
    archives) are ignored.  Raises
    ``FileNotFoundError`` when the file is absent and ``ValueError`` when
    it is corrupt, has a different format tag, or does not match the
    trainer's structure.
    """
    arrays, meta = load_state_archive(path)
    if meta.get("format") != FORMAT:
        raise ValueError(
            f"corrupt or unreadable checkpoint {path}: not a trainer state "
            f"archive (format={meta.get('format')!r})"
        )
    optimizer_values = meta.get("optimizers", [])
    if len(optimizer_values) != len(optimizers):
        raise ValueError(
            f"checkpoint {path} holds {len(optimizer_values)} optimizer "
            f"state(s), trainer has {len(optimizers)}"
        )
    schedule_values = meta.get("schedules", [])
    if len(schedule_values) != len(schedules):
        raise ValueError(
            f"checkpoint {path} holds {len(schedule_values)} schedule "
            f"state(s), trainer has {len(schedules)}"
        )

    model.load_state_dict(
        {
            key[len(_MODEL_PREFIX) :]: value
            for key, value in arrays.items()
            if key.startswith(_MODEL_PREFIX)
        }
    )
    for index, optimizer in enumerate(optimizers):
        prefix = _OPT_PREFIX.format(index=index)
        optimizer.load_state_dict(
            {
                "values": optimizer_values[index],
                "arrays": {
                    key[len(prefix) :]: value
                    for key, value in arrays.items()
                    if key.startswith(prefix)
                },
            }
        )
    for schedule, values in zip(schedules, schedule_values):
        schedule.load_state_dict(values)
    restore_module_rng_states(model, meta.get("model_rngs", {}))
    if rngs is not None and meta.get("rng_stream") is not None:
        rngs.load_state_dict(meta["rng_stream"])
    return {
        "state": meta.get("state", {}),
        "metadata": meta.get("metadata", {}),
    }
