"""Weight initialization helpers (seeded, numpy-based)."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def xavier_uniform(
    shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform init for (fan_in, fan_out)-shaped weights."""
    fan_in, fan_out = _fans(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def normal(
    shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.02
) -> np.ndarray:
    """BERT-style truncated-ish normal init (plain normal, std=0.02)."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    fan_out = shape[-1]
    return fan_in, fan_out
