"""Shared utilities: seeded RNG management, timers, array buffers,
content fingerprints."""

from .arrays import grow_array
from .fingerprint import text_fingerprint
from .rng import RngStream, spawn_rng
from .timing import Timer

__all__ = [
    "RngStream",
    "Timer",
    "grow_array",
    "spawn_rng",
    "text_fingerprint",
]
