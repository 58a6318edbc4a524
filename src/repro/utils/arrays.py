"""Array helpers shared by the incremental index structures."""

from __future__ import annotations

import numpy as np


def grow_array(array: np.ndarray, used: int, needed: int) -> np.ndarray:
    """Capacity-doubling growth along axis 0, preserving dtype.

    Returns ``array`` unchanged while ``needed`` fits, otherwise a new
    buffer of capacity ``max(needed, 2 * capacity, 16)`` with the first
    ``used`` rows copied over and the spare rows zero-initialized.  The
    amortized-O(1) append pattern behind every mutable index here
    (exact rows, HNSW nodes).
    """
    capacity = array.shape[0]
    if needed <= capacity:
        return array
    new_capacity = max(needed, max(16, capacity * 2))
    grown = np.zeros((new_capacity,) + array.shape[1:], dtype=array.dtype)
    grown[:used] = array[:used]
    return grown
