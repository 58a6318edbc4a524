"""Bottom-k (KMV) set sketches for containment / overlap estimation.

Join discovery needs to ask "what fraction of column A's values also
appear in column B?" for every candidate column pair — exact set
intersection over millions of cells is O(rows) per pair and O(rows)
memory per column.  A *k-minimum-values* sketch keeps only the ``k``
smallest stable hashes of a column's distinct values: O(k) memory per
column, O(k) per pair comparison, and the standard KMV estimators for
union size, Jaccard similarity, and (from those) directional containment
``|A ∩ B| / |A|``.

Two properties matter for this repo's tests and rankings:

* **Determinism** — hashing is blake2b, not Python's salted ``hash``, so
  a sketch of the same values is byte-identical across processes and the
  join rankings it feeds are reproducible.
* **Exactness at small cardinality** — while a set has at most ``k``
  distinct values the sketch holds *all* of their hashes, so estimates
  degrade gracefully: small synthetic tables get exact containment, and
  only genuinely large columns pay the bounded KMV error (standard error
  ~``1/sqrt(k)``).

>>> a = ContainmentSketch.from_values(["x", "y", "z"])
>>> b = ContainmentSketch.from_values(["y", "z", "w"])
>>> round(a.containment(b), 2)   # |{y,z}| / |{x,y,z}|
0.67
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

__all__ = ["ContainmentSketch", "SketchTable"]

#: Hash width: 64 bits, normalized into [0, 1) for the KMV estimators.
_HASH_SPACE = float(1 << 64)

#: Padding for the pair kernel's sort; rows are cut by *length*, so a
#: genuine hash with this value is still counted.
_PAD = np.uint64((1 << 64) - 1)

#: Matrix cells one pair-kernel pass may hold (8 MiB of uint64).
_KERNEL_CELLS = 1 << 20


def _stable_hash(value: str) -> int:
    """A process-stable 64-bit hash of ``value`` (blake2b, not ``hash``)."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ContainmentSketch:
    """K-minimum-values sketch of a string set.

    Parameters
    ----------
    k:
        Sketch size: the number of smallest hashes retained.  Larger k
        trades memory for accuracy (relative error ~``1/sqrt(k)``); at
        the default 256 the estimates are within a few percent, and any
        set with <= k distinct values is sketched exactly.
    """

    __slots__ = ("k", "_hashes", "_distinct")

    def __init__(self, k: int = 256) -> None:
        if k < 1:
            raise ValueError("sketch size k must be >= 1")
        self.k = k
        # Sorted ascending, distinct, at most k entries.
        self._hashes = np.empty(0, dtype=np.uint64)
        self._distinct = 0  # exact while <= k, then lower bound

    @classmethod
    def from_values(cls, values: Iterable[str], k: int = 256) -> "ContainmentSketch":
        """Sketch every distinct non-empty string in ``values``."""
        sketch = cls(k)
        sketch.update(values)
        return sketch

    def update(self, values: Iterable[str]) -> "ContainmentSketch":
        """Fold more values into the sketch (duplicates and empties are
        ignored — sketches describe *sets* of cell values)."""
        fresh = {_stable_hash(value) for value in values if value}
        fresh.difference_update(self._hashes.tolist())
        if fresh:
            self._distinct += len(fresh)
            merged = np.concatenate(
                [self._hashes, np.fromiter(fresh, np.uint64, count=len(fresh))]
            )
            merged.sort()
            self._hashes = merged[: self.k].copy()
        return self

    def __len__(self) -> int:
        """Distinct values observed (exact while <= k, else a count of
        observed distinct hashes — still exact unless hashes collide)."""
        return self._distinct

    @property
    def is_exact(self) -> bool:
        """Whether the sketch still holds every observed hash."""
        return self._distinct <= self.k

    def cardinality(self) -> float:
        """Estimated number of distinct values (exact while <= k)."""
        if self.is_exact:
            return float(self._distinct)
        # KMV estimator: E[|A|] = (k - 1) / h_(k), h normalized to [0, 1).
        kth = int(self._hashes[-1]) / _HASH_SPACE
        return (self.k - 1) / kth if kth > 0 else float(self._distinct)

    # ------------------------------------------------------------------
    # Pairwise estimators
    # ------------------------------------------------------------------
    def _hash_set(self) -> set:
        return set(self._hashes.tolist())

    def _union_bottom(self, other: "ContainmentSketch") -> List[int]:
        """Bottom-min(k_a, k_b) hashes of the union of both sketches."""
        merged = sorted(self._hash_set() | other._hash_set())
        return merged[: min(self.k, other.k)]

    def jaccard(self, other: "ContainmentSketch") -> float:
        """Estimated Jaccard similarity ``|A ∩ B| / |A ∪ B|``.

        The union's bottom-k is a uniform sample of the union, so the
        fraction of it present in *both* sketches estimates the Jaccard
        index (exact when both sketches are exact).
        """
        bottom = self._union_bottom(other)
        if not bottom:
            return 0.0
        mine = self._hash_set()
        theirs = other._hash_set()
        shared = sum(1 for h in bottom if h in mine and h in theirs)
        return shared / len(bottom)

    def union_cardinality(self, other: "ContainmentSketch") -> float:
        """Estimated ``|A ∪ B|`` from the merged bottom-k."""
        bottom = self._union_bottom(other)
        if not bottom:
            return 0.0
        if self.is_exact and other.is_exact:
            return float(len(self._hash_set() | other._hash_set()))
        kth = bottom[-1] / _HASH_SPACE
        return (len(bottom) - 1) / kth if kth > 0 else float(len(bottom))

    def intersection(self, other: "ContainmentSketch") -> float:
        """Estimated ``|A ∩ B|`` (Jaccard x union size)."""
        return self.jaccard(other) * self.union_cardinality(other)

    def containment(self, other: "ContainmentSketch") -> float:
        """Estimated directional containment ``|A ∩ B| / |A|`` in [0, 1].

        This is the join-discovery score direction: how much of *this*
        column's value set the other column covers — 1.0 means every
        value here would find a join partner there.
        """
        mine = self.cardinality()
        if mine <= 0:
            return 0.0
        return min(1.0, self.intersection(other) / mine)

    # ------------------------------------------------------------------
    # Batched estimator (join scoring indexes a SketchTable directly)
    # ------------------------------------------------------------------
    def intersection_many(
        self, others: Sequence["ContainmentSketch"]
    ) -> np.ndarray:
        """``|self ∩ other|`` estimates against many sketches at once,
        bit-identical to :meth:`intersection`."""
        table = SketchTable([self, *others])
        rights = np.arange(1, len(others) + 1, dtype=np.int64)
        return table.intersections(np.zeros_like(rights), rights)

    # ------------------------------------------------------------------
    # Serialization (the discovery profile cache persists sketches)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload that :meth:`from_dict` round-trips exactly."""
        return {
            "k": self.k,
            "distinct": self._distinct,
            "hashes": self._hashes.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ContainmentSketch":
        """Rebuild a sketch persisted by :meth:`to_dict`.

        The round-trip is byte-exact — same hashes, same distinct count —
        so cached profiles score identically to freshly computed ones.
        Malformed payloads raise ``ValueError``.
        """
        try:
            k = int(payload["k"])
            distinct = int(payload["distinct"])
            hashes = [int(h) for h in payload["hashes"]]
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"corrupt sketch payload: {error}") from error
        if (
            distinct < 0
            or len(hashes) > k
            or len(set(hashes)) != len(hashes)
            or any(not 0 <= h < (1 << 64) for h in hashes)
        ):
            raise ValueError("corrupt sketch payload: inconsistent fields")
        sketch = cls(k)
        sketch._hashes = np.sort(np.asarray(hashes, dtype=np.uint64))
        sketch._distinct = distinct
        return sketch


class SketchTable:
    """``N`` sketches laid out as arrays, so pair estimators index rows.

    ``hashes`` is the ``(N, L)`` matrix of sorted bottom-k hashes (``L``
    the longest sketch, shorter rows padded; ``lengths`` says where each
    row ends), beside each sketch's ``k``, exactness flag and cardinality
    estimate.  Join scoring builds one table per ranking call and scores
    every candidate batch by row index.
    """

    def __init__(self, sketches: Sequence[ContainmentSketch]) -> None:
        count = len(sketches)
        self.lengths = np.fromiter(
            (s._hashes.size for s in sketches), np.int64, count=count
        )
        self.k = np.fromiter((s.k for s in sketches), np.int64, count=count)
        self.exact = np.fromiter((s.is_exact for s in sketches), bool, count=count)
        self.cardinality = np.fromiter(
            (s.cardinality() for s in sketches), np.float64, count=count
        )
        width = int(self.lengths.max()) if count else 0
        self.hashes = np.zeros((count, width), dtype=np.uint64)
        if width:
            filled = np.arange(width) < self.lengths[:, None]
            self.hashes[filled] = np.concatenate([s._hashes for s in sketches])

    def intersections(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``|A ∩ B|`` estimates for the row pairs ``(left[p], right[p])``,
        bit-identical to :meth:`ContainmentSketch.intersection`."""
        out = np.zeros(left.size, dtype=np.float64)
        step = max(1, _KERNEL_CELLS // max(1, 2 * self.hashes.shape[1]))
        for start in range(0, left.size, step):
            stop = start + step
            out[start:stop] = self._intersections(left[start:stop], right[start:stop])
        return out

    def _intersections(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        len_a, len_b = self.lengths[left], self.lengths[right]
        width_a, width_b = int(len_a.max()), int(len_b.max())
        if not (width_a and width_b):
            return np.zeros(left.size, dtype=np.float64)
        # One (P, La+Lb) matrix: both sketches of a pair side by side,
        # cells past a sketch's length padded, then ONE row-wise sort.
        # The first len_a+len_b cells of a sorted row are its real hashes
        # whatever their values, so validity never reads a sentinel.
        merged = np.concatenate(
            [self.hashes[left, :width_a], self.hashes[right, :width_b]], axis=1
        )
        columns = np.arange(width_a + width_b)
        merged[:, :width_a][columns[:width_a] >= len_a[:, None]] = _PAD
        merged[:, width_a:][columns[:width_b] >= len_b[:, None]] = _PAD
        merged.sort(axis=1)
        valid = columns < (len_a + len_b)[:, None]
        # A sketch holds distinct hashes, so a cell equal to its left
        # neighbour is the second copy of a hash present on both sides.
        repeat = np.zeros(merged.shape, dtype=bool)
        repeat[:, 1:] = (merged[:, 1:] == merged[:, :-1]) & valid[:, 1:]
        rank = np.cumsum(valid & ~repeat, axis=1)  # 1-based, over distinct hashes
        union = rank[:, -1]
        bottom = np.minimum(union, np.minimum(self.k[left], self.k[right]))
        shared = np.count_nonzero(repeat & (rank <= bottom[:, None]), axis=1)
        kth_hash = np.max(
            merged, axis=1, where=valid & (rank == bottom[:, None]), initial=0
        )
        kth = kth_hash.astype(np.float64) / _HASH_SPACE
        size = np.maximum(bottom, 1).astype(np.float64)
        union_card = np.where(
            self.exact[left] & self.exact[right],
            union.astype(np.float64),
            np.where(kth > 0, (size - 1.0) / np.where(kth > 0, kth, 1.0), size),
        )
        return (shared / size) * union_card  # jaccard x union size
