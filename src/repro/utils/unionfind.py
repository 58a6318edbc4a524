"""Connected components by union-find — the one implementation behind
dedupe's duplicate clusters and column type discovery.

Lives under ``utils`` because both :mod:`repro.discovery` and
:mod:`repro.columns` need it and neither may import the other.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np


class DisjointSet:
    """Incremental union-find over ``range(num_records)``.

    Path compression (halving) plus union by size give effectively-
    constant amortized unions, and the whole structure is two flat int64
    arrays — O(n) memory regardless of how many match edges stream
    through, which is what lets dedupe consume edges as the matcher
    emits them instead of buffering a match graph.
    """

    __slots__ = ("_parent", "_size")

    def __init__(self, num_records: int) -> None:
        if num_records < 0:
            raise ValueError("num_records must be non-negative")
        self._parent = np.arange(num_records, dtype=np.int64)
        self._size = np.ones(num_records, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._parent.size)

    def find(self, node: int) -> int:
        """Root of ``node``'s component, compressing the path walked."""
        parent = self._parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = int(parent[node])
        return node

    def union(self, a: int, b: int) -> bool:
        """Join the components of ``a`` and ``b``; True if they were
        separate (an actual merge happened)."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Consume a stream of match edges; self-loops and out-of-range
        endpoints are ignored (matcher output can reference dropped
        rows).  Returns the number of merges performed."""
        n = len(self)
        merges = 0
        for a, b in edges:
            if a == b:
                continue
            if 0 <= a < n and 0 <= b < n:
                if self.union(int(a), int(b)):
                    merges += 1
        return merges

    def iter_clusters(self) -> Iterator[List[int]]:
        """Yield each component as an ascending member list, ordered by
        smallest member — the canonical partition order."""
        by_root: Dict[int, List[int]] = {}
        for node in range(len(self)):
            by_root.setdefault(self.find(node), []).append(node)
        # Scanning 0..n-1 makes every member list ascending and keys
        # first-member ordered (dicts preserve insertion order).
        yield from by_root.values()


def connected_components(
    num_nodes: int, edges: Iterable[Tuple[int, int]]
) -> Iterator[List[int]]:
    """Components of the graph over ``range(num_nodes)``: each an
    ascending member list, ordered by smallest member; isolated nodes
    come back as singletons.  ``edges`` may be a lazy generator."""
    components = DisjointSet(num_nodes)
    components.add_edges(edges)
    yield from components.iter_clusters()
