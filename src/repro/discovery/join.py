"""Joinable-column discovery: column profiles and the pair scorer.

Discovery is the stage *before* matching: given many tables, find the
column pairs a join could run over.  This module holds the pieces the
lake path (:mod:`~repro.discovery.lake`) is built from:

1. :func:`profile_tables` reduces each column to a
   :class:`ColumnProfile`: its serialized text (what the session encoder
   embeds) plus a :class:`~repro.serve.sketch.ContainmentSketch` of its
   distinct values (O(k) memory, deterministic).
2. :func:`_rank_batched` scores canonical candidate pairs with
   ``alpha * containment + (1 - alpha) * max(cosine, 0)`` and ranks them.

Scores are computed from the *exact* embeddings and sketches (never from
backend-reported distances), and ties break on the sorted column refs —
which is why the ranking is invariant to ``num_shards`` for the exact
backend (the sharded top-k provably equals the single-shard top-k, see
``repro.serve.sharding``) and fully deterministic everywhere else.

The scorer takes a memo of the last ranking's pairs keyed by the
columns' stable ids; what it has no entry for is scored in one shot —
one float64 einsum for the cosines, ONE call into the KMV pair kernel
(:class:`~repro.serve.sketch.SketchTable`, over just those pairs'
columns) for the containments.  Pairs are held as arrays and ranked
with one lexsort, and ``JoinCandidate`` objects are built only for the
returned pairs the memo holds none for.  :func:`_rank_pairwise`, which
shares none of that code, is the byte-identity oracle the tests and
``benchmarks/bench_lake_scale_discovery.py`` hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..api.results import JoinCandidate
from ..data.records import Table, serialize_column
from ..serve.sketch import ContainmentSketch, SketchTable

#: A column reference: (table name, column name).
ColumnRef = Tuple[str, str]


@dataclass(frozen=True)
class ColumnProfile:
    """Everything join discovery keeps per column: identity, the
    serialized text the encoder embeds, and the value sketch."""

    table: str
    column: str
    text: str
    sketch: ContainmentSketch
    num_values: int

    @property
    def ref(self) -> ColumnRef:
        return (self.table, self.column)


def profile_tables(
    tables: Dict[str, Table],
    max_values: int = 12,
    sketch_k: int = 256,
) -> List[ColumnProfile]:
    """Profile every column of every table, in deterministic order.

    ``max_values`` caps how many cell values enter the *serialized text*
    (embedding cost is per token); the sketch always sees every distinct
    value — containment must not be truncated with the prompt.
    """
    profiles: List[ColumnProfile] = []
    for table_name, table in tables.items():
        for attribute in table.schema:
            values = [v for v in table.column_values(attribute) if v]
            profiles.append(
                ColumnProfile(
                    table=table_name,
                    column=attribute,
                    text=serialize_column(values, max_values=max_values),
                    sketch=ContainmentSketch.from_values(values, k=sketch_k),
                    num_values=len(values),
                )
            )
    return profiles


# ----------------------------------------------------------------------
# Candidate scoring
# ----------------------------------------------------------------------
class _ScoreMemo:
    """The pairs the last batched ranking scored, keyed by the stable ids
    of their two columns, as arrays, plus the ``JoinCandidate`` of each
    pair it returned.  An entry is reused only while ``alpha`` and the
    vector dtype are the last call's and both columns still carry the
    vector bytes and the very sketch object it was scored with — an
    O(live) check per call, so no reused score is stale whatever store
    or embedder the ids were pointed at since."""

    def __init__(self) -> None:
        self.setting: Optional[Tuple[float, np.dtype]] = None
        self.ids = np.empty(0, dtype=np.int64)  # sorted
        self.bytes = np.empty((0, 0), dtype=np.uint8)  # vector bytes per id
        self.sketches: List[ContainmentSketch] = []  # sketch object per id
        self.pairs = np.empty((0, 2), dtype=np.int64)  # sorted (low, high)
        self.values = np.empty((0, 3))  # score, containment, cosine
        self.objects = np.empty(0, dtype=object)  # None unless returned

    def __len__(self) -> int:
        return len(self.pairs)

    def clean(self, setting, ids, profiles, vector_bytes) -> np.ndarray:
        """Per row: may entries touching its column be reused?"""
        same = setting == self.setting and vector_bytes.shape[1] == self.bytes.shape[1]
        if not (same and self.ids.size):
            return np.zeros(len(ids), dtype=bool)
        slots = np.minimum(np.searchsorted(self.ids, ids), self.ids.size - 1)
        clean = (self.ids[slots] == ids) & (vector_bytes == self.bytes[slots]).all(1)
        rows = np.flatnonzero(clean)
        clean[rows] = [
            profiles[row].sketch is self.sketches[slot]
            for row, slot in zip(rows.tolist(), slots[rows].tolist())
        ]
        return clean

    def find(self, low: np.ndarray, high: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(held, slot)`` of each ``(low, high)`` id pair."""
        if not len(self.pairs):
            return np.zeros(low.size, dtype=bool), np.zeros(low.size, dtype=np.int64)
        base = max(int(high.max(initial=0)), int(self.pairs[:, 1].max())) + 1
        keys = self.pairs[:, 0] * base + self.pairs[:, 1]
        wanted = low * base + high
        slots = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return keys[slots] == wanted, slots

    def replace(self, setting, ids, profiles, vector_bytes, low, high, values, objects):
        """Forget everything; hold this call's columns and pairs."""
        by_id, by_pair = np.argsort(ids), np.lexsort((high, low))
        self.setting, self.ids, self.bytes = setting, ids[by_id], vector_bytes[by_id]
        self.sketches = [profiles[row].sketch for row in by_id.tolist()]
        self.pairs = np.stack([low, high], axis=1)[by_pair]
        self.values, self.objects = values[by_pair], objects[by_pair]


def _batch_containments(
    table: SketchTable, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Symmetric containment ``max(|A∩B|/|A|, |A∩B|/|B|)`` for a batch of
    row pairs of ``table``: ONE pair-kernel call, then both directions
    from the (symmetric) intersection estimate — bit-identical to the
    scalar two-call form."""
    intersections = table.intersections(left, right)

    def direction(cardinality: np.ndarray) -> np.ndarray:
        nonempty = cardinality > 0
        ratio = intersections / np.where(nonempty, cardinality, 1.0)
        return np.where(nonempty, np.minimum(1.0, ratio), 0.0)

    return np.maximum(
        direction(table.cardinality[left]), direction(table.cardinality[right])
    )


def _score_pairs(
    profiles: Sequence[ColumnProfile],
    normalized: np.ndarray,
    pairs: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """``(P, 3)`` score, containment and cosine of row ``pairs`` in one
    shot: a single float64 einsum for the cosines, one containment kernel
    call over a sketch table of just the pairs' columns, elementwise
    blending."""
    left_rows = normalized[pairs[:, 0]].astype(np.float64, copy=False)
    right_rows = normalized[pairs[:, 1]].astype(np.float64, copy=False)
    cosines = np.einsum("ij,ij->i", left_rows, right_rows)
    rows, slots = np.unique(pairs, return_inverse=True)
    slots = slots.reshape(pairs.shape)
    table = SketchTable([profiles[row].sketch for row in rows.tolist()])
    containments = _batch_containments(table, slots[:, 0], slots[:, 1])
    scores = alpha * containments + (1.0 - alpha) * np.maximum(cosines, 0.0)
    return np.stack([scores, containments, cosines], axis=1)


def _rank_batched(
    profiles: Sequence[ColumnProfile],
    normalized: np.ndarray,
    pair_batches: Iterable[np.ndarray],
    alpha: float,
    min_score: float,
    top: Optional[int],
    memo: _ScoreMemo,
    ids: np.ndarray,
) -> List[JoinCandidate]:
    """Rank the streamed pairs against ``memo`` (``ids[i]`` is the stable
    id of ``profiles[i]``): pairs it holds a reusable entry for take its
    values and ``JoinCandidate``, the rest go through
    :func:`_score_pairs`.  One lexsort on (-score, sorted-ref key) orders
    the survivors of ``min_score``, ``top`` cuts them, and
    ``JoinCandidate`` objects are built only for returned pairs that have
    none.  The memo is then replaced by this call's pairs."""
    pairs = np.concatenate([np.empty((0, 2), dtype=np.int64), *pair_batches])
    # One integer per pair over the sorted refs: the dedupe identity (the
    # first occurrence is kept) and the ranking's tie-break at once.
    ranks = _ref_ranks(profiles)
    rank_left, rank_right = ranks[pairs[:, 0]], ranks[pairs[:, 1]]
    ref_keys = np.minimum(rank_left, rank_right) * len(profiles) + np.maximum(
        rank_left, rank_right
    )
    ref_keys, first = np.unique(ref_keys, return_index=True)
    pairs, rank_left, rank_right = pairs[first], rank_left[first], rank_right[first]
    left_ids, right_ids = ids[pairs[:, 0]], ids[pairs[:, 1]]
    low, high = np.minimum(left_ids, right_ids), np.maximum(left_ids, right_ids)
    setting = (alpha, normalized.dtype)
    vector_bytes = np.ascontiguousarray(normalized).view(np.uint8)
    clean = memo.clean(setting, ids, profiles, vector_bytes)
    hit, slots = memo.find(low, high)
    hit &= clean[pairs[:, 0]] & clean[pairs[:, 1]]
    values = np.empty((len(pairs), 3))
    values[hit] = memo.values[slots[hit]]
    if not hit.all():
        values[~hit] = _score_pairs(profiles, normalized, pairs[~hit], alpha)
    kept = np.flatnonzero(~(values[:, 0] < min_score))
    order = kept[np.lexsort((ref_keys[kept], -values[kept, 0]))][:top]
    reused = np.empty(len(pairs), dtype=object)
    reused[hit] = memo.objects[slots[hit]]
    ranked = reused[order].tolist()
    missing = [position for position, known in enumerate(ranked) if known is None]
    build = order[missing]
    swapped = rank_left[build] > rank_right[build]
    firsts = np.where(swapped, pairs[build, 1], pairs[build, 0]).tolist()
    seconds = np.where(swapped, pairs[build, 0], pairs[build, 1]).tolist()
    for position, a, b, (score, containment, cosine) in zip(
        missing, firsts, seconds, values[build].tolist()
    ):
        ranked[position] = JoinCandidate(
            table_a=profiles[a].table,
            column_a=profiles[a].column,
            table_b=profiles[b].table,
            column_b=profiles[b].column,
            score=score,
            containment=containment,
            cosine=cosine,
        )
    returned = np.empty(len(pairs), dtype=object)
    returned[order] = ranked
    memo.replace(setting, ids, profiles, vector_bytes, low, high, values, returned)
    return ranked


def _ref_ranks(profiles: Sequence[ColumnProfile]) -> np.ndarray:
    """Each profile's rank among the sorted distinct refs."""
    order = {ref: rank for rank, ref in enumerate(sorted({p.ref for p in profiles}))}
    return np.fromiter((order[p.ref] for p in profiles), np.int64, count=len(profiles))


def _rank_pairwise(
    profiles: Sequence[ColumnProfile],
    normalized: np.ndarray,
    pair_batches: Iterable[np.ndarray],
    alpha: float,
    min_score: float,
    top: Optional[int],
) -> List[JoinCandidate]:
    """The legacy per-pair path — scalar set-based containments, a dict
    keyed by the sorted ref pair, a Python sort — preserved as the
    byte-identity oracle for :func:`_rank_batched` (it shares none of its
    scoring or collecting code, keeps no memo, and holds every candidate
    in memory)."""
    seen: Dict[Tuple[ColumnRef, ColumnRef], JoinCandidate] = {}
    for pairs in pair_batches:
        for i, j in pairs.tolist():
            first, second = sorted((profiles[i].ref, profiles[j].ref))
            if (first, second) in seen:
                continue
            row_i = normalized[i : i + 1].astype(np.float64, copy=False)
            row_j = normalized[j : j + 1].astype(np.float64, copy=False)
            cosine = float(np.einsum("ij,ij->i", row_i, row_j)[0])
            containment = max(
                profiles[i].sketch.containment(profiles[j].sketch),
                profiles[j].sketch.containment(profiles[i].sketch),
            )
            score = alpha * containment + (1.0 - alpha) * max(cosine, 0.0)
            if score < min_score:
                continue
            seen[(first, second)] = JoinCandidate(
                table_a=first[0],
                column_a=first[1],
                table_b=second[0],
                column_b=second[1],
                score=score,
                containment=containment,
                cosine=cosine,
            )
    ranked = sorted(seen.values(), key=lambda c: (-c.score, c.pair))
    return ranked[:top]


def _canonical_pairs(
    query_rows: np.ndarray, partner_rows: np.ndarray, num_rows: int
) -> np.ndarray:
    """Distinct ``(min, max)`` row pairs, in lexicographic order, deduped
    on one integer key per pair."""
    keys = np.unique(
        np.minimum(query_rows, partner_rows) * num_rows
        + np.maximum(query_rows, partner_rows)
    )
    return np.stack([keys // num_rows, keys % num_rows], axis=1)


def _table_codes(profiles: Sequence[ColumnProfile]) -> np.ndarray:
    """Integer table id per profile (vectorized intra-table filtering)."""
    codes: Dict[str, int] = {}
    out = np.empty(len(profiles), dtype=np.int64)
    for position, profile in enumerate(profiles):
        out[position] = codes.setdefault(profile.table, len(codes))
    return out


def group_by_table(
    candidates: Sequence[JoinCandidate],
) -> Dict[str, List[JoinCandidate]]:
    """Per-table view: every table -> its candidates, rank order kept.

    A candidate joins two tables, so it appears under both — the shape a
    "what can I join *this* table with?" UI wants.
    """
    grouped: Dict[str, List[JoinCandidate]] = {}
    for candidate in candidates:
        grouped.setdefault(candidate.table_a, []).append(candidate)
        if candidate.table_b != candidate.table_a:
            grouped.setdefault(candidate.table_b, []).append(candidate)
    return grouped
