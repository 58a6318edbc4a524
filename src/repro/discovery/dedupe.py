"""Dedupe-and-merge: EM matching over ONE dirty table, then consolidation.

Deduplication is entity matching where both sides are the same table: a
*self-join* :class:`~repro.data.em_dataset.EMDataset` lets the existing
matching engine (blocking + pseudo-labels + fine-tuned matcher) score
record pairs, and everything after the matcher is plain graph work:

    match probabilities -> edges -> connected components -> one
    canonical record per component (conflict-resolution policy)

The helpers here own the non-matcher half.  They are deterministic by
construction — sorted components, sorted clusters, deterministic
tie-breaks inside every merge policy — so dedupe results are
reproducible across runs and platforms.

Lake-scale mechanics (PR 10): components come from an incremental
:class:`~repro.utils.unionfind.DisjointSet` (union-find with path
compression + union by size, two flat int64 arrays; re-exported here)
that consumes match edges *as the matcher emits them*, and
:func:`iter_duplicate_clusters` streams merged canonical records
cluster-by-cluster — dedupe never materializes a networkx match graph.
:func:`duplicate_clusters` stays as a thin wrapper with its exact
historical output; the old networkx path survives only as the
``_networkx_clusters`` regression oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..data.records import LabeledPair, PairSplit, Record, Table
from ..utils.unionfind import DisjointSet, connected_components  # noqa: F401  (DisjointSet: re-export)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.em_dataset import EMDataset

#: An unordered record pair, stored as (min index, max index).
RecordPair = Tuple[int, int]


def normalize_pairs(pairs: Iterable[Tuple[int, int]]) -> Set[RecordPair]:
    """Canonicalize pairs to ``(min, max)`` and drop self-pairs."""
    return {(min(a, b), max(a, b)) for a, b in pairs if a != b}


def self_match_dataset(
    table: Table,
    truth_pairs: Optional[Iterable[Tuple[int, int]]] = None,
    negative_ratio: int = 4,
    seed: int = 0,
) -> "EMDataset":
    """A self-join :class:`~repro.data.em_dataset.EMDataset` over ``table``.

    Both sides are the *same* table, so the matching engine's blocking,
    pseudo-labeling and fine-tuning all apply unchanged.  With
    ``truth_pairs`` (known duplicate pairs) a labeled 3:1:1
    train/valid/test split is built — each positive is paired with
    ``negative_ratio`` seeded random non-duplicate negatives — enabling
    label budgets and held-out evaluation; without it the splits are
    empty and training must run purely on pseudo-labels.
    """
    from ..data.em_dataset import EMDataset

    positives = sorted(normalize_pairs(truth_pairs or ()))
    labeled: List[LabeledPair] = [LabeledPair(a, b, 1) for a, b in positives]
    if positives:
        rng = np.random.default_rng(seed)
        truth = set(positives)
        negatives: Set[RecordPair] = set()
        target = negative_ratio * len(positives)
        # Rejection-sample; cap attempts so tiny tables can't spin forever.
        for _ in range(20 * target):
            if len(negatives) >= target:
                break
            a, b = rng.integers(0, len(table), size=2)
            if a == b:
                continue
            pair = (min(int(a), int(b)), max(int(a), int(b)))
            if pair in truth or pair in negatives:
                continue
            negatives.add(pair)
        labeled.extend(LabeledPair(a, b, 0) for a, b in sorted(negatives))
        order = rng.permutation(len(labeled))
        labeled = [labeled[i] for i in order]
    n_train = (3 * len(labeled)) // 5
    n_valid = (4 * len(labeled)) // 5
    return EMDataset(
        name=f"{table.name}-self",
        table_a=table,
        table_b=table,
        pairs=PairSplit(
            train=labeled[:n_train],
            valid=labeled[n_train:n_valid],
            test=labeled[n_valid:],
        ),
        matches=set(positives),
    )


def iter_duplicate_clusters(
    num_records: int,
    edges: Iterable[Tuple[int, int]],
    records: Optional[Sequence[Record]] = None,
    policy: str = "longest",
    timestamp_attribute: str = "updated",
    schema: Optional[Sequence[str]] = None,
) -> Iterator[Union[List[int], Tuple[List[int], Record]]]:
    """Stream duplicate clusters (and optionally canonical records).

    Edges are folded into a :class:`DisjointSet` as they arrive — a
    generator of matcher emissions works and is never materialized —
    then components stream out one at a time.  Without ``records`` each
    yield is a sorted member list; with ``records`` (one per record id)
    each yield is ``(members, canonical)`` where ``canonical`` is the
    cluster merged by :func:`merge_records` under ``policy``, so callers
    can consolidate a table while holding one cluster at a time.

    The concatenated member lists are exactly the
    :func:`duplicate_clusters` partition.
    """
    if records is not None and len(records) != num_records:
        raise ValueError(
            f"{num_records} records declared but {len(records)} provided"
        )
    for position, members in enumerate(connected_components(num_records, edges)):
        if records is None:
            yield members
        else:
            yield members, merge_records(
                [records[member] for member in members],
                policy=policy,
                timestamp_attribute=timestamp_attribute,
                record_id=position,
                schema=schema,
            )


def duplicate_clusters(
    num_records: int, edges: Iterable[Tuple[int, int]]
) -> List[List[int]]:
    """Connected components of the match graph, as sorted clusters.

    Every record appears exactly once — unmatched records come back as
    singleton clusters — and clusters are sorted internally and by their
    first member, so the output is a deterministic partition of
    ``range(num_records)``.  Thin wrapper over
    :func:`iter_duplicate_clusters`.
    """
    return list(iter_duplicate_clusters(num_records, edges))


def _networkx_clusters(
    num_records: int, edges: Iterable[Tuple[int, int]]
) -> List[List[int]]:
    """The pre-union-find implementation, kept as a regression oracle:
    tests and the lake benchmark pin the streaming partition equal to
    the networkx connected-components partition."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(num_records))
    for a, b in normalize_pairs(edges):
        if 0 <= a < num_records and 0 <= b < num_records:
            graph.add_edge(a, b)
    clusters = [sorted(component) for component in nx.connected_components(graph)]
    clusters.sort(key=lambda cluster: cluster[0])
    return clusters


# ----------------------------------------------------------------------
# Conflict-resolution policies
# ----------------------------------------------------------------------
def _resolve_longest(values: Sequence[str], records: Sequence[Record]) -> str:
    present = [v for v in values if v]
    if not present:
        return ""
    # Longest wins; equal lengths break to the lexicographically smallest.
    return min(present, key=lambda v: (-len(v), v))


def _resolve_most_frequent(values: Sequence[str], records: Sequence[Record]) -> str:
    present = [v for v in values if v]
    if not present:
        return ""
    counts = Counter(present)
    return min(counts, key=lambda v: (-counts[v], v))


def _make_newest(timestamp_attribute: str) -> Callable[..., str]:
    def _resolve_newest(values: Sequence[str], records: Sequence[Record]) -> str:
        stamped = [
            (record.get(timestamp_attribute), position, value)
            for position, (value, record) in enumerate(zip(values, records))
            if value
        ]
        if not stamped:
            return ""
        # Latest timestamp wins; ties break to the last record in cluster
        # order, so the resolution is total.
        return max(stamped)[2]

    return _resolve_newest


#: Names accepted by :func:`merge_records` / the ``dedupe`` task.
MERGE_POLICIES: Tuple[str, ...] = ("longest", "most_frequent", "newest")


def merge_records(
    records: Sequence[Record],
    policy: str = "longest",
    timestamp_attribute: str = "updated",
    record_id: int = 0,
    schema: Optional[Sequence[str]] = None,
) -> Record:
    """One canonical record from a duplicate cluster.

    Each attribute is resolved independently by ``policy``:

    ``longest``
        The longest non-empty value (most information survives).
    ``most_frequent``
        Majority vote over non-empty values.
    ``newest``
        The value from the record with the greatest
        ``timestamp_attribute`` (ISO-style strings compare correctly).

    Empty values never win while any member has content, and every
    policy has a deterministic tie-break, so merging is reproducible.
    """
    if not records:
        raise ValueError("cannot merge an empty cluster")
    if policy not in MERGE_POLICIES:
        raise ValueError(
            f"unknown merge policy {policy!r}; choose from "
            f"{', '.join(MERGE_POLICIES)}"
        )
    if schema is None:
        seen: List[str] = []
        for record in records:
            for attribute in record.attributes:
                if attribute not in seen:
                    seen.append(attribute)
        schema = seen
    if policy == "newest":
        resolve = _make_newest(timestamp_attribute)
    elif policy == "most_frequent":
        resolve = _resolve_most_frequent
    else:
        resolve = _resolve_longest
    attributes = {
        attribute: resolve([record.get(attribute) for record in records], records)
        for attribute in schema
    }
    return Record(record_id=record_id, attributes=attributes)


def pairwise_metrics(
    predicted_pairs: Iterable[Tuple[int, int]],
    truth_pairs: Iterable[Tuple[int, int]],
) -> Dict[str, float]:
    """Pairwise precision / recall / F1 of a dedupe result.

    ``predicted_pairs`` should be the *transitive closure* of the final
    clusters (every co-clustered pair), which is what
    :meth:`~repro.data.generators.discovery.DirtyDuplicates.duplicate_pairs`
    provides for the truth side — so the metric scores the clustering,
    not just the raw matcher edges.
    """
    predicted = normalize_pairs(predicted_pairs)
    truth = normalize_pairs(truth_pairs)
    true_positives = len(predicted & truth)
    precision = true_positives / len(predicted) if predicted else 0.0
    recall = true_positives / len(truth) if truth else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def cluster_pairs(clusters: Sequence[Sequence[int]]) -> Set[RecordPair]:
    """Transitive closure: every unordered pair co-clustered anywhere.

    Pairs are enumerated with one ``triu_indices`` per cluster instead
    of a nested Python loop — O(cluster^2) work runs in numpy, and the
    output stays the historical set of ``(min, max)`` int tuples.
    """
    pairs: Set[RecordPair] = set()
    for cluster in clusters:
        members = np.sort(np.asarray(cluster, dtype=np.int64))
        if members.size < 2:
            continue
        rows, cols = np.triu_indices(members.size, k=1)
        pairs.update(zip(members[rows].tolist(), members[cols].tolist()))
    return pairs
