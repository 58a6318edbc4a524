"""Per-task result dataclasses returned by ``Task.report()``.

Every session task reports through a :class:`TaskReport` subclass so
callers can treat heterogeneous workloads uniformly: ``task`` names the
registry entry that produced the result, ``metrics`` holds the headline
numbers (precision / recall / F1 / purity, task-dependent keys), and
``timings`` the wall-clock sections.  Task-specific payloads (repairs,
clusters, candidate counts) live on the subclass fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.records import Record


@dataclass
class TaskReport:
    """Common shape of every task result: name, metrics, timings."""

    task: str
    metrics: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def f1(self) -> float:
        """The headline F1 when the task reports one (0.0 otherwise)."""
        return self.metrics.get("f1", 0.0)


@dataclass
class MatchResult(TaskReport):
    """Entity matching: test metrics plus label accounting."""

    dataset: str = ""
    num_manual_labels: int = 0
    num_pseudo_labels: int = 0
    pseudo_quality: Dict[str, float] = field(default_factory=dict)


@dataclass
class BlockResult(TaskReport):
    """Blocking: candidate volume and the recall/CSSR trade-off at k."""

    dataset: str = ""
    k: int = 0
    num_candidates: int = 0


@dataclass
class CleanResult(TaskReport):
    """Error correction: correction P/R/F1 and the applied repairs."""

    dataset: str = ""
    repaired: int = 0
    repairs: Dict[Tuple[int, str], str] = field(default_factory=dict)


@dataclass
class ColumnMatchResult(TaskReport):
    """Column matching: pair-level metrics over the labeled candidates."""

    num_candidates: int = 0
    positive_rate: float = 0.0
    valid_metrics: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class JoinCandidate:
    """One ranked joinable column pair from ``join_discovery``.

    ``score`` blends a containment-sketch overlap estimate with the
    embedding cosine (``alpha * containment + (1 - alpha) * cosine``);
    the two ingredients are carried separately so callers can re-rank.
    """

    table_a: str
    column_a: str
    table_b: str
    column_b: str
    score: float
    containment: float
    cosine: float

    @property
    def pair(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        """The sorted ((table, column), (table, column)) key."""
        a = (self.table_a, self.column_a)
        b = (self.table_b, self.column_b)
        return (a, b) if a <= b else (b, a)


@dataclass
class JoinDiscoveryResult(TaskReport):
    """Join discovery: ranked joinable column pairs, grouped per table."""

    num_tables: int = 0
    num_columns: int = 0
    candidates: List[JoinCandidate] = field(default_factory=list)
    by_table: Dict[str, List[JoinCandidate]] = field(default_factory=dict)


@dataclass
class DedupeResult(TaskReport):
    """Dedupe-and-merge: duplicate clusters, canonical records, reduction."""

    dataset: str = ""
    policy: str = ""
    num_records: int = 0
    clusters: List[List[int]] = field(default_factory=list)
    canonical_records: List["Record"] = field(default_factory=list)
    reduction_ratio: float = 0.0


@dataclass
class StreamingERResult(TaskReport):
    """Streaming ER: feed accounting plus freshness / throughput metrics.

    ``metrics`` carries the headline numbers (sustained QPS, staleness
    p50/p99, shed count); the fields below record how the
    feed was consumed.
    """

    num_events: int = 0
    upserts: int = 0
    deletes: int = 0
    searches: int = 0
    final_index_size: int = 0


@dataclass
class ColumnClusterResult(TaskReport):
    """Type discovery: clusters, purity, and subtype discoveries."""

    num_clusters: int = 0
    num_edges: int = 0
    clusters: List[List[int]] = field(default_factory=list)
    subtype_discoveries: List[Dict[str, str]] = field(default_factory=list)
    match_metrics: Dict[str, float] = field(default_factory=dict)
