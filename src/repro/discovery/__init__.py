"""Data discovery & consolidation on top of the session API.

The package adds the *integration pipeline* tier to the repo: with one
pre-trained session you can now **discover** joinable columns across a
lake of tables (:mod:`~repro.discovery.lake`, over the column profiles
and pair scorer of :mod:`~repro.discovery.join`), **consolidate** a
dirty table into canonical records via self-join entity matching plus
conflict-resolution merging (:mod:`~repro.discovery.dedupe`), and
**stress** the result under a live upsert/delete/search feed with
first-class staleness metrics (:mod:`~repro.discovery.streaming`).
Join discovery has one implementation, the lake path: a persistent
fingerprint-keyed profile cache with memmapped column vectors,
delta-maintained ANN indexing, and the memoised batch scorer.
``join_discovery`` is its first round; ``lake_discovery`` names the
same task for a lake refreshed by re-fits.

Importing the package registers the session tasks —
``join_discovery``, ``lake_discovery``, ``dedupe``, and
``streaming_er`` — next to the paper's original five:

>>> session.task("join_discovery").fit(tables)       # doctest: +SKIP
>>> session.task("dedupe").fit(dirty).report()       # doctest: +SKIP
>>> session.serve("dedupe", frontend=True)           # doctest: +SKIP
"""

from .dedupe import (
    MERGE_POLICIES,
    DisjointSet,
    cluster_pairs,
    duplicate_clusters,
    iter_duplicate_clusters,
    merge_records,
    pairwise_metrics,
    self_match_dataset,
)
from .join import ColumnProfile, group_by_table, profile_tables
from .lake import (
    LakeIndex,
    LakeProfile,
    ProfileStore,
    column_fingerprint,
    hashed_embedder,
    profile_lake,
    rank_lake_candidates,
)
from .streaming import FeedEvent, iter_match_edges, make_feed, run_streaming_er
from .tasks import (
    DedupeTask,
    JoinDiscoveryTask,
    LakeDiscoveryTask,
    StreamingERTask,
)

__all__ = [
    "ColumnProfile",
    "DedupeTask",
    "DisjointSet",
    "FeedEvent",
    "JoinDiscoveryTask",
    "LakeDiscoveryTask",
    "LakeIndex",
    "LakeProfile",
    "MERGE_POLICIES",
    "ProfileStore",
    "StreamingERTask",
    "cluster_pairs",
    "column_fingerprint",
    "duplicate_clusters",
    "group_by_table",
    "hashed_embedder",
    "iter_duplicate_clusters",
    "iter_match_edges",
    "make_feed",
    "merge_records",
    "pairwise_metrics",
    "profile_lake",
    "profile_tables",
    "rank_lake_candidates",
    "run_streaming_er",
    "self_match_dataset",
]
