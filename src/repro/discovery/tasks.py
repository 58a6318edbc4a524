"""Discovery tasks for the session registry: join_discovery,
lake_discovery, dedupe, streaming_er.

These tasks turn the session API into an end-to-end integration
pipeline: *discover* joinable columns across a lake of tables (at lake
scale, incrementally against a persistent profile cache), *dedupe* a
dirty table into canonical records, and *stress* the consolidated
index under a live upsert/delete/search feed — all against the one
pre-trained encoder the session already paid for.

>>> session.task("join_discovery").fit(tables).report()     # doctest: +SKIP
>>> session.task("lake_discovery").fit(lake).report()       # doctest: +SKIP
>>> session.task("dedupe").fit(dirty).report()              # doctest: +SKIP
>>> session.task("streaming_er").fit(dirty).predict()       # doctest: +SKIP
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..api.registry import register_task
from ..api.results import (
    DedupeResult,
    JoinCandidate,
    JoinDiscoveryResult,
    StreamingERResult,
)
from ..api.tasks import MatchTask, SessionTask
from ..data.generators.discovery import DirtyDuplicates, JoinableTables
from ..data.records import Record, Table, serialize_record
from .dedupe import (
    MERGE_POLICIES,
    cluster_pairs,
    iter_duplicate_clusters,
    normalize_pairs,
    pairwise_metrics,
    self_match_dataset,
)
from .join import group_by_table
from .lake import (
    LakeIndex,
    LakeProfile,
    ProfileStore,
    profile_lake,
    rank_lake_candidates,
)
from .streaming import FeedEvent, iter_match_edges, make_feed, run_streaming_er

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.matcher import PairwiseMatcher
    from ..serve.frontend import ServiceFrontend


@register_task("lake_discovery")
class LakeDiscoveryTask(SessionTask):
    """Join discovery at lake scale: incremental profiling against a
    persistent fingerprint-keyed :class:`~repro.discovery.lake.ProfileStore`
    (memmapped vectors), a delta-maintained live ANN index, and the
    memoised batch scorer.  Re-fitting the *same task instance*
    after tables mutate only recomputes and re-indexes the changed
    columns."""

    def __init__(self, session: Any) -> None:
        super().__init__(session)
        self._tables: Dict[str, Table] = {}
        self._truth: Optional[set] = None
        self._store: Optional[ProfileStore] = None
        self._index: Optional[LakeIndex] = None
        self._lake: Optional[LakeProfile] = None
        self._candidates: List[JoinCandidate] = []
        self._stats: Dict[str, float] = {}

    def _ensure_store(self) -> ProfileStore:
        if self._store is None:
            cache_dir = self.session.config.profile_cache_dir
            if cache_dir is None:
                # Private per-task store: incremental across re-fits of
                # this instance, discarded with it.
                cache_dir = tempfile.mkdtemp(prefix="sudowoodo-lake-")
                weakref.finalize(
                    self, shutil.rmtree, cache_dir, ignore_errors=True
                )
            self._store = ProfileStore(
                cache_dir, store_dtype=self.session.config.store_dtype
            )
        return self._store

    def fit(
        self,
        data: Union[JoinableTables, Dict[str, Table]],
        k: int = 10,
        alpha: float = 0.5,
        max_values: int = 12,
        sketch_k: int = 256,
        min_score: float = 0.0,
        top: Optional[int] = None,
        store: Optional[ProfileStore] = None,
    ) -> "LakeDiscoveryTask":
        """Profile incrementally, sync the live index, and rank.

        ``data`` is a :class:`~repro.data.generators.discovery.JoinableTables`
        (e.g. from ``generate_lake``; its truth powers :meth:`evaluate`)
        or a plain ``{name: Table}`` dict.  An explicit ``store``
        overrides the config's ``profile_cache_dir`` (and the private
        temporary store used when neither is set).  ``top`` cuts the
        ranking to its best ``top``; ``k < 1`` raises ``ValueError``
        before any work.
        """
        k = self._resolve_k(k, 10)
        if isinstance(data, JoinableTables):
            self._tables = dict(data.tables)
            self._truth = {tuple(pair) for pair in data.joinable}
        else:
            self._tables = dict(data)
            self._truth = None
        if store is not None:
            self._store = store
        config = self.session.config
        self._lake = profile_lake(
            self._tables,
            self._ensure_store(),
            lambda texts: self.session.embed(texts, normalize=True),
            max_values=max_values,
            sketch_k=sketch_k,
        )
        if self._index is None:
            self._index = LakeIndex(config)
        delta = self._index.update(self._lake)
        self._candidates = rank_lake_candidates(
            self._lake,
            self._index,
            config=config,
            k=k,
            alpha=alpha,
            min_score=min_score,
            top=top,
        )
        self._stats = {
            "profiles_reused": float(self._lake.reused),
            "profiles_computed": float(self._lake.computed),
            **{f"index_{name}": float(count) for name, count in delta.items()},
        }
        self.fitted = True
        return self

    def predict(
        self, top: Optional[int] = None, table: Optional[str] = None
    ) -> List[JoinCandidate]:
        """The ranked candidates — optionally only those touching
        ``table``, optionally truncated to the ``top`` best."""
        self._require_fitted("predict()")
        candidates = self._candidates
        if table is not None:
            candidates = group_by_table(candidates).get(table, [])
        return candidates[:top] if top is not None else list(candidates)

    def evaluate(self, at: Optional[int] = None, **_: Any) -> Dict[str, float]:
        """Ranking recall / precision against the generator truth (when
        available) plus the incremental accounting: how many profiles
        came from cache and what delta the index absorbed."""
        self._require_fitted("evaluate()")
        metrics = dict(self._stats)
        metrics["num_candidates"] = float(len(self._candidates))
        if self._truth:
            n = at if at is not None else len(self._truth)
            top = {candidate.pair for candidate in self._candidates[:n]}
            hits = len(top & self._truth)
            metrics["recall_at"] = hits / len(self._truth)
            metrics["precision_at"] = hits / n if n else 0.0
        return metrics

    def corpus_texts(self) -> List[str]:
        """The serialized columns — served as a live column index."""
        if self._lake is None:
            return []
        return [profile.text for profile in self._lake.profiles]

    def report(self) -> JoinDiscoveryResult:
        """Ranked candidates plus the per-table grouping."""
        self._require_fitted("report()")
        assert self._lake is not None
        return JoinDiscoveryResult(
            task=self.name,
            metrics=self.evaluate(),
            timings=self.session.timer.summary(),
            num_tables=len(self._tables),
            num_columns=len(self._lake.profiles),
            candidates=list(self._candidates),
            by_table=group_by_table(self._candidates),
        )


@register_task("join_discovery")
class JoinDiscoveryTask(LakeDiscoveryTask):
    """Joinable-column discovery across many tables: the lake pipeline's
    first round.  Each column is profiled (serialized text + containment
    sketch), embedded through the shared store, indexed into the
    config's ANN backend, and cross-table pairs are ranked by blended
    containment/cosine score; a re-fit of the same instance is
    incremental."""


@register_task("dedupe")
class DedupeTask(SessionTask):
    """Dedupe-and-merge over one dirty table: self-join EM matching
    (a composed :class:`~repro.api.tasks.MatchTask`: blocking +
    pseudo-labels + fine-tuned matcher), connected-component clustering,
    and per-attribute conflict resolution into canonical records."""

    def __init__(
        self,
        session: Any,
        policy: str = "longest",
        timestamp_attribute: str = "updated",
    ) -> None:
        super().__init__(session)
        if policy not in MERGE_POLICIES:
            raise ValueError(
                f"unknown merge policy {policy!r}; choose from "
                f"{', '.join(MERGE_POLICIES)}"
            )
        self.policy = policy
        self.timestamp_attribute = timestamp_attribute
        self._table: Optional[Table] = None
        self._truth: Optional[set] = None
        self._match = MatchTask(session)
        self._clusters: List[List[int]] = []
        self._canonical: List[Record] = []

    def fit(
        self,
        data: Union[DirtyDuplicates, Table],
        label_budget: int = 0,
        threshold: float = 0.6,
        k: Optional[int] = None,
        head: str = "sudowoodo",
        seed: int = 0,
    ) -> "DedupeTask":
        """Match the table against itself and consolidate.

        With a generated
        :class:`~repro.data.generators.discovery.DirtyDuplicates` the
        known duplicate pairs build a labeled split (enabling
        ``label_budget`` > 0 and held-out evaluation); a bare ``Table``
        trains purely on pseudo-labels, so ``label_budget`` must be 0.
        ``threshold`` is the match probability above which a candidate
        pair becomes an edge of the duplicate graph.
        """
        self.fitted = False
        k = self._resolve_k(k, self.session.config.blocking_k)
        if isinstance(data, DirtyDuplicates):
            self._table = data.table
            self._truth = set(data.duplicate_pairs())
        else:
            self._table = data
            self._truth = None
        if label_budget > 0 and not self._truth:
            raise ValueError(
                "label_budget > 0 needs known duplicate pairs; fit with a "
                "DirtyDuplicates or use label_budget=0 (pseudo-labels only)"
            )
        dataset = self_match_dataset(
            self._table, truth_pairs=self._truth, seed=seed
        )
        matcher = self._match.fit(dataset, label_budget, head=head).matcher
        candidates = self._match.block(k)
        # Self-join blocking proposes (i, i) and both orientations; keep
        # one canonical copy of each genuine pair.  Match edges stream
        # straight from bounded matcher batches into the union-find, and
        # clusters stream out already merged — the full candidate-pair
        # probability matrix and the match graph are never materialized.
        pairs = sorted(normalize_pairs(candidates.pairs))
        batch_size = self.session.config.serve_batch_size
        edges = iter_match_edges(
            pairs,
            lambda a, b: (dataset.serialize_a(a), dataset.serialize_b(b)),
            lambda texts: matcher.predict_proba(texts, batch_size=batch_size),
            threshold=threshold,
            batch_size=batch_size,
        )
        self._clusters = []
        self._canonical = []
        for cluster, canonical in iter_duplicate_clusters(
            len(self._table),
            edges,
            records=self._table,
            policy=self.policy,
            timestamp_attribute=self.timestamp_attribute,
            schema=self._table.schema,
        ):
            self._clusters.append(cluster)
            self._canonical.append(canonical)
        self.fitted = True
        return self

    @property
    def matcher(self) -> Optional["PairwiseMatcher"]:
        """The fine-tuned self-match matcher once fitted."""
        return self._match.matcher if self.fitted else None

    def predict(self) -> List[List[int]]:
        """The duplicate clusters (sorted record-index lists; singletons
        included, so the clusters partition the table)."""
        self._require_fitted("predict()")
        return list(self._clusters)

    def canonical_records(self) -> List[Record]:
        """One merged record per cluster, in cluster order."""
        self._require_fitted("canonical_records()")
        return list(self._canonical)

    def reduction_ratio(self) -> float:
        """Fraction of records eliminated by consolidation."""
        self._require_fitted("reduction_ratio()")
        if not self._table or len(self._table) == 0:
            return 0.0
        return 1.0 - len(self._clusters) / len(self._table)

    def evaluate(self, **_: Any) -> Dict[str, float]:
        """Pairwise P/R/F1 of the final clustering against the known
        duplicate pairs (when available), plus consolidation stats."""
        self._require_fitted("evaluate()")
        metrics: Dict[str, float] = {}
        if self._truth is not None:
            metrics.update(
                pairwise_metrics(cluster_pairs(self._clusters), self._truth)
            )
        metrics["num_clusters"] = float(len(self._clusters))
        metrics["reduction_ratio"] = self.reduction_ratio()
        return metrics

    def corpus_texts(self) -> List[str]:
        """Serialized *canonical* records — serving exports the cleaned
        view of the table, not the dirty input."""
        if not self.fitted or self._table is None:
            return []
        return [
            serialize_record(record, self._table.schema)
            for record in self._canonical
        ]

    def report(self) -> DedupeResult:
        """Clusters, canonical records, and the consolidation metrics."""
        self._require_fitted("report()")
        return DedupeResult(
            task=self.name,
            metrics=self.evaluate(),
            timings=self._match.timer.summary(),
            dataset=self._table.name,
            policy=self.policy,
            num_records=len(self._table),
            clusters=list(self._clusters),
            canonical_records=list(self._canonical),
            reduction_ratio=self.reduction_ratio(),
        )


@register_task("streaming_er")
class StreamingERTask(SessionTask):
    """Streaming entity resolution: replay a deterministic live feed of
    upserts / deletes / searches through the production service tier,
    measuring index staleness, sustained QPS, and load shedding."""

    def __init__(self, session: Any) -> None:
        super().__init__(session)
        self._initial: List[str] = []
        self._events: List[FeedEvent] = []
        self._stats: Optional[Dict[str, float]] = None

    def fit(
        self,
        data: Union[DirtyDuplicates, Table, Sequence[str]],
        num_events: int = 60,
        initial_fraction: float = 0.5,
        search_fraction: float = 0.5,
        delete_fraction: float = 0.15,
        k: int = 5,
        seed: int = 0,
    ) -> "StreamingERTask":
        """Materialize the feed.  ``data`` (a dirty-duplicates bundle, a
        table, or raw serialized texts) is split: the first
        ``initial_fraction`` seeds the index, the rest arrives as
        upserts; the event mix follows ``search_fraction`` /
        ``delete_fraction``.  Same data + seed -> identical feed."""
        if isinstance(data, DirtyDuplicates):
            table = data.table
            texts = [serialize_record(record, table.schema) for record in table]
        elif isinstance(data, Table):
            texts = [serialize_record(record, data.schema) for record in data]
        else:
            texts = list(data)
        if not texts:
            raise ValueError("streaming_er needs a non-empty corpus")
        if not 0.0 < initial_fraction <= 1.0:
            raise ValueError("initial_fraction must be in (0, 1]")
        split = max(1, int(len(texts) * initial_fraction))
        self._initial = texts[:split]
        self._events = make_feed(
            self._initial,
            texts[split:],
            num_events=num_events,
            search_fraction=search_fraction,
            delete_fraction=delete_fraction,
            k=k,
            seed=seed,
        )
        self._stats = None
        self.fitted = True
        return self

    @property
    def events(self) -> List[FeedEvent]:
        """The materialized feed (raises before :meth:`fit`)."""
        self._require_fitted("reading events")
        return list(self._events)

    def corpus_texts(self) -> List[str]:
        """The initial corpus — what the index holds before the feed."""
        return list(self._initial)

    def predict(
        self,
        frontend: Optional["ServiceFrontend"] = None,
        flush_every: int = 8,
        deadline_ms: Optional[float] = None,
        priority: int = 0,
        num_shards: Optional[int] = None,
        clock: Any = None,
    ) -> Dict[str, float]:
        """Run the feed and return the scorecard (see
        :func:`~repro.discovery.streaming.run_streaming_er`).  Without an
        explicit ``frontend`` the session serves this task behind a fresh
        :class:`~repro.serve.frontend.ServiceFrontend` (admission control
        + deadlines + metrics), pre-indexed with the initial corpus."""
        self._require_fitted("predict()")
        if frontend is None:
            frontend = self.session.serve(
                self, frontend=True, num_shards=num_shards
            )
        self._stats = run_streaming_er(
            frontend,
            self._events,
            flush_every=flush_every,
            deadline_ms=deadline_ms,
            priority=priority,
            clock=clock,
        )
        return dict(self._stats)

    def evaluate(self, **options: Any) -> Dict[str, float]:
        """The latest run's scorecard (runs the feed once if needed)."""
        self._require_fitted("evaluate()")
        if self._stats is None:
            self.predict(**options)
        assert self._stats is not None
        return dict(self._stats)

    def report(self) -> StreamingERResult:
        """Feed accounting plus freshness / throughput metrics."""
        self._require_fitted("report()")
        stats = self.evaluate()
        return StreamingERResult(
            task=self.name,
            metrics=stats,
            timings=self.session.timer.summary(),
            num_events=int(stats["events"]),
            upserts=int(stats["upserts"]),
            deletes=int(stats["deletes"]),
            searches=int(stats["searches"]),
            final_index_size=int(stats["final_index_size"]),
        )
