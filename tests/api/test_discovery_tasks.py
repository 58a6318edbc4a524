"""Session-API tests for the discovery tasks: join_discovery,
lake_discovery, dedupe, streaming_er — lifecycle, typed unfitted errors,
shard invariance, incremental re-fits, and serving exports."""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    DedupeResult,
    JoinDiscoveryResult,
    StreamingERResult,
    SudowoodoConfig,
    SudowoodoSession,
    TaskNotFittedError,
    available_tasks,
    create_task,
)
from repro.data.generators import (
    generate_dirty_duplicates,
    generate_joinable_tables,
    generate_lake,
    mutate_lake,
)
from repro.data.records import serialize_record
from repro.discovery.join import profile_tables
from repro.serve import ServiceFrontend
from repro.text.similarity import normalize_rows


def discovery_config(**overrides):
    defaults = dict(
        dim=24,
        num_layers=1,
        num_heads=2,
        ffn_dim=48,
        max_seq_len=32,
        pair_max_seq_len=64,
        vocab_size=1200,
        pretrain_epochs=3,
        pretrain_batch_size=8,
        finetune_epochs=6,
        finetune_batch_size=8,
        num_clusters=3,
        corpus_cap=128,
        multiplier=2,
        mlm_warm_start_epochs=0,
        blocking_k=4,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def joinable():
    return generate_joinable_tables(num_tables=3, rows=20, seed=1)


@pytest.fixture(scope="module")
def dirty():
    return generate_dirty_duplicates(num_entities=12, hardness=0.15, seed=2)


def adopting_session(session, **overrides):
    """A fresh session on ``session``'s encoder, its config overridden —
    no second pre-train."""
    return SudowoodoSession(replace(session.config, **overrides)).adopt(
        session.encoder
    )


def ranking(task):
    return [(c.pair, c.score, c.containment, c.cosine) for c in task.predict()]


def pretrained_session(joinable, dirty, **overrides):
    session = SudowoodoSession(discovery_config(**overrides))
    corpus = [profile.text for profile in profile_tables(joinable.tables)] + [
        serialize_record(record, dirty.table.schema) for record in dirty.table
    ]
    session.pretrain(corpus)
    return session


@pytest.fixture(scope="module")
def session(joinable, dirty):
    """One pretrained session shared (read-only fits) by the suite."""
    return pretrained_session(joinable, dirty)


class TestRegistrySatellites:
    def test_discovery_tasks_registered(self):
        names = available_tasks()
        for name in (
            "join_discovery",
            "lake_discovery",
            "dedupe",
            "streaming_er",
        ):
            assert name in names

    def test_unknown_task_error_lists_discovery_tasks(self, session):
        with pytest.raises(ValueError, match="join_discovery") as excinfo:
            session.task("no_such_task")
        message = str(excinfo.value)
        assert "dedupe" in message and "streaming_er" in message

    def test_tasks_listing_tracks_fitted_state(self, joinable):
        fresh = SudowoodoSession(discovery_config(pretrain_epochs=1))
        listing = fresh.tasks()
        assert set(listing) == set(available_tasks())
        assert not any(listing.values())
        fresh.pretrain(
            [profile.text for profile in profile_tables(joinable.tables)]
        )
        fresh.task("join_discovery").fit(joinable, k=4)
        listing = fresh.tasks()
        assert listing["join_discovery"] is True
        assert listing["dedupe"] is False

    @pytest.mark.parametrize(
        "name", ["join_discovery", "lake_discovery", "dedupe", "streaming_er"]
    )
    def test_unfitted_operations_raise_typed_error(self, session, name):
        task = create_task(name, session)
        for operation in (task.predict, task.evaluate, task.report):
            with pytest.raises(TaskNotFittedError, match="not fitted"):
                operation()
        with pytest.raises(TaskNotFittedError) as excinfo:
            session.serve(task)
        assert excinfo.value.task == name
        # Still a RuntimeError, so pre-existing handlers keep working.
        assert isinstance(excinfo.value, RuntimeError)


class TestJoinDiscoveryTask:
    @pytest.fixture(scope="class")
    def fitted(self, session, joinable):
        return session.task("join_discovery", fresh=True).fit(joinable, k=5)

    def test_recall_floor(self, fitted):
        metrics = fitted.evaluate()
        assert metrics["recall_at"] >= 0.6

    def test_report_shape(self, fitted, joinable):
        report = fitted.report()
        assert isinstance(report, JoinDiscoveryResult)
        assert report.num_tables == len(joinable.tables)
        assert report.num_columns == joinable.num_columns
        assert report.candidates
        for table, members in report.by_table.items():
            assert all(table in (c.table_a, c.table_b) for c in members)

    def test_rankings_invariant_across_shard_counts(self, session, joinable):
        rankings = []
        for num_shards in (1, 2, 3):
            sharded = adopting_session(session, num_shards=num_shards)
            task = sharded.task("join_discovery").fit(joinable, k=5)
            rankings.append(
                [(c.pair, round(c.score, 12)) for c in task.predict()]
            )
        assert rankings[0] == rankings[1] == rankings[2]

    def test_refit_of_a_cached_instance_equals_a_fresh_fit(self, session):
        lake = generate_lake(num_tables=6, rows=14, tables_per_pod=3, seed=4)
        task = session.task("join_discovery", fresh=True).fit(lake, k=5)
        tables = lake.tables
        for seed in (6, 7):
            tables, _ = mutate_lake(tables, fraction=0.4, seed=seed)
            task.fit(tables, k=5)
        assert task.evaluate()["profiles_reused"] > 0.0  # incremental
        fresh = session.task("join_discovery", fresh=True).fit(tables, k=5)
        assert ranking(task) and ranking(task) == ranking(fresh)

    @pytest.mark.parametrize("name", ["join_discovery", "lake_discovery"])
    def test_float64_cosines_are_the_embeddings_exactly(self, session, joinable, name):
        """Regression: a float64 profile store read its vectors back as
        float32, so ``lake_discovery`` ranked rounded embeddings."""
        exact = adopting_session(session, store_dtype="float64")
        task = exact.task(name).fit(joinable, k=5)
        texts = {p.ref: p.text for p in profile_tables(joinable.tables)}
        for candidate in task.predict():
            pair = [texts[ref] for ref in candidate.pair]
            vectors = normalize_rows(exact.embed(pair), dtype=np.float64)
            cosine = np.einsum("ij,ij->i", vectors[:1], vectors[1:])[0]
            assert candidate.cosine == float(cosine)

    def test_predict_filters(self, fitted):
        top = fitted.predict(top=3)
        assert len(top) <= 3
        for candidate in fitted.predict(table="table_a"):
            assert "table_a" in (candidate.table_a, candidate.table_b)

    def test_serving_indexes_columns(self, session, fitted):
        service = session.serve(fitted)
        assert service.index_size == len(fitted.corpus_texts())


class TestLakeDiscoveryTask:
    @pytest.fixture(scope="class")
    def lake(self):
        return generate_lake(num_tables=6, rows=14, tables_per_pod=3, seed=4)

    def test_cold_fit_profiles_everything(self, session, lake):
        task = session.task("lake_discovery", fresh=True).fit(lake, k=5)
        metrics = task.evaluate()
        num_columns = lake.num_columns
        assert metrics["profiles_computed"] == num_columns
        assert metrics["profiles_reused"] == 0.0
        assert metrics["index_added"] == num_columns
        assert task.predict(), "expected candidates on a planted lake"

    def test_refit_after_mutation_is_incremental(self, session, lake):
        task = session.task("lake_discovery", fresh=True).fit(lake, k=5)
        mutated, names = mutate_lake(lake.tables, fraction=0.4, seed=6)
        task.fit(mutated, k=5)
        metrics = task.evaluate()
        changed = sum(len(mutated[name].schema) for name in names)
        assert metrics["profiles_computed"] == changed
        assert metrics["index_updated"] == changed
        assert metrics["index_added"] == 0.0
        assert metrics["index_removed"] == 0.0
        assert (
            metrics["profiles_reused"]
            == lake.num_columns - changed
        )

    def test_matches_join_discovery_ranking(self, session, lake):
        # Warm equals cold: after churn re-fits, the lake ranks exactly
        # like a fresh one-round join_discovery fit over the same tables.
        incremental = session.task("lake_discovery", fresh=True).fit(lake, k=5)
        tables = lake.tables
        for seed in (8, 9, 10):
            tables, _ = mutate_lake(tables, fraction=0.3, seed=seed)
            incremental.fit(tables, k=5)
        fresh = session.task("join_discovery", fresh=True).fit(tables, k=5)
        assert ranking(incremental) and ranking(incremental) == ranking(fresh)

    def test_report_shape_and_serving(self, session, lake):
        task = session.task("lake_discovery", fresh=True).fit(lake, k=5)
        report = task.report()
        assert isinstance(report, JoinDiscoveryResult)
        assert report.num_tables == len(lake.tables)
        assert report.num_columns == lake.num_columns
        service = session.serve(task)
        assert service.index_size == len(task.corpus_texts())

    def test_refit_after_an_empty_lake(self, session, lake):
        task = session.task("lake_discovery", fresh=True).fit({})
        assert task.predict() == []
        task.fit(lake, k=5)
        assert task.evaluate()["index_added"] == lake.num_columns
        cold = session.task("lake_discovery", fresh=True).fit(lake, k=5)
        assert ranking(task) == ranking(cold)

    @pytest.mark.parametrize("name", ["join_discovery", "lake_discovery"])
    @pytest.mark.parametrize("k", [0, -2])
    def test_fit_rejects_k_below_one(self, session, lake, name, k):
        task = session.task(name, fresh=True)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            task.fit(lake, k=k)
        assert not task.fitted

    def test_explicit_store_persists_across_task_instances(
        self, session, lake, tmp_path
    ):
        from repro.discovery import ProfileStore

        store = ProfileStore(tmp_path / "cache")
        session.task("lake_discovery", fresh=True).fit(lake, store=store)
        warm = session.task("lake_discovery", fresh=True).fit(lake, store=store)
        metrics = warm.evaluate()
        assert metrics["profiles_computed"] == 0.0
        assert metrics["profiles_reused"] == lake.num_columns


class TestDedupeTask:
    @pytest.fixture(scope="class")
    def fitted(self, session, dirty):
        return session.task("dedupe", fresh=True).fit(
            dirty, label_budget=60, threshold=0.5
        )

    def test_quality_floor(self, fitted, joinable, dirty):
        """The floor is on the median over nine seeds.  One seed's F1 on
        these 12 entities is a lottery — seeds 0-11 read 0.12-0.83 with a
        median of 0.60-0.66, before and after batches were cut to their
        longest row — so ``seed 0 >= 0.6`` was a coin flip on any change
        that moves a dropout draw; the median of seeds 0..k-1 reads
        0.55-0.66 for every k from 5 to 12."""
        assert fitted.evaluate()["reduction_ratio"] > 0.0
        scores = [fitted.evaluate()["f1"]]  # the shared session is seed 0
        for seed in range(1, 9):
            task = pretrained_session(joinable, dirty, seed=seed).task("dedupe")
            scores.append(
                task.fit(dirty, label_budget=60, threshold=0.5).evaluate()["f1"]
            )
        assert np.median(scores) >= 0.5

    def test_clusters_partition_table(self, fitted, dirty):
        clusters = fitted.predict()
        flat = sorted(i for cluster in clusters for i in cluster)
        assert flat == list(range(len(dirty.table)))
        assert any(len(cluster) == 1 for cluster in clusters)

    def test_canonical_records_one_per_cluster(self, fitted, dirty):
        canonical = fitted.canonical_records()
        assert len(canonical) == len(fitted.predict())
        for record in canonical:
            assert list(record.attributes) == dirty.table.schema

    def test_conflicting_values_resolved_by_policy(self, session, dirty):
        newest = session.task("dedupe", fresh=True, policy="newest").fit(
            dirty, label_budget=60, threshold=0.5
        )
        for cluster, record in zip(newest.predict(), newest.canonical_records()):
            members = [dirty.table[i] for i in cluster]
            stamps = [m.get("updated") for m in members if m.get("name")]
            names = [m.get("name") for m in members if m.get("name")]
            if names:
                # The canonical name belongs to a member with the newest stamp.
                best = max(stamps)
                allowed = {
                    name for name, stamp in zip(names, stamps) if stamp == best
                }
                assert record.get("name") in allowed

    def test_report_shape(self, fitted, dirty):
        report = fitted.report()
        assert isinstance(report, DedupeResult)
        assert report.dataset == dirty.table.name
        assert report.policy == "longest"
        assert report.num_records == len(dirty.table)
        assert report.reduction_ratio == pytest.approx(
            1 - len(report.clusters) / len(dirty.table)
        )

    def test_serving_exports_canonical_view(self, session, fitted):
        service = session.serve(fitted)
        assert service.index_size == len(fitted.canonical_records())

    def test_label_budget_requires_truth(self, session, dirty):
        task = session.task("dedupe", fresh=True)
        with pytest.raises(ValueError, match="label_budget"):
            task.fit(dirty.table, label_budget=10)

    def test_invalid_policy_rejected(self, session):
        with pytest.raises(ValueError, match="policy"):
            session.task("dedupe", fresh=True, policy="wrongest")


class TestStreamingERTask:
    @pytest.fixture(scope="class")
    def fitted(self, session, dirty):
        return session.task("streaming_er", fresh=True).fit(
            dirty, num_events=30, delete_fraction=0.2, seed=3
        )

    def test_feed_is_deterministic(self, session, dirty):
        one = session.task("streaming_er", fresh=True).fit(
            dirty, num_events=30, seed=3
        )
        two = session.task("streaming_er", fresh=True).fit(
            dirty, num_events=30, seed=3
        )
        assert one.events == two.events

    def test_predict_serves_through_frontend(self, fitted):
        stats = fitted.predict(flush_every=4)
        assert stats["events"] == 30
        assert stats["searches_completed"] > 0
        assert stats["qps"] > 0
        assert stats["pending_writes"] == 0.0
        assert stats["staleness_p99_s"] >= 0.0

    def test_deletions_reflected_in_index_size(self, fitted):
        stats = fitted.evaluate()
        assert stats["deletes"] > 0, "feed must delete mid-stream"
        expected = (
            len(fitted.corpus_texts()) + stats["upserts"] - stats["deletes"]
        )
        assert stats["final_index_size"] == expected

    def test_explicit_frontend_and_metrics(self, session, fitted):
        frontend = session.serve(fitted, frontend=True)
        assert isinstance(frontend, ServiceFrontend)
        stats = fitted.predict(frontend=frontend, flush_every=4)
        snapshot = frontend.metrics_snapshot()
        assert "streaming_er.staleness_s" in snapshot["histograms"]
        assert (
            snapshot["gauges"]["streaming_er.pending_writes"] == 0.0
        )
        assert stats["shed"] == 0.0

    def test_report_shape(self, fitted):
        report = fitted.report()
        assert isinstance(report, StreamingERResult)
        assert report.num_events == 30
        assert report.upserts + report.deletes + report.searches == 30
        assert "qps" in report.metrics
