"""Tests for SudowoodoSession: shared-encoder reuse, the task registry,
serving exports, and the deprecated driver shims."""

import warnings

import numpy as np
import pytest

from repro.api import (
    MatchResult,
    SessionTask,
    SudowoodoConfig,
    SudowoodoSession,
    available_tasks,
    create_task,
    register_task,
)
from repro.cleaning import SudowoodoCleaner, cleaning_corpus
from repro.columns import ColumnMatchingPipeline
from repro.core import SudowoodoPipeline
from repro.data.generators import (
    generate_column_corpus,
    load_cleaning_dataset,
    load_em_benchmark,
)
from repro.serve import MatchService


def tiny_config(**overrides):
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=800,
        pretrain_epochs=1,
        pretrain_batch_size=8,
        finetune_epochs=2,
        finetune_batch_size=8,
        num_clusters=3,
        corpus_cap=64,
        multiplier=2,
        mlm_warm_start_epochs=0,
        blocking_k=3,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def em_dataset():
    return load_em_benchmark("AB", scale=0.02, max_table_size=40)


@pytest.fixture(scope="module")
def column_corpus():
    return generate_column_corpus(60, seed=5)


@pytest.fixture(scope="module")
def session(em_dataset, column_corpus):
    """One pretrained session shared (read-only fits) by the tests."""
    session = SudowoodoSession(tiny_config())
    corpus = em_dataset.all_items() + column_corpus.serialized(max_values=5)
    session.pretrain(corpus)
    return session


class TestSessionLifecycle:
    def test_requires_pretrain_before_state(self):
        fresh = SudowoodoSession(tiny_config())
        assert not fresh.is_pretrained
        with pytest.raises(RuntimeError, match="pretrain"):
            fresh.encoder
        with pytest.raises(RuntimeError, match="pretrain"):
            fresh.store

    def test_pretrain_twice_requires_force(self, session):
        with pytest.raises(RuntimeError, match="force=True"):
            session.pretrain(["[COL] a [VAL] b"])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SudowoodoSession(tiny_config(pooling="bogus"))

    def test_task_instances_are_cached(self, session):
        assert session.task("match") is session.task("match")

    def test_cached_task_rejects_new_options_without_fresh(self, session):
        session.task("column_match")
        with pytest.raises(ValueError, match="fresh=True"):
            session.task("column_match", max_values_per_column=3)
        fresh = session.task("column_match", fresh=True, max_values_per_column=3)
        assert fresh.max_values == 3

    def test_unknown_task_lists_registered(self, session):
        with pytest.raises(ValueError, match="registered tasks"):
            session.task("definitely_not_a_task")

    def test_create_task_unknown_name(self, session):
        with pytest.raises(ValueError, match="unknown task"):
            create_task("nope", session)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_task("match")
            class Imposter(SessionTask):
                pass


class TestSessionReuse:
    """One pretrain, several tasks, shared representations stay pristine."""

    def test_two_tasks_share_one_pretrain(self, session, em_dataset, column_corpus):
        probe = em_dataset.all_items()[:10]
        before = session.embedding_fingerprint(probe)

        match = session.task("match").fit(em_dataset, label_budget=20)
        after_match = session.embedding_fingerprint(probe)
        assert after_match == before, "match fit mutated shared embeddings"

        columns = session.task(
            "column_match", fresh=True, max_values_per_column=5
        ).fit(column_corpus, k=5, num_labels=60)
        after_columns = session.embedding_fingerprint(probe)
        assert after_columns == before, "column fit mutated shared embeddings"

        # Both tasks are fitted, usable, and report through one shape.
        assert 0.0 <= match.report().f1 <= 1.0
        assert 0.0 <= columns.report().f1 <= 1.0
        assert set(session.fitted_tasks()) >= {"match", "column_match"}

    def test_match_task_report_fields(self, session, em_dataset):
        match = session.task("match")
        if not match.fitted:
            match.fit(em_dataset, label_budget=20)
        report = match.report()
        assert isinstance(report, MatchResult)
        assert report.task == "match"
        assert report.dataset == em_dataset.name
        assert report.num_manual_labels == 20
        assert "finetune" in report.timings

    def test_block_task_no_checkout_needed(self, session, em_dataset):
        block = session.task("block").fit(em_dataset, k=3)
        metrics = block.evaluate()
        assert 0.0 <= metrics["recall"] <= 1.0
        assert metrics["cssr"] > 0.0
        assert len(block.predict()) > 0

    def test_unfitted_task_raises(self, session):
        task = session.task("column_cluster")
        with pytest.raises(RuntimeError, match="not fitted"):
            task.predict()

    def test_corpus_is_encoded_once_across_tasks(self, session, em_dataset):
        """Re-fitting over already-embedded records is pure cache hits."""
        session.task("block", fresh=True).fit(em_dataset, k=3)
        stats_before = session.store.stats()
        session.task("block", fresh=True).fit(em_dataset, k=3)
        stats_after = session.store.stats()
        assert stats_after["misses"] == stats_before["misses"]
        assert stats_after["hits"] > stats_before["hits"]


class TestServe:
    def test_serve_match_task(self, session, em_dataset):
        match = session.task("match")
        if not match.fitted:
            match.fit(em_dataset, label_budget=20)
        service = session.serve("match", num_shards=2)
        assert isinstance(service, MatchService)
        assert service.num_shards == 2
        assert service.index_size == len(em_dataset.table_b)
        ids, scores = service.search([em_dataset.serialize_b(0)], k=3)
        assert ids.shape == (1, 3)
        # The indexed record retrieves itself first.
        assert service.record_text(int(ids[0, 0])) == em_dataset.serialize_b(0)
        probabilities = service.match_pairs(
            [(em_dataset.serialize_a(0), em_dataset.serialize_b(0))]
        )
        assert probabilities.shape == (1, 2)

    def test_serve_column_task_streams(self, session, column_corpus):
        """Column embeddings get streaming upsert/delete like EM records."""
        task = session.task("column_match")
        if not task.fitted:
            task.fit(column_corpus, k=5, num_labels=60)
        service = session.serve(task)
        assert service.index_size == len(column_corpus)
        texts = task.corpus_texts()
        retired = service.delete_records(texts[:2])
        assert retired.size == 2
        assert service.index_size == len(column_corpus) - 2
        service.upsert_records([texts[0] + " extra"])
        assert service.index_size == len(column_corpus) - 1

    def test_serve_unfitted_task_rejected(self, session):
        with pytest.raises(RuntimeError, match="not fitted"):
            session.serve(session.task("column_cluster"))

    def test_serve_unknown_task_name_rejected(self, session):
        with pytest.raises(ValueError, match="has not been created"):
            session.serve("never_created_task")

    def test_serve_without_task_gives_bare_service(self, session):
        service = session.serve()
        assert isinstance(service, MatchService)
        assert service.index_size == 0
        assert service.store is session.store


class TestCleanTaskReuse:
    def test_clean_task_on_shared_session(self):
        beers = load_cleaning_dataset("beers", scale=0.03)
        session = SudowoodoSession(tiny_config())
        corpus = cleaning_corpus(beers)
        session.pretrain(corpus[:120])
        probe = corpus[:10]
        before = session.embedding_fingerprint(probe)
        clean = session.task("clean").fit(beers, labeled_rows=12)
        metrics = clean.evaluate()
        assert 0.0 <= metrics["f1"] <= 1.0
        assert session.embedding_fingerprint(probe) == before
        for (row, attribute), candidate in clean.predict().items():
            assert candidate != beers.dirty[row].get(attribute)


class TestDeprecatedShims:
    def test_pipeline_warns_but_works(self, em_dataset):
        with pytest.warns(DeprecationWarning, match="SudowoodoSession"):
            pipeline = SudowoodoPipeline(tiny_config())
        report = pipeline.run(em_dataset, label_budget=20)
        assert 0.0 <= report.f1 <= 1.0

    def test_cleaner_warns(self):
        with pytest.warns(DeprecationWarning, match="SudowoodoSession"):
            SudowoodoCleaner()

    def test_column_pipeline_warns(self):
        with pytest.warns(DeprecationWarning, match="SudowoodoSession"):
            ColumnMatchingPipeline()

    def test_session_path_emits_no_deprecation(self, em_dataset):
        session = SudowoodoSession(tiny_config(seed=3))
        session.pretrain(em_dataset.all_items())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.task("match", fresh=True).fit(em_dataset, label_budget=20)

    def test_legacy_pipeline_matches_session_task_f1(self, em_dataset):
        """The shim and the session path train on identical inputs and
        reach the same test metrics (shared seeds, shared pretrain)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = SudowoodoPipeline(tiny_config(seed=4))
            legacy.pretrain_on(em_dataset)
            legacy.train_matcher(label_budget=20)
            legacy_metrics = legacy.evaluate("test")

        session = SudowoodoSession(tiny_config(seed=4))
        session.pretrain(em_dataset.all_items())
        task = session.task("match").fit(em_dataset, label_budget=20)
        assert task.evaluate("test") == pytest.approx(legacy_metrics)
