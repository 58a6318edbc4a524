"""Tests for SudowoodoSession: shared-encoder reuse, the task registry,
serving exports, and the fit / k contracts at the task boundary."""

import warnings

import numpy as np
import pytest

from repro.api import (
    MatchResult,
    SessionTask,
    SudowoodoConfig,
    SudowoodoSession,
    TaskNotFittedError,
    available_tasks,
    create_task,
    register_task,
)
from repro.cleaning import cleaning_corpus
from repro.data.generators import (
    generate_column_corpus,
    generate_dirty_duplicates,
    load_cleaning_dataset,
    load_em_benchmark,
)
from repro.data.records import serialize_record
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
        ids, scores = service.search_batch([em_dataset.serialize_b(0)], k=3)
        assert ids.shape == (1, 3)
        # The indexed record retrieves itself first.
        assert service.record_text(int(ids[0, 0])) == em_dataset.serialize_b(0)
        probabilities = match.predict(
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

    def test_serve_task_without_corpus_fails_loudly(self, session, em_dataset):
        """``block`` has nothing to serve: serving it raises and names the
        task instead of silently indexing a corpus."""
        block = session.task("block", fresh=True).fit(em_dataset, k=3)
        with pytest.raises(ValueError, match="'block'"):
            session.serve(block)

    def test_serve_task_without_indexing_gives_empty_service(
        self, session, em_dataset
    ):
        block = session.task("block", fresh=True).fit(em_dataset, k=3)
        service = session.serve(block, index=False)
        assert isinstance(service, MatchService)
        assert service.index_size == 0

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


    @pytest.mark.parametrize("name", ["match", "clean", "column_match", "dedupe"])
    def test_fit_leaves_the_session_store_alone(self, name, em_dataset, column_corpus):
        """Every fine-tuning task trains a checkout: once the task's
        records are cached, ``fit`` neither changes a shared embedding nor
        clears (or grows) the shared store."""
        data, corpus, options, fit = workload(name, em_dataset, column_corpus)
        session = SudowoodoSession(tiny_config())
        session.pretrain(corpus[:120])
        session.embed(corpus)  # warm: everything fit embeds is cached
        probe = corpus[:10]
        before = session.embedding_fingerprint(probe)
        cached = len(session.store)
        task = session.task(name, **options).fit(data, **fit)
        assert task.matcher is not None
        assert session.embedding_fingerprint(probe) == before
        assert len(session.store) == cached


def workload(name, em_dataset, column_corpus):
    """(data, pre-training corpus, task options, fit keywords) of one
    small job for the task ``name``."""
    if name in ("match", "block"):
        fit = dict(label_budget=10) if name == "match" else dict(k=3)
        return em_dataset, em_dataset.all_items(), {}, fit
    if name == "clean":
        beers = load_cleaning_dataset("beers", scale=0.03)
        return beers, cleaning_corpus(beers)[:200], {}, dict(labeled_rows=12)
    if name == "dedupe":
        dirty = generate_dirty_duplicates(num_entities=10, hardness=0.15, seed=2)
        corpus = [serialize_record(r, dirty.table.schema) for r in dirty.table]
        return dirty, corpus, {}, dict(label_budget=0)
    return (
        column_corpus,
        column_corpus.serialized(max_values=5),
        dict(max_values_per_column=5),
        dict(k=5, num_labels=60),
    )


#: A re-fit that raises, per task: (fit keywords, the error).
FAILING_REFITS = {
    "match": (dict(label_budget=10, head="bogus"), ValueError),
    "block": (dict(k=0), ValueError),
    "clean": (dict(labeled_rows=0), RuntimeError),
    "column_match": (dict(k=0), ValueError),
    "column_cluster": (dict(k=0), ValueError),
    "dedupe": (dict(label_budget=0, head="bogus"), ValueError),
}


class TestFitIsAtomic:
    """A failed re-fit must leave a task that says it is unfitted — not a
    "fitted" task with no matcher or with the previous fit's predictions."""

    @pytest.mark.parametrize("name", FAILING_REFITS)
    def test_failed_refit_leaves_task_unfitted(self, name, em_dataset, column_corpus):
        data, corpus, options, good = workload(name, em_dataset, column_corpus)
        bad, error = FAILING_REFITS[name]
        session = SudowoodoSession(tiny_config())
        session.pretrain(corpus[:120])
        task = session.task(name, **options).fit(data, **good)
        if name == "clean":
            assert task.predict() is task.predict()  # repairs cached per fit
        with pytest.raises(error):
            task.fit(data, **bad)
        arguments = ([("a", "b")],) if name == "match" else ()
        with pytest.raises(TaskNotFittedError):
            # Regression: AttributeError on the None matcher (match), the
            # previous fit's cached repairs / candidates (clean, block).
            task.predict(*arguments)
        assert not task.fitted
        assert task.matcher is None
        for operation in (task.evaluate, task.report):
            with pytest.raises(TaskNotFittedError):
                operation()
        with pytest.raises(TaskNotFittedError):
            session.serve(task)
        assert session.tasks()[name] is False
        # ... and a later successful fit recovers the same instance.
        assert task.fit(data, **good).fitted


class TestTaskBoundary:
    """``None`` is the only "use the default" value of ``k``; bad values
    of ``k`` and ``split`` fail at the task boundary with ``ValueError``."""

    @pytest.fixture(scope="class")
    def tasks(self, session, em_dataset, column_corpus):
        return {
            "match": create_task("match", session).fit(em_dataset, label_budget=10),
            "block": create_task("block", session).fit(em_dataset, k=3),
            "column_match": create_task(
                "column_match", session, max_values_per_column=5
            ).fit(column_corpus, k=5, num_labels=60),
        }

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda t, s, em, cols: t["block"].predict(k=0), "k must be"),
            (lambda t, s, em, cols: t["block"].predict(k=-2), "k must be"),
            (lambda t, s, em, cols: t["match"].block(0), "k must be"),
            (lambda t, s, em, cols: t["match"].pseudo_labels(8, k=0), "k must be"),
            (lambda t, s, em, cols: t["column_match"].predict(k=0), "k must be"),
            (lambda t, s, em, cols: t["column_match"].candidate_pairs(0), "k must be"),
            (lambda t, s, em, cols: create_task("block", s).fit(em, k=0), "k must be"),
            (
                lambda t, s, em, cols: create_task("column_match", s).fit(cols, k=0),
                "k must be",
            ),
            (
                lambda t, s, em, cols: create_task("dedupe", s).fit(em.table_a, k=0),
                "k must be",
            ),
            (lambda t, s, em, cols: t["match"].evaluate("bogus"), "train, valid, test"),
        ],
        ids=[
            "block.predict-0", "block.predict-negative", "match.block",
            "match.pseudo_labels", "column_match.predict",
            "column_match.candidate_pairs", "block.fit", "column_match.fit",
            "dedupe.fit", "match.evaluate-split",
        ],
    )
    def test_bad_k_or_split_raises_value_error(
        self, call, message, tasks, session, em_dataset, column_corpus
    ):
        with pytest.raises(ValueError, match=message):
            call(tasks, session, em_dataset, column_corpus)

    def test_k_zero_is_not_the_default(self, em_dataset):
        """Regression: ``k or blocking_k`` answered ``predict(k=0)`` with
        the k = blocking_k candidate set."""
        session = SudowoodoSession(tiny_config(blocking_k=10))
        session.pretrain(em_dataset.all_items())
        block = session.task("block").fit(em_dataset, k=3)
        assert len(block.predict()) == 3 * len(em_dataset.table_a)
        assert block.predict(k=None) is block.predict()
        with pytest.raises(ValueError, match="k must be"):
            block.predict(k=0)

    def test_column_predict_defaults_to_fitted_k(self, tasks):
        task = tasks["column_match"]
        assert task.k == 5
        # threshold 0 keeps every candidate, so the edges *are* the
        # candidate set predict() blocked with (regression: a literal 20).
        assert task.predict(threshold=0.0) == task.candidate_pairs(5)
        assert task.predict(threshold=0.0, k=3) == task.candidate_pairs(3)


class TestDeprecatedShims:
    """The session path never emits a ``DeprecationWarning``."""

    def test_session_path_emits_no_deprecation(self, em_dataset):
        session = SudowoodoSession(tiny_config(seed=3))
        session.pretrain(em_dataset.all_items())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.task("match", fresh=True).fit(em_dataset, label_budget=20)
