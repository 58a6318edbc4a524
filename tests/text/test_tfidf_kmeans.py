"""Tests for TF-IDF, k-means, similarity measures, and the MLM warm start."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import TransformerConfig, TransformerEncoder
from repro.text import (
    MLMConfig,
    TfidfVectorizer,
    Tokenizer,
    assign_clusters,
    jaccard,
    kmeans,
    levenshtein,
    minibatch_kmeans,
    mlm_warm_start,
    overlap_coefficient,
)
from similarity_oracles import cosine, top_k_cosine


class TestTfidf:
    DOCS = [
        "apple banana apple",
        "banana cherry",
        "apple cherry durian",
        "durian durian durian",
    ]

    def test_shapes(self):
        matrix = TfidfVectorizer().fit_transform(self.DOCS)
        assert matrix.shape[0] == 4
        assert matrix.shape[1] == 4  # apple banana cherry durian

    def test_rows_l2_normalized(self):
        matrix = TfidfVectorizer().fit_transform(self.DOCS)
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-9)

    def test_rare_terms_weighted_higher(self):
        vec = TfidfVectorizer(sublinear_tf=False)
        vec.fit(self.DOCS)
        # "banana" appears in 2 docs, "durian" in 2 docs, "apple" in 2;
        # add a unique term.
        vec2 = TfidfVectorizer(sublinear_tf=False)
        vec2.fit(self.DOCS + ["unique"])
        assert vec2.idf[vec2.vocabulary["unique"]] > vec2.idf[vec2.vocabulary["apple"]]

    def test_similar_docs_high_cosine(self):
        matrix = TfidfVectorizer().fit_transform(self.DOCS)
        sims = matrix @ matrix.T
        assert sims[0, 1] > sims[0, 3]  # doc0 shares banana with doc1, nothing with doc3

    def test_max_features(self):
        vec = TfidfVectorizer(max_features=2)
        vec.fit(self.DOCS)
        assert vec.num_features == 2

    def test_min_df(self):
        vec = TfidfVectorizer(min_df=2)
        vec.fit(["one two", "two three", "three four"])
        assert "one" not in vec.vocabulary
        assert "two" in vec.vocabulary

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(["x"])

    def test_sparse_output(self):
        matrix = TfidfVectorizer().fit_transform(self.DOCS, dense=False)
        assert matrix.shape == (4, 4)
        assert hasattr(matrix, "toarray")

    def test_empty_document_row_is_zero(self):
        vec = TfidfVectorizer().fit(self.DOCS)
        matrix = vec.transform([""])
        np.testing.assert_allclose(matrix, 0.0)


class TestKMeans:
    def blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(loc=0.0, scale=0.1, size=(20, 2))
        b = rng.normal(loc=5.0, scale=0.1, size=(20, 2))
        c = rng.normal(loc=(0.0, 5.0), scale=0.1, size=(20, 2))
        return np.vstack([a, b, c])

    def test_recovers_blobs(self):
        features = self.blobs()
        result = kmeans(features, 3, np.random.default_rng(1))
        # Each true blob maps to exactly one cluster label.
        for block in range(3):
            labels = result.labels[block * 20 : (block + 1) * 20]
            assert len(set(labels.tolist())) == 1

    def test_clusters_partition_items(self):
        features = self.blobs()
        result = kmeans(features, 3, np.random.default_rng(2))
        all_members = np.concatenate(result.clusters())
        assert sorted(all_members.tolist()) == list(range(60))

    def test_k_capped_at_n(self):
        features = np.eye(3)
        result = kmeans(features, 10, np.random.default_rng(0))
        assert result.centers.shape[0] == 3

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 2, np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        features = self.blobs()
        r1 = kmeans(features, 3, np.random.default_rng(7))
        r2 = kmeans(features, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(r1.labels, r2.labels)

    def test_inertia_decreases_with_more_clusters(self):
        features = self.blobs()
        i2 = kmeans(features, 2, np.random.default_rng(3)).inertia
        i6 = kmeans(features, 6, np.random.default_rng(3)).inertia
        assert i6 <= i2

    def test_multiple_empty_clusters_reseed_to_distinct_points(self, monkeypatch):
        # Regression: force every init center onto the same point so two
        # clusters go empty in the first iteration.  The reseed must give
        # each empty cluster its *own* farthest point — the old code
        # recomputed argmax from stale distances and parked every empty
        # cluster on one duplicate center.
        kmeans_module = importlib.import_module("repro.text.kmeans")

        features = np.array(
            [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [5.0, 20.0]]
        )
        monkeypatch.setattr(
            kmeans_module,
            "_kmeans_pp_init",
            lambda feats, k, rng: np.vstack([feats[0]] * k),
        )
        result = kmeans_module.kmeans(
            features, 3, np.random.default_rng(0), max_iterations=1
        )
        assert np.unique(result.centers, axis=0).shape[0] == 3

    def test_inertia_increase_is_not_convergence(self, monkeypatch):
        # Regression: script an inertia *increase* at iteration 2 (as a
        # reseed can cause).  The old check treated any improvement
        # < tolerance — including a negative one — as converged and
        # stopped at iteration 2; the fix keeps iterating.
        kmeans_module = importlib.import_module("repro.text.kmeans")

        original = kmeans_module._squared_distances
        calls = {"count": 0}

        def scripted(features, centers):
            calls["count"] += 1
            factor = 10.0 if calls["count"] == 2 else 1.0
            return original(features, centers) * factor

        monkeypatch.setattr(kmeans_module, "_squared_distances", scripted)
        result = kmeans_module.kmeans(
            self.blobs(), 3, np.random.default_rng(1), max_iterations=10
        )
        assert result.iterations > 2


class TestAssignClusters:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(50, 4))
        centers = rng.normal(size=(6, 4))
        labels, costs = assign_clusters(features, centers)
        expected = ((features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, expected.argmin(axis=1))
        np.testing.assert_allclose(costs, expected.min(axis=1), atol=1e-9)

    def test_empty_features(self):
        labels, costs = assign_clusters(np.empty((0, 3)), np.eye(3))
        assert labels.shape == (0,)
        assert costs.shape == (0,)

    def test_empty_centers_raises(self):
        with pytest.raises(ValueError):
            assign_clusters(np.eye(3), np.empty((0, 3)))


class TestMinibatchKMeans:
    def test_recovers_blobs_on_large_corpus(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        features = np.vstack(
            [rng.normal(loc=c, scale=0.1, size=(400, 2)) for c in centers]
        )
        result = minibatch_kmeans(
            features, 3, np.random.default_rng(1), batch_size=128
        )
        for block in range(3):
            labels = result.labels[block * 400 : (block + 1) * 400]
            assert len(set(labels.tolist())) == 1

    def test_deterministic_given_rng_seed(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(2000, 3))
        r1 = minibatch_kmeans(features, 5, np.random.default_rng(7), batch_size=256)
        r2 = minibatch_kmeans(features, 5, np.random.default_rng(7), batch_size=256)
        np.testing.assert_array_equal(r1.labels, r2.labels)

    def test_small_corpus_falls_back_to_exact(self):
        features = np.random.default_rng(2).normal(size=(40, 2))
        mb = minibatch_kmeans(features, 3, np.random.default_rng(5), batch_size=100)
        exact = kmeans(features, 3, np.random.default_rng(5))
        np.testing.assert_array_equal(mb.labels, exact.labels)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            minibatch_kmeans(np.empty((0, 2)), 2, np.random.default_rng(0))


class TestSimilarity:
    def test_jaccard_identical(self):
        assert jaccard("a b c", "a b c") == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard("a b", "c d") == 0.0

    def test_jaccard_partial(self):
        assert jaccard("a b", "b c") == pytest.approx(1 / 3)

    def test_overlap_coefficient(self):
        assert overlap_coefficient("a b", "b") == 1.0

    def test_cosine_bounds(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
        assert cosine(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_cosine_zero_vector(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_levenshtein_basic(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0

    def test_levenshtein_cap(self):
        assert levenshtein("aaaa", "bbbb", cap=2) == 3  # cap+1 signals "exceeds"

    def test_top_k_cosine_orders_descending(self):
        corpus = np.array([[1.0, 0], [0, 1.0], [0.9, 0.1]])
        queries = np.array([[1.0, 0.0]])
        indices, scores = top_k_cosine(queries, corpus, k=3)
        assert indices[0, 0] == 0
        assert (np.diff(scores[0]) <= 1e-12).all()

    def test_top_k_capped(self):
        corpus = np.eye(2)
        indices, _ = top_k_cosine(np.eye(2), corpus, k=10)
        assert indices.shape == (2, 2)

    def test_top_k_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_cosine(np.eye(2), np.eye(2), k=0)


@settings(max_examples=30, deadline=None)
@given(
    left=st.lists(st.sampled_from("abcdef"), max_size=8),
    right=st.lists(st.sampled_from("abcdef"), max_size=8),
)
def test_property_jaccard_symmetric_bounded(left, right):
    a, b = " ".join(left), " ".join(right)
    value = jaccard(a, b)
    assert 0.0 <= value <= 1.0
    assert value == jaccard(b, a)


@settings(max_examples=30, deadline=None)
@given(
    left=st.text(alphabet="abc", max_size=6),
    right=st.text(alphabet="abc", max_size=6),
)
def test_property_levenshtein_triangle_via_empty(left, right):
    # d(a,b) <= len(a) + len(b) and symmetric.
    d = levenshtein(left, right)
    assert d == levenshtein(right, left)
    assert d <= len(left) + len(right)


class TestMLMWarmStart:
    def test_loss_decreases(self):
        corpus = [
            "[COL] title [VAL] instant immersion spanish deluxe",
            "[COL] title [VAL] adventure workshop grade seven",
            "[COL] price [VAL] 36.11",
            "[COL] title [VAL] spanish deluxe immersion pack",
        ] * 4
        tok = Tokenizer.fit(corpus, vocab_size=60)
        enc = TransformerEncoder(
            TransformerConfig(
                vocab_size=tok.vocab_size,
                dim=16,
                num_layers=1,
                num_heads=2,
                ffn_dim=32,
                max_seq_len=16,
                dropout=0.0,
                seed=0,
            )
        )
        result = mlm_warm_start(
            enc, tok, corpus, MLMConfig(epochs=3, batch_size=8, max_seq_len=16, seed=0)
        )
        assert len(result.losses) == 3
        assert result.losses[-1] < result.losses[0]
