"""Tests for the HNSW graph index underneath ``HNSWBackend``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.hnsw import HNSWIndex


def unit_vectors(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def recall_against_exact(index, vectors, queries, k):
    """Mean top-k overlap with a brute-force scan of ``vectors``."""
    approx, _ = index.query_batch(queries, k)
    truth = np.argsort(-(queries @ vectors.T), axis=1)[:, :k]
    hits = sum(len(set(a.tolist()) & set(t.tolist())) for a, t in zip(approx, truth))
    return hits / truth.size


class TestHNSWIndex:
    def test_query_before_build_returns_nothing(self):
        indices, scores = HNSWIndex(dim=4).query(np.ones(4), 3)
        assert indices.size == 0 and scores.size == 0
        batch, batch_scores = HNSWIndex(dim=4).query_batch(np.ones((2, 4)), 3)
        assert (batch == -1).all() and np.isneginf(batch_scores).all()

    def test_rejects_bad_shapes_and_knobs(self):
        with pytest.raises(ValueError):
            HNSWIndex(dim=4).build(np.ones((3, 5)))
        index = HNSWIndex(dim=4).build(unit_vectors(5, 4))
        with pytest.raises(ValueError):
            index.add(np.ones((2, 3)))
        with pytest.raises(ValueError):
            index.query(np.ones(5), 1)
        with pytest.raises(ValueError):
            HNSWIndex(dim=4, m=1)
        with pytest.raises(ValueError):
            HNSWIndex(dim=4, ef_search=0)

    def test_exact_self_retrieval(self):
        vectors = unit_vectors(50, 16)
        index = HNSWIndex(dim=16, m=8, seed=0).build(vectors)
        indices, scores = index.query(vectors[7], k=1)
        assert indices[0] == 7
        assert scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_high_recall_against_exact(self):
        vectors = unit_vectors(300, 24, seed=1)
        index = HNSWIndex(dim=24, m=8, ef_search=32, seed=2).build(vectors)
        assert recall_against_exact(index, vectors, vectors[:40], k=5) >= 0.9

    def test_wider_beam_no_less_recall(self):
        vectors = unit_vectors(400, 24, seed=3)
        queries = unit_vectors(40, 24, seed=30)
        narrow = HNSWIndex(dim=24, m=4, ef_search=1, seed=4).build(vectors)
        wide = HNSWIndex(dim=24, m=4, ef_search=64, seed=4).build(vectors)
        assert recall_against_exact(wide, vectors, queries, 5) >= (
            recall_against_exact(narrow, vectors, queries, 5)
        )

    def test_query_batch_shapes_and_padding(self):
        vectors = unit_vectors(3, 8, seed=5)
        index = HNSWIndex(dim=8, m=4).build(vectors)
        indices, scores = index.query_batch(unit_vectors(2, 8, seed=50), k=5)
        assert indices.shape == scores.shape == (2, 5)
        # Three rows indexed: the last two slots of each row are padding.
        assert (indices[:, 3:] == -1).all() and np.isneginf(scores[:, 3:]).all()
        assert (indices[:, :3] >= 0).all()

    def test_scores_sorted_descending(self):
        vectors = unit_vectors(60, 12, seed=6)
        index = HNSWIndex(dim=12, m=6).build(vectors)
        _, scores = index.query(vectors[0], k=5)
        assert (np.diff(scores) <= 1e-12).all()

    def test_deterministic_given_seed(self):
        vectors = unit_vectors(80, 10, seed=7)
        a = HNSWIndex(dim=10, m=4, seed=11).build(vectors)
        b = HNSWIndex(dim=10, m=4, seed=11).build(vectors)
        ia, sa = a.query_batch(vectors[:10], k=3)
        ib, sb = b.query_batch(vectors[:10], k=3)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(sa, sb)


class TestHNSWIndexMutability:
    def test_add_matches_fresh_build(self):
        """``build`` is ``add`` from an empty graph with the seed reset,
        so building a prefix and adding the rest gives the same graph."""
        vectors = unit_vectors(60, 12, seed=8)
        incremental = HNSWIndex(dim=12, m=4, seed=0).build(vectors[:40])
        slots = incremental.add(vectors[40:])
        np.testing.assert_array_equal(slots, np.arange(40, 60))
        fresh = HNSWIndex(dim=12, m=4, seed=0).build(vectors)
        ia, sa = incremental.query_batch(vectors, k=5)
        ib, sb = fresh.query_batch(vectors, k=5)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(sa, sb)

    def test_remove_tombstones_slots(self):
        vectors = unit_vectors(50, 16, seed=9)
        index = HNSWIndex(dim=16, m=4, seed=0).build(vectors)
        index.remove([0, 7])
        assert index.num_alive == 48 and index.num_slots == 50
        indices, _ = index.query_batch(vectors[:10], k=5)
        returned = set(int(i) for i in indices.ravel() if i >= 0)
        assert 0 not in returned and 7 not in returned
        with pytest.raises(KeyError):
            index.remove([7])  # already tombstoned
        with pytest.raises(KeyError):
            index.remove([50])  # never allocated

    def test_compact_returns_slot_mapping(self):
        vectors = unit_vectors(30, 8, seed=10)
        index = HNSWIndex(dim=8, m=4, seed=0).build(vectors)
        index.remove([1, 3, 5])
        survivors = index.compact()
        np.testing.assert_array_equal(
            survivors, np.asarray([0, 2, 4] + list(range(6, 30)))
        )
        assert index.num_alive == index.num_slots == 27
        # New slot s holds the vector old slot survivors[s] held.
        indices, _ = index.query(vectors[survivors[10]], k=1)
        assert indices[0] == 10

    def test_heavy_churn_still_returns_k_live_rows(self):
        """With most nodes tombstoned, the beam widens and then falls
        back to a scan of live rows rather than return short rows."""
        vectors = unit_vectors(100, 12, seed=11)
        index = HNSWIndex(dim=12, m=4, ef_search=4, seed=0).build(vectors)
        index.remove(np.arange(0, 90))
        indices, _ = index.query_batch(vectors[:5], k=8)
        assert (indices >= 90).all()
        for row in indices:
            assert np.unique(row).size == 8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_property_hnsw_returns_valid_indices(seed):
    vectors = unit_vectors(30, 8, seed=seed)
    index = HNSWIndex(dim=8, m=4, seed=seed).build(vectors)
    indices, _ = index.query(vectors[0], k=5)
    assert indices.size == 5
    assert ((indices >= 0) & (indices < 30)).all()
    assert len(set(indices.tolist())) == len(indices)
