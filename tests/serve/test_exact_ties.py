"""Exact top-k under wide score ties.

``ExactBackend.query`` argpartitions down to ``k + _TIE_PAD`` candidates
and sorts only those; a row whose k-th score ties past that cut has its
tied tail re-picked for the whole block at once.  These tests pin that
the repair is vectorised (no per-row sort) and that ids *and* score bits
equal a full (score desc, id asc) sort of every row.
"""

import numpy as np
import pytest

from repro.serve import ExactBackend

PAD = ExactBackend._TIE_PAD


def test_wide_ties_cost_one_lexsort_per_query(monkeypatch):
    rng = np.random.default_rng(0)
    base = rng.normal(size=(40, 8))
    corpus = np.vstack([base, np.tile(base[0], (3 * PAD, 1))])
    backend = ExactBackend("float32").build(corpus)
    calls = []
    real_lexsort = np.lexsort

    def counting_lexsort(*args, **kwargs):
        calls.append(1)
        return real_lexsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    ids, scores = backend.query(np.tile(base[0], (64, 1)), k=5)
    assert len(calls) <= 1
    np.testing.assert_array_equal(ids, np.tile([0, 40, 41, 42, 43], (64, 1)))
    np.testing.assert_allclose(scores, 1.0, atol=1e-6)


def _tied_corpus(rng, dim=8):
    """Distinct rows, each repeated up to ``3 * PAD`` times, plus zero
    rows (every query scores them 0.0 or -0.0), shuffled."""
    base = rng.normal(size=(int(rng.integers(4, 24)), dim))
    repeats = rng.integers(1, 3 * PAD, size=base.shape[0])
    zeros = np.zeros((int(rng.integers(0, 2 * PAD)), dim))
    corpus = np.vstack([np.repeat(base, repeats, axis=0), zeros])
    return base, corpus[rng.permutation(corpus.shape[0])]


@pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
@pytest.mark.parametrize("seed", range(4))
def test_tie_repair_equals_full_sort_bit_for_bit(dtype, seed):
    rng = np.random.default_rng([seed, len(dtype)])
    base, corpus = _tied_corpus(rng)
    backend = ExactBackend(dtype).build(corpus)
    # Swap-removes leave row order unrelated to id order; the adds give
    # the survivors more duplicates under late ids.
    doomed = rng.choice(corpus.shape[0], size=corpus.shape[0] // 5, replace=False)
    backend.remove(doomed.tolist())
    extra = base[rng.integers(0, base.shape[0], size=PAD)]
    backend.add(range(10_000, 10_000 + PAD), extra)
    queries = np.vstack([base, -base[:2], rng.normal(size=(6, 8)), np.zeros((1, 8))])
    n = len(backend)
    # k >= n - PAD takes the full-sort branch: the oracle.
    want_ids, want_scores = backend.query(queries, k=n)
    for k in range(1, 13):
        ids, scores = backend.query(queries, k=k)
        np.testing.assert_array_equal(ids, want_ids[:, :k])
        assert scores.tobytes() == want_scores[:, :k].tobytes()
