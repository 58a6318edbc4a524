"""One contract, every mutable backend: a stateful conformance machine.

A hypothesis ``RuleBasedStateMachine`` drives a backend through build /
add / upsert / remove / rebuild / query — and through *rejected*
operations (wrong dimension, unknown id, duplicate ids in one call),
after which ``len``, membership and query results must be unchanged —
beside a brute-force oracle: a dict ``id -> float64 row``, cosine, and
the (score desc, id asc) total order.

What is asserted is the score contract table of ``docs/serving.md``:

=================== ========= ==========================================
backend             scores    ids
=================== ========= ==========================================
exact, float64      <= 1e-12  equal wherever the oracle's gap to both
exact, float32      <= 1e-6   neighbours exceeds twice that tolerance
exact, float16      <= 1e-3   (a narrower gap is a tie the dtype cannot
sharded exact 1/2/3 as the    resolve; the backend's *own* scores must
                    shards'   still come back in the total order)
hnsw, ivfpq         —         state integrity only: ``len``, live-id
                              membership, rejected operations
=================== ========= ==========================================

The IVF-PQ case trains at 24 rows, so examples cross from its exact
flat buffer into coded search.  Recall floors for HNSW and IVF-PQ stay
with their own suites (ROADMAP item 6).
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.serve import ExactBackend, HNSWBackend, IVFPQBackend, ShardedBackend

DIM = 8

#: Rows every example can draw again: bit-identical duplicates (exact
#: ties), a scaled copy (a tie only up to rounding) and an all-zero row.
_POOL = np.random.default_rng(7).normal(size=(4, DIM))
POOL = np.vstack([_POOL, 3.0 * _POOL[:1], np.zeros((1, DIM))])

#: Fixed probes whose answers a rejected operation must not change.
PROBES = np.vstack([POOL[:2], np.random.default_rng(8).normal(size=(2, DIM))])


@st.composite
def row_blocks(draw, min_rows=1, max_rows=12):
    """Non-unit rows; about one in four is drawn from ``POOL``."""
    count = draw(st.integers(min_rows, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(count, DIM)) * rng.uniform(0.1, 5.0, size=(count, 1))
    pooled = rng.random(count) < 0.25
    rows[pooled] = POOL[rng.integers(0, len(POOL), size=int(pooled.sum()))]
    return rows


def oracle_ranking(rows, queries):
    """Full (ids, scores) ranking per query row: float64 cosine, then
    (score desc, id asc)."""
    ids = np.array(sorted(rows), dtype=np.int64)
    if ids.size == 0:
        empty = np.empty((queries.shape[0], 0))
        return empty.astype(np.int64), empty
    matrix = np.stack([rows[i] for i in ids])

    def unit(m):
        return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)

    sims = unit(queries) @ unit(matrix).T
    tiled = np.broadcast_to(ids, sims.shape)
    order = np.lexsort((tiled, -sims), axis=-1)
    return np.take_along_axis(tiled, order, 1), np.take_along_axis(sims, order, 1)


class BackendConformance(RuleBasedStateMachine):
    """Subclasses set ``make`` and, for exact backends, ``atol``."""

    make = None
    atol = None  # None: state-integrity half only (approximate backends)

    def __init__(self):
        super().__init__()
        self.backend = type(self).make()
        self.rows = {}  # the oracle: id -> float64 row

    # -- helpers --------------------------------------------------------
    def fresh_ids(self, data, count):
        return data.draw(
            st.lists(
                st.integers(0, 5000).filter(lambda i: i not in self.rows),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )

    def live_ids(self, data):
        return data.draw(
            st.lists(
                st.sampled_from(sorted(self.rows)),
                min_size=1,
                max_size=min(6, len(self.rows)),
                unique=True,
            )
        )

    def snapshot(self):
        ids, scores = self.backend.query(PROBES, k=len(self.rows) + 2)
        return len(self.backend), ids, scores

    def rejected(self, error, operation):
        """``operation`` must raise ``error`` and change nothing."""
        size, ids, scores = self.snapshot()
        with pytest.raises(error):
            operation()
        after_size, after_ids, after_scores = self.snapshot()
        assert after_size == size
        np.testing.assert_array_equal(after_ids, ids)
        np.testing.assert_array_equal(after_scores, scores)

    # -- accepted operations --------------------------------------------
    @initialize(rows=row_blocks(min_rows=0, max_rows=30), via_add=st.booleans())
    def start(self, rows, via_add):
        if via_add and rows.shape[0]:  # add() on a never-built backend builds it
            self.backend.add(np.arange(rows.shape[0]), rows)
        else:
            self.backend.build(rows)
        self.rows = {i: row for i, row in enumerate(rows)}

    @rule(rows=row_blocks(min_rows=0, max_rows=30))
    def build(self, rows):
        self.backend.build(rows)
        self.rows = {i: row for i, row in enumerate(rows)}

    @rule(rows=row_blocks(), data=st.data())
    def add_fresh(self, rows, data):
        ids = self.fresh_ids(data, rows.shape[0])
        self.backend.add(ids, rows)
        self.rows.update(zip(ids, rows))

    @rule(rows=row_blocks(max_rows=6), data=st.data())
    def upsert(self, rows, data):
        """Existing ids get new vectors; the rest of the block is fresh."""
        if not self.rows:
            return
        existing = self.live_ids(data)[: rows.shape[0]]
        ids = existing + self.fresh_ids(data, rows.shape[0] - len(existing))
        self.backend.add(np.array(ids), rows)
        self.rows.update(zip(ids, rows))

    @rule(data=st.data())
    def remove(self, data):
        if not self.rows:
            return
        doomed = self.live_ids(data)
        self.backend.remove(doomed)
        for record_id in doomed:
            del self.rows[record_id]

    @rule()
    def rebuild(self):
        self.backend.rebuild()

    # -- rejected operations --------------------------------------------
    @rule(bad_dim=st.sampled_from([1, DIM - 1, DIM + 1]), data=st.data())
    def add_wrong_dimension(self, bad_dim, data):
        ids = self.fresh_ids(data, 1) + (self.live_ids(data) if self.rows else [])
        block = np.ones((len(ids), bad_dim))
        self.rejected(ValueError, lambda: self.backend.add(ids, block))

    @rule(rows=row_blocks(min_rows=2, max_rows=4), data=st.data())
    def add_duplicate_ids(self, rows, data):
        ids = self.fresh_ids(data, rows.shape[0] - 1)
        self.rejected(ValueError, lambda: self.backend.add(ids + ids[:1], rows))

    @rule(data=st.data())
    def remove_unknown_id(self, data):
        ids = self.fresh_ids(data, 1) + (self.live_ids(data) if self.rows else [])
        self.rejected(KeyError, lambda: self.backend.remove(ids))

    @rule(data=st.data())
    def remove_duplicate_ids(self, data):
        if not self.rows:
            return
        ids = self.live_ids(data)
        self.rejected(ValueError, lambda: self.backend.remove(ids + ids[:1]))

    # -- what must always hold ------------------------------------------
    @invariant()
    def size_matches_oracle(self):
        assert len(self.backend) == len(self.rows)

    @rule(
        queries=row_blocks(max_rows=4),
        k=st.sampled_from([1, 3, 10]),
        data=st.data(),
    )
    def query(self, queries, k, data):
        if self.rows and data.draw(st.booleans()):  # an indexed row as the query
            queries = np.vstack([queries, self.rows[self.live_ids(data)[0]]])
        n, wide = len(self.rows), max(len(self.rows), k) + 2  # wide > len
        full_ids, full_scores = self.backend.query(queries, k=wide)
        assert full_ids.shape == full_scores.shape == (queries.shape[0], wide)
        assert full_scores.dtype == np.float64
        # Membership: only live ids, each at most once, -1/-inf padding.
        for row_ids, row_scores in zip(full_ids, full_scores):
            live = row_ids[row_ids >= 0]
            assert set(live.tolist()) <= set(self.rows)
            assert np.unique(live).size == live.size
            assert np.isneginf(row_scores[row_ids < 0]).all()
        if self.atol is None:
            return
        assert (full_ids[:, n:] == -1).all() and (full_ids[:, :n] >= 0).all()
        # A shorter k is a prefix of the full ranking — the argpartition
        # cut and its tie fallback change nothing but the work done.
        ids, scores = self.backend.query(queries, k=k)
        np.testing.assert_array_equal(ids, full_ids[:, :k])
        np.testing.assert_array_equal(scores, full_scores[:, :k])
        # The backend's own scores come back in the total order ...
        got_ids, got = full_ids[:, :n], full_scores[:, :n]
        drop = got[:, :-1] - got[:, 1:]
        assert (drop >= 0).all()
        assert (got_ids[:, :-1] < got_ids[:, 1:])[drop == 0].all()
        # ... and agree with the oracle to the dtype's tolerance; ids
        # wherever the oracle's gap to both neighbours is wider than 2x.
        want_ids, want = oracle_ranking(self.rows, queries)
        np.testing.assert_allclose(got, want, rtol=0, atol=self.atol)
        gap = np.full((queries.shape[0], n + 1), np.inf)
        gap[:, 1:-1] = want[:, :-1] - want[:, 1:]
        clear = np.minimum(gap[:, :-1], gap[:, 1:]) > 2 * self.atol
        np.testing.assert_array_equal(got_ids[clear], want_ids[clear])


def conformance_case(make, atol=None):
    machine = type(
        "Machine", (BackendConformance,), {"make": staticmethod(make), "atol": atol}
    )
    machine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=20, deadline=None
    )
    return machine.TestCase


TestExactFloat64 = conformance_case(lambda: ExactBackend("float64"), atol=1e-12)
TestExactFloat32 = conformance_case(lambda: ExactBackend("float32"), atol=1e-6)
TestExactFloat16 = conformance_case(lambda: ExactBackend("float16"), atol=1e-3)
TestSharded1 = conformance_case(
    lambda: ShardedBackend(lambda: ExactBackend("float64"), 1), atol=1e-12
)
TestSharded2 = conformance_case(
    lambda: ShardedBackend(lambda: ExactBackend("float32"), 2), atol=1e-6
)
TestSharded3 = conformance_case(
    lambda: ShardedBackend(lambda: ExactBackend("float64"), 3), atol=1e-12
)
TestHNSWState = conformance_case(lambda: HNSWBackend(seed=0))
TestIVFPQState = conformance_case(
    lambda: IVFPQBackend(num_cells=2, num_subvectors=4, bits=4, train_threshold=24)
)
