"""Property tests for the KMV pair kernel (``serve/sketch.py``).

``SketchTable.intersections`` replaces a per-pair loop with one row-wise
sort over a padded matrix; its contract is *exact* equality with
the scalar set-based ``intersection()`` — no tolerance — because batch-
scored join rankings are pinned byte-equal to the per-pair scorer.  The
strategies below build sketches straight from hash values so that the
cases a value-driven generator almost never meets are routine: shared
hashes, mixed ``k``, truncated beside exact, empty sides, a hash of 0 and
a hash of ``2**64 - 1`` (the kernel's padding value).
"""

import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SudowoodoConfig
from repro.data.generators import generate_lake
from repro.discovery import (
    LakeIndex,
    ProfileStore,
    hashed_embedder,
    profile_lake,
    rank_lake_candidates,
)
from repro.discovery.join import _rank_pairwise
from repro.serve import ContainmentSketch
from repro.serve.sketch import SketchTable

MAX_HASH = 2**64 - 1

#: A small pool makes two independently drawn sketches share hashes; the
#: extremes are in it so they land inside and at the edge of bottom-k cuts.
POOL = [0, 1, 7, MAX_HASH, MAX_HASH - 1, 2**63, 2**63 + 1, 2**32] + [
    (i * 0x9E3779B97F4A7C15) % 2**64 for i in range(1, 25)
]

hashes = st.one_of(st.sampled_from(POOL), st.integers(0, MAX_HASH))


def intersection_pairs(lefts, rights):
    """``|lefts[p] ∩ rights[p]|`` for every pair, through one table."""
    table = SketchTable([*lefts, *rights])
    pairs = np.arange(len(lefts), dtype=np.int64)
    return table.intersections(pairs, pairs + len(lefts))


def containment_many(anchor, others):
    """``|anchor ∩ other| / |anchor|`` for every sketch in ``others``."""
    mine = anchor.cardinality()
    if mine <= 0:
        return np.zeros(len(others), dtype=np.float64)
    return np.minimum(1.0, anchor.intersection_many(others) / mine)


@st.composite
def sketches(draw):
    """Exact (every observed hash kept) or truncated (``k`` kept of more)."""
    k = draw(st.sampled_from([1, 2, 3, 8, 16]))
    kept = sorted(draw(st.sets(hashes, max_size=k)))
    truncated = len(kept) == k and draw(st.booleans())
    distinct = len(kept) + (draw(st.integers(1, 500)) if truncated else 0)
    return ContainmentSketch.from_dict({"k": k, "distinct": distinct, "hashes": kept})


@settings(max_examples=150, deadline=None)
@given(pool=st.lists(sketches(), min_size=1, max_size=6), data=st.data())
def test_intersection_pairs_equals_scalar(pool, data):
    index = st.integers(0, len(pool) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=12))
    pairs += pairs[:3]  # the same pair twice in one batch
    lefts = [pool[i] for i, _ in pairs]
    rights = [pool[j] for _, j in pairs]
    batch = intersection_pairs(lefts, rights)
    assert batch.dtype == np.float64 and batch.shape == (len(pairs),)
    assert batch.tolist() == [a.intersection(b) for a, b in zip(lefts, rights)]


@settings(max_examples=100, deadline=None)
@given(anchor=sketches(), others=st.lists(sketches(), max_size=6))
def test_many_forms_equal_scalar(anchor, others):
    assert anchor.intersection_many(others).tolist() == [
        anchor.intersection(other) for other in others
    ]
    assert containment_many(anchor, others).tolist() == [
        anchor.containment(other) for other in others
    ]


@given(low=sketches())
def test_a_genuine_max_hash_is_counted(low):
    """The padding value as a real member on both sides: shared, and the
    k-th hash of a truncated union."""
    top = ContainmentSketch.from_dict({"k": 4, "distinct": 1, "hashes": [MAX_HASH]})
    assert intersection_pairs([top], [top]).tolist() == [1.0]
    both = ContainmentSketch.from_dict(
        {"k": 2, "distinct": 9, "hashes": [MAX_HASH - 1, MAX_HASH]}
    )
    for a, b in [(both, top), (top, both), (both, both), (low, top), (both, low)]:
        assert intersection_pairs([a], [b]).tolist() == [
            a.intersection(b)
        ]


@given(sketch=sketches())
def test_payload_format_unchanged(sketch):
    """``to_dict`` is what stores on disk hold: plain ints, sorted, three
    keys — and it round-trips through JSON to an equal sketch."""
    payload = sketch.to_dict()
    assert sorted(payload) == ["distinct", "hashes", "k"]
    assert all(type(h) is int for h in payload["hashes"])
    assert payload["hashes"] == sorted(payload["hashes"])
    restored = ContainmentSketch.from_dict(json.loads(json.dumps(payload)))
    assert restored.to_dict() == payload
    assert restored.cardinality() == sketch.cardinality()


def test_payload_written_before_the_array_layout_still_loads():
    stored = {"k": 4, "distinct": 7, "hashes": [3, 18446744073709551615, 12, 5]}
    sketch = ContainmentSketch.from_dict(stored)
    assert sketch.to_dict() == {**stored, "hashes": sorted(stored["hashes"])}
    assert not sketch.is_exact and len(sketch) == 7


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sketch_k=st.sampled_from([2, 3, 5]),
    num_shards=st.sampled_from([1, 2, 3]),
)
def test_lake_ranking_parity_with_truncated_sketches(seed, sketch_k, num_shards):
    """``sketch_k`` below the column cardinality: the KMV branch of the
    kernel, not only the exact one, feeds a whole lake ranking."""
    tables = generate_lake(num_tables=10, rows=12, tables_per_pod=4, seed=seed).tables
    with tempfile.TemporaryDirectory() as directory:
        lake = profile_lake(
            tables, ProfileStore(directory), hashed_embedder(dim=16), sketch_k=sketch_k
        )
        assert any(not profile.sketch.is_exact for profile in lake.profiles)
        index = LakeIndex(SudowoodoConfig(num_shards=num_shards))
        index.update(lake)
        normalized = lake.normalized.astype(np.float32)
        batches = index.iter_candidate_pairs(lake.profiles, normalized, 4)
        batched, pairwise = (
            [(c.pair, c.score, c.containment, c.cosine) for c in ranked]
            for ranked in (
                rank_lake_candidates(lake, index, k=4),
                _rank_pairwise(lake.profiles, normalized, batches, 0.5, 0.0, None),
            )
        )
    assert batched and batched == pairwise
