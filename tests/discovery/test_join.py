"""Join-discovery engine tests: containment sketches, candidate ranking,
and shard-count invariance of the rankings.  Rankings run on the one
path: ``profile_lake`` -> ``LakeIndex.update`` -> ``rank_lake_candidates``."""

import numpy as np
import pytest

from repro.core.config import SudowoodoConfig
from repro.data.generators import generate_joinable_tables
from repro.data.records import Table
from repro.discovery import (
    LakeIndex,
    ProfileStore,
    group_by_table,
    hashed_embedder,
    profile_lake,
    profile_tables,
    rank_lake_candidates,
)
from repro.discovery.join import _rank_pairwise
from repro.serve import ContainmentSketch


def containment_many(anchor, others):
    """``|anchor ∩ other| / |anchor|`` for every sketch in ``others``."""
    mine = anchor.cardinality()
    if mine <= 0:
        return np.zeros(len(others), dtype=np.float64)
    return np.minimum(1.0, anchor.intersection_many(others) / mine)


class TestContainmentSketch:
    def test_exact_at_small_cardinality(self):
        a = ContainmentSketch.from_values([f"v{i}" for i in range(30)], k=64)
        b = ContainmentSketch.from_values([f"v{i}" for i in range(15, 45)], k=64)
        assert a.is_exact and b.is_exact
        assert a.cardinality() == pytest.approx(30)
        assert a.intersection(b) == pytest.approx(15)
        assert a.containment(b) == pytest.approx(0.5)
        assert a.jaccard(b) == pytest.approx(15 / 45)

    def test_duplicates_and_empties_ignored(self):
        sketch = ContainmentSketch.from_values(["x", "x", "", "y", "x"], k=8)
        assert len(sketch) == 2
        assert sketch.cardinality() == pytest.approx(2)

    def test_estimates_within_tolerance_when_sketched(self):
        universe = [f"value-{i:05d}" for i in range(4000)]
        a = ContainmentSketch.from_values(universe[:3000], k=256)
        b = ContainmentSketch.from_values(universe[1000:4000], k=256)
        assert not a.is_exact
        assert a.cardinality() == pytest.approx(3000, rel=0.15)
        # True containment |A∩B|/|A| = 2000/3000.
        assert a.containment(b) == pytest.approx(2 / 3, abs=0.12)

    def test_disjoint_sets_have_zero_containment(self):
        a = ContainmentSketch.from_values([f"a{i}" for i in range(500)], k=128)
        b = ContainmentSketch.from_values([f"b{i}" for i in range(500)], k=128)
        assert a.containment(b) == pytest.approx(0.0, abs=0.05)

    def test_order_insensitive(self):
        values = [f"v{i}" for i in range(1000)]
        forward = ContainmentSketch.from_values(values, k=64)
        backward = ContainmentSketch.from_values(values[::-1], k=64)
        assert forward.cardinality() == backward.cardinality()


class TestBatchedSketch:
    """The batched estimators must be bit-identical to the scalar path —
    they are what keeps batch-scored rankings byte-equal to per-pair."""

    def _random_sketch(self, rng, k):
        size = int(rng.integers(0, 400))
        values = [f"v{int(v)}" for v in rng.integers(0, 600, size=size)]
        return ContainmentSketch.from_values(values, k=k)

    def test_intersection_and_containment_many_match_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k_self = int(rng.choice([4, 32, 64, 256]))
            anchor = self._random_sketch(rng, k_self)
            others = [
                self._random_sketch(rng, int(rng.choice([4, 32, 64, 256])))
                for _ in range(6)
            ]
            intersections = anchor.intersection_many(others)
            containments = containment_many(anchor, others)
            for idx, other in enumerate(others):
                assert intersections[idx] == anchor.intersection(other)
                assert containments[idx] == anchor.containment(other)

    def test_empty_inputs(self):
        empty = ContainmentSketch(k=8)
        full = ContainmentSketch.from_values(["a", "b"], k=8)
        assert empty.intersection_many([full]).tolist() == [0.0]
        assert containment_many(empty, [full]).tolist() == [0.0]
        assert full.intersection_many([empty]).tolist() == [0.0]
        assert full.intersection_many([]).size == 0

    def test_dict_round_trip_is_exact(self):
        sketch = ContainmentSketch.from_values(
            [f"v{i}" for i in range(500)], k=64
        )
        other = ContainmentSketch.from_values([f"v{i}" for i in range(100, 700)], k=64)
        restored = ContainmentSketch.from_dict(sketch.to_dict())
        assert restored.k == sketch.k
        assert len(restored) == len(sketch)
        assert restored.cardinality() == sketch.cardinality()
        assert restored.containment(other) == sketch.containment(other)
        # JSON-safe: the payload survives serialization.
        import json

        assert ContainmentSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        ).containment(other) == sketch.containment(other)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"k": 8, "distinct": -1, "hashes": []},
            {"k": 2, "distinct": 5, "hashes": [1, 2, 3]},
            {"k": 8, "distinct": 1, "hashes": [-4]},
            {"k": 8, "distinct": 1, "hashes": "nope"},
        ],
    )
    def test_corrupt_payloads_raise(self, payload):
        with pytest.raises(ValueError, match="corrupt sketch payload"):
            ContainmentSketch.from_dict(payload)


@pytest.fixture(scope="module")
def bundle():
    return generate_joinable_tables(num_tables=4, rows=30, seed=7)


@pytest.fixture(scope="module")
def profiles(bundle):
    return profile_tables(bundle.tables)


@pytest.fixture(scope="module")
def profile(bundle, tmp_path_factory):
    """``profile(tables, store_dtype)``: a ``LakeProfile`` embedded by the
    hashed bag-of-values stand-in.  Columns drawing from the same pool
    share values, hence similar vectors — enough signal for the ANN
    candidate stage without a trained encoder."""
    embed = hashed_embedder(dim=64)

    def build(tables=bundle.tables, store_dtype="float32"):
        directory = tmp_path_factory.mktemp("profiles")
        return profile_lake(tables, ProfileStore(directory, store_dtype), embed)

    return build


def rank(lake, config=None, k=6, **options):
    """A fresh index over ``lake`` (one update), then its ranking."""
    index = LakeIndex(config or SudowoodoConfig())
    index.update(lake)
    return rank_lake_candidates(lake, index, k=k, **options)


def rank_pairwise(lake, config=None, k=6, alpha=0.5, min_score=0.0, top=None):
    """The per-pair oracle over the candidate stream a fresh index proposes."""
    config = config or SudowoodoConfig()
    index = LakeIndex(config)
    index.update(lake)
    normalized = lake.normalized.astype(np.dtype(config.store_dtype), copy=False)
    batches = index.iter_candidate_pairs(lake.profiles, normalized, k)
    return _rank_pairwise(lake.profiles, normalized, batches, alpha, min_score, top)


class TestRanking:
    def test_profiles_cover_every_column(self, bundle, profiles):
        assert len(profiles) == bundle.num_columns
        refs = {profile.ref for profile in profiles}
        assert refs == set(bundle.columns())

    def test_truth_pairs_rank_above_noise(self, bundle, profile):
        candidates = rank(profile(), alpha=0.6)
        assert candidates, "expected at least one candidate"
        n = len(bundle.joinable)
        top = {candidate.pair for candidate in candidates[:n]}
        hits = len(top & bundle.joinable)
        assert hits / n >= 0.6
        # Sorted by score, tie-broken deterministically.
        keys = [(-c.score, c.pair) for c in candidates]
        assert keys == sorted(keys)

    def test_no_intra_table_pairs_by_default(self, profile):
        for candidate in rank(profile()):
            assert candidate.table_a != candidate.table_b

    def test_scores_blend_containment_and_cosine(self, profile):
        for candidate in rank(profile(), alpha=0.5):
            expected = 0.5 * candidate.containment + 0.5 * max(
                candidate.cosine, 0.0
            )
            assert candidate.score == pytest.approx(expected)

    def test_ranking_invariant_across_shard_counts(self, profile):
        lake = profile()
        rankings = []
        for num_shards in (1, 2, 3):
            candidates = rank(lake, SudowoodoConfig(num_shards=num_shards))
            rankings.append(
                [(c.pair, round(c.score, 12)) for c in candidates]
            )
        assert rankings[0] == rankings[1] == rankings[2]

    def test_group_by_table_preserves_rank_order(self, profile):
        candidates = rank(profile())
        grouped = group_by_table(candidates)
        order = {id(c): rank for rank, c in enumerate(candidates)}
        for table, members in grouped.items():
            assert all(
                table in (c.table_a, c.table_b) for c in members
            )
            ranks = [order[id(c)] for c in members]
            assert ranks == sorted(ranks)

    def test_mismatched_inputs_raise(self, bundle, profile):
        lake = profile()
        index = LakeIndex(SudowoodoConfig())
        index.update(lake)
        first = sorted(bundle.tables)[0]
        smaller = profile({first: bundle.tables[first]})
        with pytest.raises(ValueError, match="profiles"):
            rank_lake_candidates(smaller, index)
        with pytest.raises(ValueError, match="alpha"):
            rank_lake_candidates(lake, index, alpha=1.5)

    def test_fewer_than_two_columns_yields_nothing(self, bundle, profile):
        table = bundle.tables[sorted(bundle.tables)[0]]
        single = Table(table.name, table.schema[:1], table.records)
        assert rank(profile({table.name: single})) == []
        assert rank(profile({})) == []


class TestBatchedScorer:
    """The bounded-memory batch scorer vs the legacy per-pair oracle."""

    def _key(self, candidates):
        return [
            (c.pair, c.score, c.containment, c.cosine) for c in candidates
        ]

    def test_batched_identical_to_pairwise(self, profile):
        lake = profile()
        # Byte-identical: same pairs, same float scores, no tolerance.
        assert self._key(rank(lake)) == self._key(rank_pairwise(lake))

    def test_batch_size_does_not_change_ranking(self, profile):
        lake = profile()
        baseline = rank(lake, batch_size=1024)
        for batch_size in (1, 3, 7):
            assert self._key(rank(lake, batch_size=batch_size)) == self._key(
                baseline
            )

    def test_top_heap_equals_truncated_full_ranking(self, profile):
        lake = profile()
        full = rank(lake)
        for top in (1, 3, 10, len(full), len(full) + 5):
            bounded = rank(lake, top=top)
            assert self._key(bounded) == self._key(full[:top])

    @pytest.mark.parametrize("store_dtype", ["float64", "float32", "float16"])
    def test_store_dtype_respected_and_paths_agree(self, profile, store_dtype):
        from repro.text.similarity import normalize_rows

        lake = profile(store_dtype=store_dtype)
        normalized = normalize_rows(lake.vectors, dtype=store_dtype)
        assert normalized.dtype == np.dtype(store_dtype)
        config = SudowoodoConfig(store_dtype=store_dtype)
        assert self._key(rank(lake, config)) == self._key(rank_pairwise(lake, config))

    def test_min_score_filters_both_paths_identically(self, profile):
        lake = profile()
        batched = rank(lake, min_score=0.4)
        pairwise = rank_pairwise(lake, min_score=0.4)
        assert batched and all(c.score >= 0.4 for c in batched)
        assert all(c.score >= 0.4 for c in pairwise)
        assert self._key(batched) == self._key(pairwise)
