"""Dedupe engine tests: union-find streaming clustering (pinned to the
networkx partition), conflict-resolution merge policies, self-join
dataset construction, and pairwise metrics."""

import numpy as np
import pytest

from repro.columns import cluster_columns
from repro.data.generators import generate_column_corpus, generate_dirty_duplicates
from repro.data.records import Record
from repro.discovery import (
    MERGE_POLICIES,
    DisjointSet,
    cluster_pairs,
    duplicate_clusters,
    iter_duplicate_clusters,
    merge_records,
    pairwise_metrics,
    self_match_dataset,
)
from repro.discovery.dedupe import _networkx_clusters


class TestDuplicateClusters:
    def test_partition_with_singletons(self):
        clusters = duplicate_clusters(6, [(0, 1), (1, 2)])
        assert clusters == [[0, 1, 2], [3], [4], [5]]

    def test_every_record_appears_exactly_once(self):
        clusters = duplicate_clusters(10, [(2, 7), (7, 9), (0, 4)])
        flat = sorted(index for cluster in clusters for index in cluster)
        assert flat == list(range(10))

    def test_no_edges_means_all_singletons(self):
        assert duplicate_clusters(4, []) == [[0], [1], [2], [3]]

    def test_orientation_and_self_edges_ignored(self):
        forward = duplicate_clusters(4, [(0, 1), (1, 1)])
        backward = duplicate_clusters(4, [(1, 0)])
        assert forward == backward == [[0, 1], [2], [3]]

    def test_out_of_range_edges_dropped(self):
        assert duplicate_clusters(3, [(0, 5), (1, 2)]) == [[0], [1, 2]]


class TestDisjointSet:
    def test_union_and_find(self):
        ds = DisjointSet(5)
        assert ds.union(0, 1)
        assert ds.union(1, 2)
        assert not ds.union(0, 2)  # already connected
        assert ds.connected(0, 2)
        assert not ds.connected(0, 3)

    def test_add_edges_counts_merges_and_ignores_junk(self):
        ds = DisjointSet(4)
        merges = ds.add_edges([(0, 1), (1, 0), (2, 2), (-1, 3), (3, 9), (1, 2)])
        assert merges == 2
        assert list(ds.iter_clusters()) == [[0, 1, 2], [3]]

    def test_empty_structure(self):
        ds = DisjointSet(0)
        assert len(ds) == 0
        assert list(ds.iter_clusters()) == []
        with pytest.raises(ValueError):
            DisjointSet(-1)

    def test_partition_matches_networkx_on_random_graphs(self):
        # The ISSUE's streaming contract: union-find output pinned equal
        # to the networkx connected-components partition, seeded.
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            num_edges = int(rng.integers(0, 120))
            edges = [
                (int(a), int(b))
                for a, b in rng.integers(-3, n + 3, size=(num_edges, 2))
            ]
            assert duplicate_clusters(n, edges) == _networkx_clusters(n, edges)

    def test_cluster_columns_partition_matches_networkx(self):
        # Type discovery runs on the same union-find: same partition and
        # same cluster order as the networkx components it used to build,
        # self-loops and duplicate edges included.
        corpus = generate_column_corpus(50, seed=3)
        rng = np.random.default_rng(7)
        for _ in range(40):
            num_edges = int(rng.integers(0, 90))
            edges = [
                (int(a), int(b))
                for a, b in rng.integers(0, len(corpus), size=(num_edges, 2))
            ]
            edges += edges[: num_edges // 3] + [(5, 5), (0, 0)]
            assert cluster_columns(corpus, edges) == _networkx_clusters(
                len(corpus), edges
            )


class TestIterDuplicateClusters:
    def test_streaming_matches_wrapper(self):
        edges = [(0, 3), (3, 5), (1, 2)]
        assert list(iter_duplicate_clusters(7, edges)) == duplicate_clusters(
            7, edges
        )

    def test_consumes_edge_generator_lazily(self):
        seen = []

        def edge_feed():
            for edge in [(0, 1), (2, 3)]:
                seen.append(edge)
                yield edge

        clusters = list(iter_duplicate_clusters(5, edge_feed()))
        assert clusters == [[0, 1], [2, 3], [4]]
        assert seen == [(0, 1), (2, 3)]

    def test_yields_merged_canonical_records(self):
        records = [
            Record(record_id=0, attributes={"name": "ab"}),
            Record(record_id=1, attributes={"name": "abcd"}),
            Record(record_id=2, attributes={"name": "z"}),
        ]
        out = list(
            iter_duplicate_clusters(3, [(0, 1)], records=records, policy="longest")
        )
        assert [members for members, _ in out] == [[0, 1], [2]]
        merged = {tuple(members): rec for members, rec in out}
        assert merged[(0, 1)].get("name") == "abcd"
        assert merged[(0, 1)].record_id == 0  # cluster position
        assert merged[(2,)].get("name") == "z"

    def test_record_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="records"):
            list(iter_duplicate_clusters(3, [], records=[]))


def record(rid, **attrs):
    return Record(record_id=rid, attributes=attrs)


class TestMergePolicies:
    def test_longest_wins_and_ties_break_lexicographically(self):
        merged = merge_records(
            [
                record(0, name="acme corp", brand="zz"),
                record(1, name="acme corporation ltd", brand="aa"),
            ],
            policy="longest",
        )
        assert merged.get("name") == "acme corporation ltd"
        assert merged.get("brand") == "aa"  # equal length -> lexicographic

    def test_most_frequent_wins_over_longest(self):
        merged = merge_records(
            [
                record(0, name="acme"),
                record(1, name="acme"),
                record(2, name="acme corporation international"),
            ],
            policy="most_frequent",
        )
        assert merged.get("name") == "acme"

    def test_newest_follows_timestamp_attribute(self):
        merged = merge_records(
            [
                record(0, name="old name", updated="2023-01-05"),
                record(1, name="new name", updated="2023-11-20"),
                record(2, name="mid name", updated="2023-06-01"),
            ],
            policy="newest",
        )
        assert merged.get("name") == "new name"

    @pytest.mark.parametrize("policy", MERGE_POLICIES)
    def test_empty_values_never_win(self, policy):
        merged = merge_records(
            [
                record(0, name="", updated="2023-12-31"),
                record(1, name="kept", updated="2023-01-01"),
            ],
            policy=policy,
        )
        assert merged.get("name") == "kept"

    @pytest.mark.parametrize("policy", MERGE_POLICIES)
    def test_all_empty_stays_empty(self, policy):
        merged = merge_records(
            [record(0, name=""), record(1, name="")], policy=policy
        )
        assert merged.get("name") == ""

    def test_conflicting_values_resolved_per_policy(self):
        cluster = [
            record(0, name="ab", updated="2023-03-01"),
            record(1, name="ab", updated="2023-02-01"),
            record(2, name="abcdef", updated="2023-01-01"),
        ]
        assert merge_records(cluster, policy="longest").get("name") == "abcdef"
        assert merge_records(cluster, policy="most_frequent").get("name") == "ab"
        assert merge_records(cluster, policy="newest").get("name") == "ab"

    def test_schema_union_preserves_first_seen_order(self):
        merged = merge_records(
            [record(0, a="1", b="2"), record(1, b="3", c="4")]
        )
        assert list(merged.attributes) == ["a", "b", "c"]

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError, match="empty cluster"):
            merge_records([])
        with pytest.raises(ValueError, match="policy"):
            merge_records([record(0, a="x")], policy="nope")


class TestSelfMatchDataset:
    def test_both_sides_are_the_same_table(self):
        bundle = generate_dirty_duplicates(num_entities=8, seed=3)
        dataset = self_match_dataset(bundle.table, bundle.duplicate_pairs())
        assert dataset.table_a is dataset.table_b is bundle.table
        assert dataset.matches == bundle.duplicate_pairs()

    def test_labeled_split_has_positives_and_negatives(self):
        bundle = generate_dirty_duplicates(num_entities=8, seed=3)
        truth = bundle.duplicate_pairs()
        dataset = self_match_dataset(bundle.table, truth, negative_ratio=3)
        labeled = (
            list(dataset.pairs.train)
            + list(dataset.pairs.valid)
            + list(dataset.pairs.test)
        )
        assert labeled
        for pair in labeled:
            expected = 1 if (min(pair.left, pair.right), max(pair.left, pair.right)) in truth else 0
            assert pair.label == expected
        positives = sum(p.label for p in labeled)
        assert positives == len(truth)
        assert len(labeled) - positives <= 3 * len(truth)

    def test_without_truth_splits_are_empty(self):
        bundle = generate_dirty_duplicates(num_entities=6, seed=1)
        dataset = self_match_dataset(bundle.table)
        assert not dataset.pairs.train
        assert not dataset.pairs.valid
        assert not dataset.pairs.test

    def test_seed_determinism(self):
        bundle = generate_dirty_duplicates(num_entities=8, seed=3)
        truth = bundle.duplicate_pairs()
        one = self_match_dataset(bundle.table, truth, seed=5)
        two = self_match_dataset(bundle.table, truth, seed=5)
        as_tuples = lambda ds: [
            (p.left, p.right, p.label) for p in ds.pairs.all_pairs()
        ]
        assert as_tuples(one) == as_tuples(two)


class TestPairwiseMetrics:
    def test_perfect_prediction(self):
        truth = {(0, 1), (2, 3)}
        metrics = pairwise_metrics(truth, truth)
        assert metrics == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_cluster_pairs_is_transitive_closure(self):
        assert cluster_pairs([[0, 1, 2], [3]]) == {(0, 1), (0, 2), (1, 2)}

    def test_cluster_pairs_matches_nested_loop(self):
        # The vectorized triu implementation against the obvious loops:
        # plain int tuples, unsorted input handled, seeded random shapes.
        rng = np.random.default_rng(9)
        for _ in range(15):
            clusters = [
                rng.choice(200, size=rng.integers(1, 12), replace=False).tolist()
                for _ in range(rng.integers(0, 6))
            ]
            expected = set()
            for cluster in clusters:
                members = sorted(cluster)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        expected.add((a, b))
            got = cluster_pairs(clusters)
            assert got == expected
            assert all(
                isinstance(a, int) and isinstance(b, int) for a, b in got
            )

    def test_partial_overlap(self):
        metrics = pairwise_metrics({(0, 1), (4, 5)}, {(0, 1), (2, 3)})
        assert metrics["precision"] == pytest.approx(0.5)
        assert metrics["recall"] == pytest.approx(0.5)
        assert metrics["f1"] == pytest.approx(0.5)

    def test_empty_sides(self):
        assert pairwise_metrics([], [(0, 1)])["f1"] == 0.0
        assert pairwise_metrics([(0, 1)], [])["recall"] == 0.0
