"""Lake-scale discovery tests: the persistent profile cache (warm-vs-cold
byte identity, fingerprint-granular invalidation), the delta-maintained
live index, and the lake ranking contract."""

import json

import numpy as np
import pytest

from repro.core.config import SudowoodoConfig
from repro.data.generators import generate_lake, mutate_lake
from repro.discovery import (
    ColumnProfile,
    LakeIndex,
    ProfileStore,
    column_fingerprint,
    hashed_embedder,
    profile_lake,
    profile_tables,
    rank_lake_candidates,
)
from repro.data.records import Table, serialize_column
from repro.discovery.join import _rank_pairwise
from repro.serve import ContainmentSketch
from repro.utils.fingerprint import text_fingerprint

EMBED = hashed_embedder(dim=32)


@pytest.fixture()
def lake_tables():
    return generate_lake(num_tables=12, rows=10, tables_per_pod=4, seed=5)


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "profiles")


class TestColumnFingerprint:
    def test_content_addressed(self):
        assert column_fingerprint(["a", "b"]) == column_fingerprint(["a", "b"])
        assert column_fingerprint(["a", "b"]) != column_fingerprint(["b", "a"])
        assert column_fingerprint(["a", "b"]) != column_fingerprint(["ab"])

    def test_parameters_are_part_of_the_key(self):
        values = ["x", "y", "z"]
        assert column_fingerprint(values, max_values=12) != column_fingerprint(
            values, max_values=8
        )
        assert column_fingerprint(values, sketch_k=256) != column_fingerprint(
            values, sketch_k=64
        )

    def test_a_separator_in_a_cell_cannot_forge_a_boundary(self, store):
        assert column_fingerprint(["x\x1fy"]) != column_fingerprint(["x", "y"])
        assert column_fingerprint(["x\x1f", "y"]) != column_fingerprint(["x", "\x1fy"])
        one, two = Table(name="one", schema=["c"]), Table(name="two", schema=["c"])
        one.append({"c": "x\x1fy"})
        for value in ("x", "y"):
            two.append({"c": value})
        lake = profile_lake({"one": one, "two": two}, store, EMBED)
        assert [p.num_values for p in lake.profiles] == [1, 2]
        assert lake.profiles[1].text == serialize_column(["x", "y"], max_values=12)
        assert lake.computed == 2 and len(store) == 2

    def test_columns_without_the_separator_keep_their_fingerprint(self):
        """What on-disk stores are keyed by: the values joined on \\x1f."""
        assert column_fingerprint(["a", "b"], max_values=8, sketch_k=64) == (
            text_fingerprint("8\x1f64\x1fa\x1fb")
        )
        assert column_fingerprint([]) == text_fingerprint("12\x1f256")


class TestProfileStore:
    def test_round_trip_through_reopen(self, tmp_path, lake_tables):
        path = tmp_path / "cache"
        cold = profile_lake(lake_tables.tables, ProfileStore(path), EMBED)
        warm = profile_lake(lake_tables.tables, ProfileStore(path), EMBED)
        assert warm.computed == 0
        assert warm.reused == len(warm.profiles)
        np.testing.assert_array_equal(cold.vectors, warm.vectors)

    def test_put_many_rejects_duplicates_and_misalignment(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        profile = lake.profiles[0]
        fingerprint = lake.fingerprints[0]
        with pytest.raises(ValueError, match="already cached"):
            store.put_many([fingerprint], [profile], np.zeros((1, 32)))
        with pytest.raises(ValueError, match="align"):
            store.put_many(["fp1", "fp2"], [profile], np.zeros((1, 32)))
        with pytest.raises(ValueError, match="duplicate"):
            store.put_many(
                ["fp1", "fp1"], [profile, profile], np.zeros((2, 32))
            )

    def test_unknown_fingerprint_raises(self, store):
        with pytest.raises(KeyError):
            store.profile("nope", "t", "c")
        with pytest.raises(KeyError):
            store.vectors(["nope"])

    def test_corrupt_profiles_file_raises(self, tmp_path):
        path = tmp_path / "bad"
        ProfileStore(path)  # creates the directory
        (path / "profiles.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt profile store"):
            ProfileStore(path)
        (path / "profiles.json").write_text(
            json.dumps({"format_version": 99, "columns": {}}), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="unsupported profile store"):
            ProfileStore(path)


class TestProfileJournal:
    """``profiles.jsonl``: O(delta) appends, replay on reopen, and the
    two things a crash can leave behind."""

    def _filled(self, path, lake_tables):
        store = ProfileStore(path)
        lake = profile_lake(lake_tables.tables, store, EMBED)
        return store, lake

    def _column(self, index, k=16):
        values = [f"value-{index}-{j}" for j in range(6)]
        sketch = ContainmentSketch.from_values(values, k=k)
        return ColumnProfile("t", f"c{index}", " ".join(values), sketch, len(values))

    def test_reopen_replays_every_entry(self, tmp_path, lake_tables):
        store, lake = self._filled(tmp_path / "cache", lake_tables)
        reopened = ProfileStore(tmp_path / "cache")
        assert len(reopened) == len(store)
        for fingerprint in lake.fingerprints:
            ours = store.profile(fingerprint, "t", "c")
            theirs = reopened.profile(fingerprint, "t", "c")
            assert ours.text == theirs.text
            assert ours.num_values == theirs.num_values
            assert ours.sketch.to_dict() == theirs.sketch.to_dict()
        np.testing.assert_array_equal(
            store.vectors(lake.fingerprints), reopened.vectors(lake.fingerprints)
        )

    def test_put_many_bytes_independent_of_store_size(self, tmp_path):
        store = ProfileStore(tmp_path / "cache")
        journal = tmp_path / "cache" / "profiles.jsonl"
        grown = []
        for batch in range(6):
            columns = [self._column(batch * 50 + i) for i in range(50 if batch % 2 else 2)]
            fingerprints = [f"fp-{batch}-{i:03d}" for i in range(len(columns))]
            before = journal.stat().st_size if journal.is_file() else 0
            store.put_many(fingerprints, columns, np.ones((len(columns), 4)))
            grown.append((len(columns), journal.stat().st_size - before))
        # Two-entry appends cost the same bytes (within the width of a
        # vector id) whether the store holds 2 entries or 100+.
        small = [size for count, size in grown[2:] if count == 2]
        assert max(small) - min(small) <= 4
        assert max(small) < min(size for count, size in grown if count == 50) / 10

    def test_torn_final_line_is_dropped_and_compacted(self, tmp_path, lake_tables):
        store, lake = self._filled(tmp_path / "cache", lake_tables)
        journal = tmp_path / "cache" / "profiles.jsonl"
        whole = journal.read_bytes()
        last_line = whole.rstrip(b"\n").rsplit(b"\n", 1)[1]
        journal.write_bytes(whole[: -len(last_line) // 2])  # crash mid-append
        recovered = ProfileStore(tmp_path / "cache")
        assert len(recovered) == len(store) - 1
        assert journal.read_bytes().endswith(b"}\n")  # fragment gone
        # The lost column is simply re-profiled; nothing else recomputes.
        warm = profile_lake(lake_tables.tables, recovered, EMBED)
        assert warm.computed >= 1
        assert warm.reused == len(warm.profiles) - warm.computed
        assert len(ProfileStore(tmp_path / "cache")) == len(store)

    def test_entry_without_a_vector_row_is_dropped(self, tmp_path):
        store = ProfileStore(tmp_path / "cache")
        store.put_many(["fp-a"], [self._column(0)], np.ones((1, 4)))
        journal = tmp_path / "cache" / "profiles.jsonl"
        ahead = json.loads(journal.read_text().splitlines()[1])
        ahead.update(fingerprint="fp-b", vector_id=1)  # its vector never landed
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(ahead) + "\n")
        recovered = ProfileStore(tmp_path / "cache")
        assert "fp-a" in recovered and "fp-b" not in recovered
        # Row id 1 is handed out again; the dropped line must not come
        # back to claim it on the next reopen.
        recovered.put_many(["fp-c"], [self._column(2)], np.full((1, 4), 2.0))
        final = ProfileStore(tmp_path / "cache")
        assert "fp-b" not in final
        np.testing.assert_array_equal(final.vectors(["fp-c"]), np.full((1, 4), 2.0))

    @pytest.mark.parametrize("damage", ["middle", "header", "duplicate"])
    def test_other_damage_raises(self, tmp_path, lake_tables, damage):
        self._filled(tmp_path / "cache", lake_tables)
        journal = tmp_path / "cache" / "profiles.jsonl"
        lines = journal.read_text(encoding="utf-8").splitlines()
        if damage == "middle":
            lines[3] = lines[3][:20]
        elif damage == "header":
            lines[0] = json.dumps({"format_version": 99})
        else:
            lines.append(lines[1])
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        match = "unsupported" if damage == "header" else "corrupt profile store"
        with pytest.raises(ValueError, match=match):
            ProfileStore(tmp_path / "cache")

    def test_legacy_document_is_read_then_journaled(self, tmp_path, lake_tables):
        store, lake = self._filled(tmp_path / "cache", lake_tables)
        journal = tmp_path / "cache" / "profiles.jsonl"
        entries = [json.loads(line) for line in journal.read_text().splitlines()[1:]]
        journal.unlink()
        (tmp_path / "cache" / "profiles.json").write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "store_dtype": "float32",
                    "columns": {e.pop("fingerprint"): e for e in entries},
                }
            ),
            encoding="utf-8",
        )
        legacy = ProfileStore(tmp_path / "cache")
        assert len(legacy) == len(store)
        warm = profile_lake(lake_tables.tables, legacy, EMBED)
        assert warm.computed == 0
        np.testing.assert_array_equal(warm.vectors, lake.vectors)
        legacy.put_many(["fp-new"], [self._column(1)], np.ones((1, 32)))
        assert len(ProfileStore(tmp_path / "cache")) == len(store) + 1


class TestProfileLake:
    def test_warm_equals_cold_byte_identical(self, store, lake_tables):
        cold = profile_lake(lake_tables.tables, store, EMBED)
        warm = profile_lake(lake_tables.tables, store, EMBED)
        assert cold.fingerprints == warm.fingerprints
        assert [p.ref for p in cold.profiles] == [p.ref for p in warm.profiles]
        for a, b in zip(cold.profiles, warm.profiles):
            assert a.text == b.text
            assert a.num_values == b.num_values
            assert a.sketch.to_dict() == b.sketch.to_dict()
        assert cold.vectors.dtype == warm.vectors.dtype
        np.testing.assert_array_equal(cold.vectors, warm.vectors)
        assert warm.computed == 0 and warm.computed_refs == []

    def test_matches_profile_tables_exactly(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        flat = profile_tables(lake_tables.tables)
        assert [p.ref for p in lake.profiles] == [p.ref for p in flat]
        for cached, fresh in zip(lake.profiles, flat):
            assert cached.text == fresh.text
            assert cached.num_values == fresh.num_values
            assert cached.sketch.to_dict() == fresh.sketch.to_dict()

    def test_mutation_invalidates_exactly_that_tables_columns(
        self, store, lake_tables
    ):
        profile_lake(lake_tables.tables, store, EMBED)
        names = sorted(lake_tables.tables)
        target = names[3]
        mutated = dict(lake_tables.tables)
        source = mutated[target]
        copy = Table(name=target, schema=list(source.schema))
        for row in range(len(source)):
            record = source[row]
            copy.append({a: record.get(a) for a in source.schema})
        copy.append({a: f"fresh-{a}" for a in source.schema})
        mutated[target] = copy
        warm = profile_lake(mutated, store, EMBED)
        assert {ref[0] for ref in warm.computed_refs} == {target}
        assert len(warm.computed_refs) == len(source.schema)
        assert warm.reused == len(warm.profiles) - len(source.schema)

    def test_mutate_lake_helper_reuses_unchanged_tables(self, lake_tables):
        mutated, names = mutate_lake(lake_tables.tables, fraction=0.25, seed=2)
        assert names and set(names) <= set(lake_tables.tables)
        for name, table in lake_tables.tables.items():
            if name in names:
                assert mutated[name] is not table
                assert len(mutated[name]) > len(table)
            else:
                assert mutated[name] is table
        assert list(mutated) == list(lake_tables.tables)

    def test_identical_columns_share_one_entry(self, store):
        one = Table(name="one", schema=["c"])
        two = Table(name="two", schema=["c"])
        for table in (one, two):
            for value in ("a", "b"):
                table.append({"c": value})
        lake = profile_lake({"one": one, "two": two}, store, EMBED)
        assert len(store) == 1
        assert lake.fingerprints[0] == lake.fingerprints[1]
        assert lake.computed == 2  # both *columns* were fresh
        assert [p.ref for p in lake.profiles] == [("one", "c"), ("two", "c")]


class TestLakeIndex:
    def test_first_update_builds_then_deltas(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        index = LakeIndex(SudowoodoConfig())
        first = index.update(lake)
        assert first["added"] == len(lake.profiles)
        assert len(index) == len(lake.profiles)
        mutated, names = mutate_lake(lake_tables.tables, fraction=0.2, seed=7)
        warm = profile_lake(mutated, store, EMBED)
        delta = index.update(warm)
        changed = sum(
            len(mutated[name].schema) for name in names
        )
        assert delta["updated"] == changed
        assert delta["added"] == 0 and delta["removed"] == 0
        assert delta["unchanged"] == len(warm.profiles) - changed

    def test_dropped_table_is_removed(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        index = LakeIndex(SudowoodoConfig())
        index.update(lake)
        names = sorted(lake_tables.tables)
        shrunk = {
            name: table
            for name, table in lake_tables.tables.items()
            if name != names[0]
        }
        warm = profile_lake(shrunk, store, EMBED)
        delta = index.update(warm)
        assert delta["removed"] == len(lake_tables.tables[names[0]].schema)
        assert len(index) == len(warm.profiles)

    def test_an_empty_first_lake_does_not_pin_the_dimension(self, store, lake_tables):
        index = LakeIndex(SudowoodoConfig())
        empty = profile_lake({}, store, EMBED)
        assert index.update(empty) == {
            "added": 0, "updated": 0, "removed": 0, "unchanged": 0
        }
        assert rank_lake_candidates(empty, index, k=3) == []
        lake = profile_lake(lake_tables.tables, store, EMBED)
        assert index.update(lake)["added"] == len(lake.profiles)
        cold = LakeIndex(SudowoodoConfig())
        cold.update(lake)
        assert [(c.pair, c.score) for c in rank_lake_candidates(lake, index, k=5)] == [
            (c.pair, c.score) for c in rank_lake_candidates(lake, cold, k=5)
        ]

    def test_query_before_update_raises(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        index = LakeIndex(SudowoodoConfig())
        with pytest.raises(RuntimeError, match="update"):
            list(index.iter_candidate_pairs(lake.profiles, lake.vectors, k=3))


class TestLakeRanking:
    def _key(self, candidates):
        return [(c.pair, c.score, c.containment, c.cosine) for c in candidates]

    def test_batched_equals_pairwise(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        index = LakeIndex(SudowoodoConfig())
        index.update(lake)
        batched = rank_lake_candidates(lake, index, k=5)
        normalized = lake.normalized.astype(np.float32)
        batches = index.iter_candidate_pairs(lake.profiles, normalized, 5)
        pairwise = _rank_pairwise(lake.profiles, normalized, batches, 0.5, 0.0, None)
        assert self._key(batched) == self._key(pairwise)
        assert batched, "expected candidates on a planted lake"

    @pytest.mark.parametrize("store_dtype", ["float32", "float64"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_warm_index_ranks_like_a_cold_one(
        self, tmp_path, lake_tables, num_shards, store_dtype
    ):
        """After churn rounds, the incrementally updated index (ids issued
        over every round, the memo of the last ranking) ranks byte-equal
        to a fresh index updated once with the same lake."""
        config = SudowoodoConfig(num_shards=num_shards, store_dtype=store_dtype)
        store = ProfileStore(tmp_path / "cache", store_dtype=store_dtype)
        index, tables = LakeIndex(config), lake_tables.tables
        for number in range(6):
            if number:
                tables, _ = mutate_lake(tables, fraction=0.2, seed=number)
            lake = profile_lake(tables, store, EMBED)
            index.update(lake)
            warm = rank_lake_candidates(lake, index, k=5)
        cold = LakeIndex(config)
        cold.update(lake)
        assert warm, "expected candidates on a planted lake"
        assert self._key(warm) == self._key(rank_lake_candidates(lake, cold, k=5))

    def test_ranking_finds_planted_joins(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        index = LakeIndex(SudowoodoConfig())
        index.update(lake)
        candidates = rank_lake_candidates(lake, index, k=6, alpha=0.6)
        n = len(lake_tables.joinable)
        top = {c.pair for c in candidates[:n]}
        assert len(top & lake_tables.joinable) / n >= 0.5

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_raises(self, store, lake_tables, k):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        index = LakeIndex(SudowoodoConfig())
        index.update(lake)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            rank_lake_candidates(lake, index, k=k)

    def test_top_bound_and_stability_after_mutation(self, store, lake_tables):
        lake = profile_lake(lake_tables.tables, store, EMBED)
        index = LakeIndex(SudowoodoConfig())
        index.update(lake)
        mutated, _ = mutate_lake(lake_tables.tables, fraction=0.2, seed=11)
        warm = profile_lake(mutated, store, EMBED)
        index.update(warm)
        full = rank_lake_candidates(warm, index, k=5)
        top = rank_lake_candidates(warm, index, k=5, top=4)
        assert self._key(top) == self._key(full[:4])
