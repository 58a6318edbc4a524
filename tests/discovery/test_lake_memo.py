"""The score memo ``LakeIndex`` keeps of its last ranking: a round scores
— and builds a ``JoinCandidate`` for — only the pairs that ranking did
not hold, a reused entry never outlives its columns' vector bytes or
sketch objects, and every round equals memo-free scoring of the same
candidate stream."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import SudowoodoConfig
from repro.data.generators import generate_lake, mutate_lake
from repro.discovery import (
    LakeIndex,
    ProfileStore,
    hashed_embedder,
    profile_lake,
    rank_lake_candidates,
)
from repro.discovery import join
from repro.serve import ContainmentSketch
from repro.serve.sketch import SketchTable

EMBED = hashed_embedder(dim=32)
K = 4
#: Cycled every three rounds, so each option meets a memo left by a
#: ranking of its own kind and by one of another.
OPTIONS = [{}, {"min_score": 0.35}, {"top": 5}, {"include_intra_table": True}]


def _key(candidates):
    return [(c.pair, c.score, c.containment, c.cosine) for c in candidates]


def _salted(texts):
    """A second embedder: one extra token in every text moves every cosine."""
    return EMBED([text + " salt" for text in texts])


def _stream(lake, index, include_intra_table=False):
    normalized = lake.normalized.astype(np.dtype(index.config.store_dtype), copy=False)
    batches = index.iter_candidate_pairs(
        lake.profiles, normalized, K, include_intra_table=include_intra_table
    )
    return normalized, batches


def _memo_free(lake, index, include_intra_table=False, **options):
    """The per-pair oracle, which keeps no memo, over the candidate
    stream the index proposes."""
    normalized, batches = _stream(lake, index, include_intra_table)
    alpha, min_score = options.get("alpha", 0.5), options.get("min_score", 0.0)
    return join._rank_pairwise(
        lake.profiles, normalized, batches, alpha, min_score, options.get("top")
    )


def _id_pairs(candidates, ids):
    return {tuple(sorted((ids[a], ids[b]))) for a, b in (c.pair for c in candidates)}


@pytest.fixture()
def counts(monkeypatch):
    """Pairs through the containment kernel, and ``JoinCandidate``s the
    scorer builds, from here on."""
    counted = {"scored": 0, "built": 0}
    kernel, candidate = SketchTable.intersections, join.JoinCandidate

    def intersections(table, left, right):
        counted["scored"] += left.size
        return kernel(table, left, right)

    def build(**fields):
        counted["built"] += 1
        return candidate(**fields)

    monkeypatch.setattr(SketchTable, "intersections", intersections)
    monkeypatch.setattr(join, "JoinCandidate", build)
    return counted


def _replay(path, store_dtype, num_shards, rounds=150):
    """Refresh rounds at 5 % churn on a small lake (the store compacts
    along the way); yields ``(lake, index, options, ranked)`` per round,
    with ``alpha`` moving from 0.5 to 0.8 halfway."""
    tables = generate_lake(num_tables=12, rows=6, tables_per_pod=4, seed=4).tables
    store = ProfileStore(path, store_dtype=store_dtype)
    index = LakeIndex(SudowoodoConfig(store_dtype=store_dtype, num_shards=num_shards))
    for number in range(rounds):
        if number:
            tables, _ = mutate_lake(tables, fraction=0.05, seed=number)
        lake = profile_lake(tables, store, EMBED)
        index.update(lake)
        options = dict(OPTIONS[number // 3 % len(OPTIONS)])
        options["alpha"] = 0.5 if number < rounds // 2 else 0.8
        yield lake, index, options, rank_lake_candidates(lake, index, k=K, **options)


@pytest.mark.parametrize(
    "store_dtype, num_shards",
    [("float32", 1), ("float32", 2), ("float64", 1), ("float64", 2)],
)
def test_replay_equals_memo_free_scoring(tmp_path, counts, store_dtype, num_shards):
    pairs = 0
    for lake, index, options, ranked in _replay(tmp_path / "cache", store_dtype, num_shards):
        pairs += len(index._memo)
        assert _key(ranked) == _key(_memo_free(lake, index, **options))
    assert not (tmp_path / "cache" / "vectors").exists()  # the store compacted
    assert counts["scored"] < pairs / 3  # most pairs came out of the memo
    # The memo holds the last round's pairs, and candidates only for the
    # ones that round returned (its min_score dropped some).
    assert options == {"min_score": 0.35, "alpha": 0.8}
    _, batches = _stream(lake, index)
    assert len(index._memo) == len(np.unique(np.concatenate(list(batches)), axis=0))
    held = [candidate for candidate in index._memo.objects if candidate is not None]
    assert {id(c) for c in held} == {id(c) for c in ranked}
    assert len(held) == len(ranked) < len(index._memo)
    assert index._memo.ids.size == len(index._memo.sketches) == len(lake.profiles)


def test_rounds_score_only_pairs_the_last_ranking_lacked(tmp_path, counts):
    tables = generate_lake(num_tables=40, rows=8, tables_per_pod=4, seed=3).tables
    store = ProfileStore(tmp_path / "cache")
    index = LakeIndex(SudowoodoConfig())
    lake = profile_lake(tables, store, EMBED)
    index.update(lake)
    first = rank_lake_candidates(lake, index, k=K)
    assert counts == {"scored": len(first), "built": len(first)}  # a cold memo
    counts.update(scored=0, built=0)
    assert _key(rank_lake_candidates(lake, index, k=K)) == _key(first)
    assert counts == {"scored": 0, "built": 0}  # an unchanged lake
    before = _id_pairs(first, dict(index._ref_to_id))
    tables, _ = mutate_lake(tables, fraction=0.05, seed=9)
    lake = profile_lake(tables, store, EMBED)
    index.update(lake)
    ranked = rank_lake_candidates(lake, index, k=K)
    new = _id_pairs(ranked, index._ref_to_id) - before
    assert 0 < len(new) < len(ranked)
    assert counts == {"scored": len(new), "built": len(new)}
    assert _key(ranked) == _key(_memo_free(lake, index))


@pytest.mark.parametrize("change", ["vectors", "sketches", "store and embedder"])
def test_reuse_never_outlives_vector_bytes_or_sketches(tmp_path, change):
    tables = generate_lake(num_tables=12, rows=10, tables_per_pod=4, seed=5).tables
    lake = profile_lake(tables, ProfileStore(tmp_path / "first"), EMBED)
    index = LakeIndex(SudowoodoConfig())
    index.update(lake)
    before = rank_lake_candidates(lake, index, k=K)
    if change == "vectors":  # the same sketch objects
        vectors = _salted([profile.text for profile in lake.profiles])
        other = dataclasses.replace(lake, vectors=vectors)
    elif change == "sketches":  # the same vector bytes
        profiles = [
            dataclasses.replace(
                profile,
                sketch=ContainmentSketch.from_values(
                    profile.text.split()[:4], k=profile.sketch.k
                ),
            )
            for profile in lake.profiles
        ]
        other = dataclasses.replace(lake, profiles=profiles)
    else:  # identical fingerprints out of a fresh store and a second embedder
        other = profile_lake(tables, ProfileStore(tmp_path / "second"), _salted)
    assert other.fingerprints == lake.fingerprints
    assert index.update(other)["unchanged"] == len(lake.profiles)  # every id kept
    ranked = rank_lake_candidates(other, index, k=K)
    assert _key(ranked) == _key(_memo_free(other, index))
    assert _key(ranked) != _key(before)
