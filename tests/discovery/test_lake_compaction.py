"""The lake loop runs indefinitely: ``ProfileStore.retain`` compacts the
store to the live lake (byte-preserving, crash-safe at every write
boundary), ``profile_lake`` triggers it, and a long churn soak keeps the
store, its files and ``LakeIndex``'s id map bounded by the live lake."""

import json
import shutil

import numpy as np
import pytest

from repro.core.config import SudowoodoConfig
from repro.data.generators import generate_lake, mutate_lake
from repro.discovery import (
    ColumnProfile,
    LakeIndex,
    ProfileStore,
    hashed_embedder,
    profile_lake,
    rank_lake_candidates,
)
from repro.serve import ContainmentSketch
from repro.serve.vecstore import MemmapVectorStore

EMBED = hashed_embedder(dim=32)


def _column(index):
    values = [f"value-{index}-{j}" for j in range(5)]
    sketch = ContainmentSketch.from_values(values, k=16)
    return ColumnProfile("t", f"c{index}", " ".join(values), sketch, len(values))


def _filled(path, dtype, count=12):
    store = ProfileStore(path, store_dtype=dtype)
    fingerprints = [f"fp-{i:02d}" for i in range(count)]
    vectors = np.random.default_rng(3).normal(size=(count, 6))
    half = count // 2  # two appends: rows come from more than one put_many
    store.put_many(fingerprints[:half], [_column(i) for i in range(half)], vectors[:half])
    store.put_many(
        fingerprints[half:], [_column(i) for i in range(half, count)], vectors[half:]
    )
    return store, fingerprints


def _snapshot(store, fingerprints):
    """Everything a reader can observe about ``fingerprints``."""
    return (
        [store.profile(fp, "t", "c").text for fp in fingerprints],
        store.vectors(fingerprints).tobytes(),
    )


def _vector_dirs(path):
    return sorted(child.name for child in path.iterdir() if child.name.startswith("vectors"))


def _live_dir(path):
    """The vector directory the journal header names."""
    header = json.loads((path / "profiles.jsonl").read_text().splitlines()[0])
    return header.get("vectors", "vectors")


@pytest.mark.parametrize("dtype", ["float16", "float32", "int8"])
def test_retain_is_byte_preserving(tmp_path, dtype):
    path = tmp_path / "cache"
    store, fingerprints = _filled(path, dtype)
    kept = fingerprints[1::3]
    before, nbytes = store.vectors(kept).tobytes(), store.nbytes_vectors
    store.retain(kept + ["never-cached"])  # unknown fingerprints are ignored
    assert len(store) == len(kept)
    assert store.vectors(kept).tobytes() == before
    assert store.nbytes_vectors * len(fingerprints) == nbytes * len(kept)
    with pytest.raises(KeyError):
        store.vectors(fingerprints[:1])
    assert _vector_dirs(path) == ["vectors-1"] == [_live_dir(path)]
    reopened = ProfileStore(path)
    assert reopened.store_dtype == dtype
    assert reopened.vectors(kept).tobytes() == before
    assert len(reopened) == len(kept)
    store.retain(kept[:2])  # a second compaction moves on to vectors-2
    assert _vector_dirs(path) == ["vectors-2"]
    assert ProfileStore(path).vectors(kept[:2]).tobytes() == store.vectors(kept[:2]).tobytes()


def test_retain_of_everything_writes_nothing(tmp_path):
    path = tmp_path / "cache"
    store, fingerprints = _filled(path, "float32")
    journal = (path / "profiles.jsonl").read_bytes()
    store.retain(fingerprints)
    assert (path / "profiles.jsonl").read_bytes() == journal
    assert _vector_dirs(path) == ["vectors"]


class _Killed(Exception):
    """The process dies here."""


def _fault_new_dir_half_written(monkeypatch, path):
    # The data files are written, meta.json is not.
    def killed(self):
        raise _Killed

    monkeypatch.setattr(MemmapVectorStore, "flush", killed)


def _fault_journal_not_replaced(monkeypatch, path):
    def killed(*args):
        raise _Killed

    monkeypatch.setattr("repro.discovery.lake.atomic_write_text", killed)


def _fault_old_dir_not_removed(monkeypatch, path):
    real = shutil.rmtree

    def rmtree(target, *args, **kwargs):
        if target == path / "vectors":
            raise _Killed
        return real(target, *args, **kwargs)

    monkeypatch.setattr(shutil, "rmtree", rmtree)


@pytest.mark.parametrize(
    "fault, committed",
    [
        (_fault_new_dir_half_written, False),
        (_fault_journal_not_replaced, False),
        (_fault_old_dir_not_removed, True),
    ],
)
@pytest.mark.parametrize("dtype", ["float32", "int8"])
def test_crash_at_each_compaction_boundary(tmp_path, monkeypatch, fault, committed, dtype):
    path = tmp_path / "cache"
    store, fingerprints = _filled(path, dtype)
    kept = fingerprints[::2]
    pre, post = _snapshot(store, fingerprints), _snapshot(store, kept)
    fault(monkeypatch, path)
    with pytest.raises(_Killed):
        store.retain(kept)
    monkeypatch.undo()
    assert len(_vector_dirs(path)) == 2  # the crash left both directories
    reopened = ProfileStore(path)
    live = kept if committed else fingerprints
    assert len(reopened) == len(live)
    assert _snapshot(reopened, live) == (post if committed else pre)
    assert _vector_dirs(path) == ["vectors-1" if committed else "vectors"]
    reopened.put_many(["fp-new"], [_column(99)], np.full((1, 6), 0.5))
    final = ProfileStore(path)
    assert _snapshot(final, live) == (post if committed else pre)
    assert final.vectors(["fp-new"]).tobytes() == reopened.vectors(["fp-new"]).tobytes()
    assert len(final) == len(live) + 1


def test_warm_equals_cold_across_a_compaction(tmp_path):
    lake = generate_lake(num_tables=8, rows=6, tables_per_pod=4, seed=2)
    store = ProfileStore(tmp_path / "cache")
    tables = lake.tables
    profile_lake(tables, store, EMBED)
    for seed in range(4):  # every column changes each time
        tables, _ = mutate_lake(tables, fraction=1.0, seed=seed)
        profile_lake(tables, store, EMBED)
    assert _live_dir(tmp_path / "cache") != "vectors"  # it compacted
    warm = profile_lake(tables, store, EMBED)
    cold = profile_lake(tables, ProfileStore(tmp_path / "fresh"), EMBED)
    assert warm.computed == 0
    assert warm.fingerprints == cold.fingerprints
    assert [(p.ref, p.text, p.num_values, p.sketch.to_dict()) for p in warm.profiles] == [
        (p.ref, p.text, p.num_values, p.sketch.to_dict()) for p in cold.profiles
    ]
    assert warm.vectors.dtype == cold.vectors.dtype
    assert warm.vectors.tobytes() == cold.vectors.tobytes()


def test_soak_store_and_index_stay_bounded(tmp_path):
    """150 refresh rounds at 5 % churn: the store, its journal, its vector
    rows and the index's id map stay within 2x the live lake plus one
    round's delta (without compaction the store ends above 10x)."""
    path = tmp_path / "cache"
    tables = generate_lake(num_tables=12, rows=6, tables_per_pod=4, seed=4).tables
    store = ProfileStore(path)
    index = LakeIndex(SudowoodoConfig())
    index.update(profile_lake(tables, store, EMBED))
    row_bytes = 32 * 4  # float32 rows of the hashed embedder
    compactions = 0
    for round_number in range(150):
        tables, names = mutate_lake(tables, fraction=0.05, seed=round_number)
        mutated = sum(len(tables[name].schema) for name in names)
        directory = _live_dir(path)
        lake = profile_lake(tables, store, EMBED)
        assert 1 <= lake.computed <= mutated
        live = len(set(lake.fingerprints))
        bound = 2 * live + lake.computed
        assert len(store) <= bound
        assert store.nbytes_vectors <= bound * row_bytes
        assert len((path / "profiles.jsonl").read_text().splitlines()) <= bound + 1
        assert _vector_dirs(path) == [_live_dir(path)]
        on_disk = path / _live_dir(path)
        data = sum((on_disk / name).stat().st_size for name in ("vectors.dat", "ids.dat"))
        assert data <= bound * (row_bytes + 8)
        if _live_dir(path) != directory:
            compactions += 1
            cold = profile_lake(tables, ProfileStore(tmp_path / f"cold-{round_number}"), EMBED)
            warm = profile_lake(tables, store, EMBED)
            assert warm.computed == 0
            assert warm.vectors.tobytes() == cold.vectors.tobytes()
        index.update(lake)
    assert compactions >= 3
    # After every id the churn issued, the index's stable id -> row map
    # is O(live) and total over the live refs.
    assert index._live_ids.size == len(index) == len(lake.profiles)
    ids = [index._ref_to_id[profile.ref] for profile in lake.profiles]
    slots = np.searchsorted(index._live_ids, ids)
    assert index._live_rows[slots].tolist() == list(range(len(lake.profiles)))
    assert rank_lake_candidates(lake, index, k=4)
