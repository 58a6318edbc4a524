"""``profile_lake`` reads only the tables that changed: each
``ProfileStore`` remembers, per table name, the parameters, schema and
records list of its last pass with that table's fingerprints and
profiles, and hands them back while all of it is unchanged.  Pinned here:
a table changed through every path is read again (and only it), an
unchanged lake reads nothing, and over random churn — compactions
included — a warm pass equals a pass without the memo and a cold pass
into a fresh store, byte for byte."""

import contextlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import generate_lake, mutate_lake
from repro.data.records import Record, Table
from repro.discovery import ProfileStore, hashed_embedder, profile_lake

EMBED = hashed_embedder(dim=32)
PROFILE = dict(max_values=8, sketch_k=64)


def _lake(seed=5, num_tables=8):
    lake = generate_lake(num_tables=num_tables, rows=6, tables_per_pod=4, seed=seed)
    return dict(lake.tables)


@contextlib.contextmanager
def _reads():
    """Every ``(table name, column)`` ``Table.column_values`` reads inside."""
    seen, original = [], Table.column_values

    def column_values(table, attribute):
        seen.append((table.name, attribute))
        return original(table, attribute)

    Table.column_values = column_values
    try:
        yield seen
    finally:
        Table.column_values = original


def _columns(tables, *names):
    return [(name, attribute) for name in names for attribute in tables[name].schema]


def _observed(lake):
    """Everything a caller can read off a ``LakeProfile``, byte-exact."""
    return (
        [
            (p.table, p.column, p.text, p.num_values, p.sketch.to_dict())
            for p in lake.profiles
        ],
        lake.vectors.dtype.str,
        lake.vectors.tobytes(),
        lake.fingerprints,
    )


def _accounting(lake):
    return lake.reused, lake.computed, lake.computed_refs


def _without_memo(tables, path):
    """The pass a store without the memo makes (a reopened store has none)."""
    return profile_lake(tables, ProfileStore(path), EMBED, **PROFILE)


def _cold(tables):
    with tempfile.TemporaryDirectory() as directory:
        store = ProfileStore(directory)
        return _observed(profile_lake(tables, store, EMBED, **PROFILE))


# -- (a) every way a table changes is seen ------------------------------------


def _append(tables, name):
    tables[name].append({a: f"appended {a}" for a in tables[name].schema})
    return tables[name].schema


def _records_append(tables, name):
    table = tables[name]
    table.records.append(Record(len(table), {a: f"pushed {a}" for a in table.schema}))
    return table.schema


def _assign_row(tables, name):
    table = tables[name]
    column = table.schema[1]
    table.records[2] = table.records[2].with_value(column, "assigned value")
    return [column]


def _new_table(tables, name):
    old = tables[name]
    tables[name] = Table(
        name, list(old.schema), [r.with_value(old.schema[0], "swapped") for r in old]
    )
    return old.schema[:1]


def _schema_change(tables, name):
    tables[name].schema.reverse()  # same columns, new order: nothing recomputed
    return []


CHANGES = {
    "append": _append,
    "records.append": _records_append,
    "records[i] = with_value": _assign_row,
    "new table object": _new_table,
    "schema change": _schema_change,
}


@pytest.mark.parametrize("change", list(CHANGES))
def test_a_changed_table_is_read_again_and_only_it(tmp_path, change):
    tables = _lake()
    store = ProfileStore(tmp_path / "store")
    profile_lake(tables, store, EMBED, **PROFILE)
    target = sorted(tables)[3]
    changed = CHANGES[change](tables, target)
    with _reads() as read:
        warm = profile_lake(tables, store, EMBED, **PROFILE)
    assert sorted(read) == sorted(_columns(tables, target))
    assert warm.computed_refs == [
        (target, column) for column in tables[target].schema if column in changed
    ]
    assert warm.reused == len(warm.profiles) - len(changed)
    assert _observed(warm) == _cold(tables)


def test_a_content_equal_copy_is_a_hit(tmp_path):
    tables = _lake()
    store = ProfileStore(tmp_path / "store")
    first = profile_lake(tables, store, EMBED, **PROFILE)
    target = sorted(tables)[0]
    old = tables[target]
    tables[target] = Table(target, list(old.schema), list(old.records))
    with _reads() as read:
        warm = profile_lake(tables, store, EMBED, **PROFILE)
    assert read == [] and warm.computed == 0
    assert all(a is b for a, b in zip(warm.profiles, first.profiles))


@pytest.mark.parametrize(
    "setting", [dict(max_values=9, sketch_k=64), dict(max_values=8, sketch_k=32)]
)
def test_other_parameters_read_every_table(tmp_path, setting):
    tables = _lake()
    store = ProfileStore(tmp_path / "store")
    profile_lake(tables, store, EMBED, **PROFILE)
    with _reads() as read:
        warm = profile_lake(tables, store, EMBED, **setting)
    assert sorted(read) == sorted(_columns(tables, *tables))
    assert warm.computed == len(warm.profiles) and warm.reused == 0


def test_a_fingerprint_retain_dropped_rereads_its_table(tmp_path):
    tables = _lake()
    store = ProfileStore(tmp_path / "store")
    first = profile_lake(tables, store, EMBED, **PROFILE)
    by_table = {name: [] for name in tables}
    for profile, fingerprint in zip(first.profiles, first.fingerprints):
        by_table[profile.table].append(fingerprint)
    # A table none of whose columns another column shares a fingerprint with.
    target = next(
        name
        for name, fps in by_table.items()
        if all(first.fingerprints.count(fp) == 1 for fp in fps)
    )
    dropped = by_table[target]
    store.retain([fp for fp in first.fingerprints if fp not in dropped])
    with _reads() as read:
        warm = profile_lake(tables, store, EMBED, **PROFILE)
    assert sorted(read) == sorted(_columns(tables, target))
    assert warm.computed_refs == _columns(tables, target)
    assert _observed(warm) == _cold(tables)


def test_a_second_lake_sharing_the_store(tmp_path):
    """Lake ``b`` holds a different table under the target's name and
    the store is compacted to ``b``; when lake ``a`` comes back, only that
    table is read, and its columns the compaction dropped are computed."""
    a, other = _lake(), _lake(seed=6)
    target = sorted(a)[2]
    b = {**a, target: other[sorted(other)[2]]}
    store = ProfileStore(tmp_path / "store")
    profile_lake(a, store, EMBED, **PROFILE)
    store.retain(profile_lake(b, store, EMBED, **PROFILE).fingerprints)
    with _reads() as read:
        again = profile_lake(a, store, EMBED, **PROFILE)
    assert sorted(read) == sorted(_columns(a, target))
    assert {ref[0] for ref in again.computed_refs} == {target}
    assert _observed(again) == _cold(a)


# -- (b) reads, counted --------------------------------------------------------


def test_an_unchanged_lake_reads_nothing_and_churn_reads_only_its_tables(tmp_path):
    tables = _lake(num_tables=12)
    store = ProfileStore(tmp_path / "store")
    first = profile_lake(tables, store, EMBED, **PROFILE)
    with _reads() as read:
        again = profile_lake(tables, store, EMBED, **PROFILE)
    assert read == []
    assert again.reused == len(again.profiles) and again.computed == 0
    assert all(a is b for a, b in zip(again.profiles, first.profiles))
    churned, names = mutate_lake(tables, fraction=0.25, seed=4)
    with _reads() as read:
        warm = profile_lake(churned, store, EMBED, **PROFILE)
    assert sorted(read) == sorted(_columns(churned, *names))
    assert {ref[0] for ref in warm.computed_refs} == set(names)
    assert _observed(warm) == _cold(churned)


# -- (c) warm == without the memo == cold, over random churn --------------------


def _step(tables, kind, seed):
    """One churn step: a new lake dict (tables changed in place or swapped)."""
    tables = dict(tables)
    rng = np.random.default_rng(seed)
    name = sorted(tables)[int(rng.integers(len(tables)))]
    if kind == "mutate":
        fraction = float(rng.choice([0.1, 0.5, 1.0]))
        return mutate_lake(tables, fraction=fraction, seed=seed)[0]
    if kind == "append":
        tables[name].append({a: f"row {seed} {a}" for a in tables[name].schema})
    elif kind == "assign":
        table = tables[name]
        row = int(rng.integers(len(table)))
        record = table.records[row]
        table.records[row] = record.with_value(table.schema[0], f"set {seed}")
    elif kind == "copy":
        old = tables[name]
        tables[name] = Table(name, list(old.schema), list(old.records))
    elif kind == "drop" and len(tables) > 2:
        del tables[name]
    elif kind == "reorder":
        tables[name].schema.reverse()
    return tables


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["mutate", "append", "assign", "copy", "drop", "reorder"]),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=8,
)


def _replay(steps, seed):
    """Warm passes into one store vs passes without the memo into a twin;
    returns how many compactions the warm store went through."""
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        warm_store = ProfileStore(root / "warm")
        tables = _lake(seed=seed)
        vector_dirs = set()
        for number, (kind, step_seed) in enumerate([("start", 0), *steps]):
            if number:
                tables = _step(tables, kind, step_seed)
            warm = profile_lake(tables, warm_store, EMBED, **PROFILE)
            vector_dirs.add(warm_store._vectors_dir)
            twin = _without_memo(tables, root / "twin")
            assert _accounting(warm) == _accounting(twin), (number, kind)
            assert _observed(warm) == _observed(twin) == _cold(tables), (number, kind)
            assert set(warm_store._tables) == set(tables)
        return len(vector_dirs) - 1


@settings(max_examples=25, deadline=None)
@given(steps=STEPS, seed=st.integers(0, 3))
def test_warm_passes_equal_passes_without_the_memo(steps, seed):
    _replay(steps, seed)


def test_a_long_churn_crosses_compactions():
    steps = [("mutate", s) if s % 3 else ("append", s) for s in range(12)]
    steps[5] = ("reorder", 5)
    assert _replay(steps, seed=1) >= 2


# -- (d) the memo is O(live) ---------------------------------------------------


def test_the_memo_holds_only_the_last_lakes_tables(tmp_path):
    store = ProfileStore(tmp_path / "store")
    first, second = _lake(), _lake(seed=7, num_tables=5)
    second = {f"other_{name}": table for name, table in second.items()}
    profile_lake(first, store, EMBED, **PROFILE)
    assert set(store._tables) == set(first)
    profile_lake(second, store, EMBED, **PROFILE)
    assert set(store._tables) == set(second)
    fewer = dict(list(second.items())[:2])
    profile_lake(fewer, store, EMBED, **PROFILE)
    assert set(store._tables) == set(fewer)
    assert ProfileStore(tmp_path / "store")._tables == {}
