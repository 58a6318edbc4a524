"""Lake-scale join discovery: incremental profiling over a persistent cache.

This module is join discovery's one implementation; a one-shot fit is
the first round of the refresh pipeline below.  A nightly sync of a lake
touches 5% of a thousand tables, so discovery is *incremental* end to
end:

* :class:`ProfileStore` persists every :class:`ColumnProfile` and its
  embedding keyed by a **content fingerprint** of the column's values
  (the same ``utils.text_fingerprint`` scheme the ``TokenCache`` /
  ``EmbeddingStore`` already use), with the vectors in a
  :class:`~repro.serve.vecstore.MemmapVectorStore` instead of in-RAM
  float64 — a reopened store serves profiles without touching a table.
  Entries live in an append-only journal, so caching a delta writes
  O(delta) bytes, and a crash mid-write costs at most the entries being
  written.
* :func:`profile_lake` walks the current tables and recomputes **only**
  columns whose fingerprint is not already cached; everything else is
  byte-identical cache hits (sketches round-trip exactly, vectors come
  back from the same memmap rows either way).  A table whose rows have
  not changed since the store's last pass is not even read: its column
  fingerprints and profiles are handed back from that pass.
* :class:`LakeIndex` keeps a live sharded ANN backend (any registered
  backend — ``"ivfpq"`` for real lakes) in sync by **upserting the
  delta**: changed columns are removed/re-added under fresh stable ids,
  unchanged columns are never re-indexed — the incremental-index lever
  the serving tier already proved is ~10x cheaper than rebuild.
* :func:`rank_lake_candidates` streams candidate pairs out of the live
  index through the batch scorer of :mod:`~repro.discovery.join`, whose
  byte-identity oracle is ``join._rank_pairwise``; the index's memo of
  its last ranking limits scoring to the new pairs.

``benchmarks/bench_lake_scale_discovery.py`` drives a ~1,000-table lake
through this path and asserts the incremental floors.
"""

from __future__ import annotations

import json
import re
import shutil
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..api.results import JoinCandidate
from ..core.config import SudowoodoConfig
from ..core.persistence import atomic_write_text
from ..data.records import Record, Table, serialize_column
from ..serve.backends import ANNBackend, build_backend
from ..serve.sketch import ContainmentSketch
from ..serve.vecstore import MemmapVectorStore
from ..text.similarity import normalize_rows
from ..utils.fingerprint import text_fingerprint
from .join import (
    ColumnProfile,
    ColumnRef,
    _canonical_pairs,
    _rank_batched,
    _ScoreMemo,
    _table_codes,
)

_FORMAT_VERSION = 1
_JOURNAL_FILE = "profiles.jsonl"
_PROFILES_FILE = "profiles.json"  # pre-journal stores: one JSON document
_VECTORS_DIR = "vectors"  # compactions move to "vectors-1", "vectors-2", ...
_VECTORS_NAME = re.compile(r"vectors(-[0-9]+)?")

#: How values are joined before hashing: a non-printable separator.
_FP_SEPARATOR = "\x1f"


def column_fingerprint(
    values: Sequence[str], max_values: int = 12, sketch_k: int = 256
) -> str:
    """Content fingerprint of a column under given profiling parameters.

    Hashes the ordered non-empty values *and* the parameters that shape
    the profile (``max_values`` caps the serialized text, ``sketch_k``
    sizes the sketch), so a cache entry can never be served under
    settings it was not computed with.  Values are joined on
    ``_FP_SEPARATOR``; a column with a cell holding it is hashed as a JSON
    list instead, which starts with ``[`` where a joined payload starts
    with ``max_values``, so cell content cannot forge a value boundary.
    """
    payload = _FP_SEPARATOR.join([str(max_values), str(sketch_k), *values])
    if payload.count(_FP_SEPARATOR) != len(values) + 1:
        payload = json.dumps([max_values, sketch_k, *values])
    return text_fingerprint(payload)


class _CachedColumn(NamedTuple):
    """One store entry; ``sketch`` is the only in-memory copy of it."""

    text: str
    num_values: int
    sketch: ContainmentSketch
    vector_id: int

    def to_json(self, fingerprint: str) -> str:
        return json.dumps(
            {
                "fingerprint": fingerprint,
                "text": self.text,
                "num_values": self.num_values,
                "sketch": self.sketch.to_dict(),
                "vector_id": self.vector_id,
            }
        )

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "_CachedColumn":
        """Malformed payloads raise ``KeyError``/``TypeError``/``ValueError``."""
        vector_id = int(payload["vector_id"])  # type: ignore[call-overload]
        if vector_id < 0:
            raise ValueError(f"negative vector_id {vector_id}")
        return cls(
            text=str(payload["text"]),
            num_values=int(payload["num_values"]),  # type: ignore[call-overload]
            sketch=ContainmentSketch.from_dict(payload["sketch"]),  # type: ignore[arg-type]
            vector_id=vector_id,
        )


class _TablePass(NamedTuple):
    """What :func:`profile_lake` read of one table (records: a shallow
    copy of the list), and what it made of it."""

    setting: Tuple[int, int]  # (max_values, sketch_k)
    schema: List[str]
    records: List[Record]
    fingerprints: List[str]
    profiles: List[ColumnProfile]


class ProfileStore:
    """Persistent, content-addressed column-profile cache.

    Each entry keys a profile (serialized text, value count, sketch) and
    its embedding by :func:`column_fingerprint`; vectors live in an
    append-only :class:`~repro.serve.vecstore.MemmapVectorStore` (created
    lazily once the embedding dim is known), so a million cached columns
    cost memmap pages, not RAM.  Entries are content-addressed —
    *identical columns in different tables share one entry* — and the
    table/column identity is re-attached at read time.

    Entries persist in an append-only journal, ``profiles.jsonl``: a
    header line (``format_version``, ``store_dtype``, and ``vectors``, the
    vector directory — plain ``vectors/`` when absent) then one JSON line
    per entry, so :meth:`put_many` writes O(new entries) bytes whatever
    the store holds.  Vectors are appended *before* their journal lines;
    reopening replays the journal and drops only what a crash between
    the two can leave — a torn final line, or entries whose vector row
    was never recorded — compacting the journal when it does.  Anything
    else malformed raises ``ValueError``.  A store written before the
    journal existed (one ``profiles.json`` document) is still read, and
    moves to the journal on its first write.  :meth:`retain` compacts
    the store to the entries a lake still references.
    In memory only, it keeps :func:`profile_lake`'s last pass per table
    name (:class:`_TablePass`); a reopened store starts without it.
    """

    def __init__(self, path: Union[str, Path], store_dtype: str = "float32") -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.store_dtype = store_dtype
        self._entries: Dict[str, _CachedColumn] = {}
        self._vectors: Optional[MemmapVectorStore] = None
        self._vectors_dir = _VECTORS_DIR
        self._tables: Dict[str, _TablePass] = {}
        self._load()

    def _load(self) -> None:
        journal = self.path / _JOURNAL_FILE
        source = journal if journal.is_file() else self.path / _PROFILES_FILE
        header, payloads, torn = {"format_version": _FORMAT_VERSION}, [], False
        if source.is_file():
            parse = _parse_journal if source is journal else _parse_legacy
            try:
                header, payloads, torn = parse(source.read_text(encoding="utf-8"))
            except (OSError, TypeError, ValueError) as error:  # bad bytes, bad JSON
                raise ValueError(f"corrupt profile store {source}: {error}") from error
        if (
            not isinstance(header, dict)
            or header.get("format_version") != _FORMAT_VERSION
            or not _VECTORS_NAME.fullmatch(str(header.get("vectors", _VECTORS_DIR)))
        ):
            raise ValueError(f"unsupported profile store format in {source}")
        self.store_dtype = str(header.get("store_dtype", self.store_dtype))
        self._vectors_dir = str(header.get("vectors", _VECTORS_DIR))
        # A compaction writes its vector directory before the journal that
        # names it and deletes the old one after: any other is a leftover.
        vectors_dir = self.path / self._vectors_dir
        for leftover in self.path.glob(_VECTORS_DIR + "*"):
            if _VECTORS_NAME.fullmatch(leftover.name) and leftover != vectors_dir:
                shutil.rmtree(leftover)
        if vectors_dir.is_dir():
            self._vectors = MemmapVectorStore.open(vectors_dir)
        try:
            for payload in payloads:
                fingerprint = str(payload["fingerprint"])
                if fingerprint in self._entries:
                    raise ValueError(f"duplicate fingerprint {fingerprint}")
                self._entries[fingerprint] = _CachedColumn.from_payload(payload)
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"corrupt profile store {source}: {error}") from error
        # Vectors are appended before their journal lines, so a crash can
        # leave a torn last line or lines whose vector row was not recorded
        # — never a hole: drop those, and compact so a later append cannot
        # land behind the fragment or hand a dropped row id out again.
        stored = len(self._vectors) if self._vectors is not None else 0
        orphaned = [
            fingerprint
            for fingerprint, entry in self._entries.items()
            if entry.vector_id >= stored
        ]
        for fingerprint in orphaned:
            del self._entries[fingerprint]
        if source is journal and (torn or orphaned):
            self._rewrite_journal(self._entries, self._vectors_dir)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    @property
    def nbytes_vectors(self) -> int:
        """On-disk bytes of the cached embeddings."""
        return self._vectors.nbytes if self._vectors is not None else 0

    def _entry(self, fingerprint: str) -> _CachedColumn:
        entry = self._entries.get(fingerprint)
        if entry is None:
            raise KeyError(f"unknown column fingerprint: {fingerprint}")
        return entry

    def profile(self, fingerprint: str, table: str, column: str) -> ColumnProfile:
        """The cached profile under ``fingerprint``, re-attached to the
        given table/column identity (entries are content-addressed)."""
        entry = self._entry(fingerprint)
        return ColumnProfile(
            table=table,
            column=column,
            text=entry.text,
            sketch=entry.sketch,
            num_values=entry.num_values,
        )

    def vectors(self, fingerprints: Sequence[str]) -> np.ndarray:
        """The cached embeddings for ``fingerprints``, row-aligned,
        straight off the memmap (float64 for a float64 store, else
        float32)."""
        if not fingerprints:
            return np.zeros((0, 0), dtype=np.float32)
        if self._vectors is None:
            raise KeyError("profile store holds no vectors yet")
        return self._vectors.get([self._entry(fp).vector_id for fp in fingerprints])

    def put_many(
        self,
        fingerprints: Sequence[str],
        profiles: Sequence[ColumnProfile],
        vectors: np.ndarray,
    ) -> None:
        """Cache freshly computed profiles + embeddings in one append.

        Fingerprints must be new and unique (the store, like its vector
        tier, is append-only — a changed column gets a *new* fingerprint,
        it never rewrites an old entry).
        """
        if not (len(fingerprints) == len(profiles) == vectors.shape[0]):
            raise ValueError("fingerprints, profiles, and vectors must align")
        if not fingerprints:
            return
        if len(set(fingerprints)) != len(fingerprints):
            raise ValueError("duplicate fingerprints in one put_many()")
        known = [fp for fp in fingerprints if fp in self._entries]
        if known:
            raise ValueError(f"fingerprints already cached: {known[:3]}")
        if self._vectors is None:
            self._vectors = MemmapVectorStore.create(
                self.path / self._vectors_dir,
                dim=int(vectors.shape[1]),
                dtype=self.store_dtype,
            )
        start = len(self._vectors)
        ids = list(range(start, start + len(fingerprints)))
        self._vectors.append(ids, vectors)
        fresh = {
            fingerprint: _CachedColumn(
                profile.text, profile.num_values, profile.sketch, vector_id
            )
            for fingerprint, profile, vector_id in zip(fingerprints, profiles, ids)
        }
        self._entries.update(fresh)
        journal = self.path / _JOURNAL_FILE
        if not journal.is_file():  # a new store, or one moving off profiles.json
            self._rewrite_journal(self._entries, self._vectors_dir)
            return
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(_journal_lines(fresh))

    def retain(self, fingerprints: Sequence[str]) -> None:
        """Drop every entry (journal line and vector row too) whose
        fingerprint is not in ``fingerprints``; unknown ones are ignored.

        Kept rows are copied, as stored, into a new vector directory; one
        atomic journal rewrite naming it commits; the old one is deleted
        last.  A crash anywhere reopens to the store before or after.
        """
        wanted = set(fingerprints)
        kept = [fp for fp in self._entries if fp in wanted]
        if len(kept) == len(self._entries):
            return
        assert self._vectors is not None  # entries exist, so their rows do
        name = f"{_VECTORS_DIR}-{int(self._vectors_dir.partition('-')[2] or 0) + 1}"
        shutil.rmtree(self.path / name, ignore_errors=True)  # a failed attempt's
        vectors = self._vectors._copy_rows(
            self.path / name, [self._entries[fp].vector_id for fp in kept]
        )
        entries = {
            fp: self._entries[fp]._replace(vector_id=row) for row, fp in enumerate(kept)
        }
        self._rewrite_journal(entries, name)
        old = self._vectors.path
        self._entries, self._vectors, self._vectors_dir = entries, vectors, name
        shutil.rmtree(old, ignore_errors=True)  # else the next open removes it

    def _rewrite_journal(self, entries: Dict[str, _CachedColumn], vectors: str) -> None:
        """Write header (naming the ``vectors`` directory) + ``entries``,
        atomically."""
        header = {"format_version": _FORMAT_VERSION, "store_dtype": self.store_dtype}
        header["vectors"] = vectors
        text = json.dumps(header) + "\n" + _journal_lines(entries)
        atomic_write_text(self.path / _JOURNAL_FILE, text)


def _journal_lines(entries: Dict[str, _CachedColumn]) -> str:
    return "".join(
        entry.to_json(fingerprint) + "\n" for fingerprint, entry in entries.items()
    )


def _parse_journal(text: str) -> Tuple[object, List[Dict[str, object]], bool]:
    """``(header, entry payloads, torn)`` of a journal's text.  Only the
    final line can be torn by a crash mid-append — it is whatever follows
    the last newline — so it alone is skipped; a bad line anywhere else
    raises ``ValueError``."""
    lines = text.split("\n")
    torn = bool(lines.pop())
    documents = [json.loads(line) for line in lines]
    return (documents[0] if documents else None), documents[1:], torn


def _parse_legacy(text: str) -> Tuple[object, List[Dict[str, object]], bool]:
    """The same triple from a pre-journal ``profiles.json`` document."""
    document = json.loads(text)
    columns = document.get("columns") if isinstance(document, dict) else None
    if not isinstance(columns, dict):
        return None, [], False
    payloads = [
        {"fingerprint": fingerprint, **entry}
        for fingerprint, entry in columns.items()
    ]
    return document, payloads, False


@dataclass
class LakeProfile:
    """One :func:`profile_lake` pass over the current tables.

    ``vectors`` row ``i`` belongs to ``profiles[i]`` and is *always* the
    memmap-cached row (even for freshly computed columns), so a warm
    pass is byte-identical to the cold pass that populated the cache.
    ``computed_refs`` names exactly the columns whose fingerprint was
    not cached — the invalidation granularity tests pin this.
    """

    profiles: List[ColumnProfile]
    vectors: np.ndarray
    fingerprints: List[str]
    reused: int
    computed: int
    computed_refs: List[ColumnRef]

    @cached_property
    def normalized(self) -> np.ndarray:
        """``vectors`` unit-normalized in float64 — computed once, shared
        by the index update and the ranking of this pass."""
        return normalize_rows(self.vectors, dtype=np.float64)


def profile_lake(
    tables: Dict[str, Table],
    store: ProfileStore,
    embed: Callable[[Sequence[str]], np.ndarray],
    max_values: int = 12,
    sketch_k: int = 256,
    batch_size: int = 256,
) -> LakeProfile:
    """Profile a lake incrementally against a persistent cache.

    Walks every column in deterministic order, fingerprints its values,
    and recomputes (serialize + sketch + ``embed``) **only** fingerprints
    the store has never seen; everything else is served from cache.
    Fresh embeddings run through ``embed`` in chunks of ``batch_size``
    and are appended to the store before profiles are assembled, so the
    returned vectors always come off the memmap.  Two identical columns
    (same values, anywhere in the lake) share one cache entry and one
    embedding row.  When the store holds more than twice the lake's
    distinct fingerprints it is compacted to them (:meth:`ProfileStore.retain`).

    A table is not read when the store's last pass saw it under the same
    name and parameters with an equal schema and records list, and all
    its fingerprints are still cached: that pass's fingerprints and very
    ``ColumnProfile`` objects are reused.  Records are frozen; a write
    into a record's ``attributes`` in place is the one change unseen.
    """
    setting = (max_values, sketch_k)
    refs: List[ColumnRef] = []
    fingerprints: List[str] = []
    # Per column, its last pass's profile for an unchanged table, else None.
    profiles: List[Optional[ColumnProfile]] = []
    computed_refs: List[ColumnRef] = []
    fresh: Dict[str, ColumnProfile] = {}
    reused = 0
    cached = store._entries.__contains__
    unchanged: Dict[str, _TablePass] = {}
    for table_name, table in tables.items():
        last = store._tables.get(table_name)
        if (
            last is not None
            and last.setting == setting
            and last.schema == table.schema
            and last.records == table.records
            and all(map(cached, last.fingerprints))
        ):
            unchanged[table_name] = last
            refs.extend((table_name, attribute) for attribute in last.schema)
            fingerprints.extend(last.fingerprints)
            profiles.extend(last.profiles)
            reused += len(last.fingerprints)
            continue
        for attribute in table.schema:
            values = [v for v in table.column_values(attribute) if v]
            fingerprint = column_fingerprint(
                values, max_values=max_values, sketch_k=sketch_k
            )
            refs.append((table_name, attribute))
            fingerprints.append(fingerprint)
            profiles.append(None)
            if fingerprint in store:
                reused += 1
                continue
            computed_refs.append((table_name, attribute))
            if fingerprint not in fresh:
                fresh[fingerprint] = ColumnProfile(
                    table=table_name,
                    column=attribute,
                    text=serialize_column(values, max_values=max_values),
                    sketch=ContainmentSketch.from_values(values, k=sketch_k),
                    num_values=len(values),
                )
    if fresh:
        fresh_fps = list(fresh)
        texts = [fresh[fp].text for fp in fresh_fps]
        chunks = [
            np.asarray(embed(texts[start : start + batch_size]), dtype=np.float64)
            for start in range(0, len(texts), batch_size)
        ]
        store.put_many(fresh_fps, [fresh[fp] for fp in fresh_fps], np.vstack(chunks))
    if len(store) > 2 * len(set(fingerprints)):
        # O(live), after at least a lake's worth of new entries: amortised O(1).
        store.retain(fingerprints)
    assembled = [
        store.profile(fingerprint, *ref) if profile is None else profile
        for profile, ref, fingerprint in zip(profiles, refs, fingerprints)
    ]
    passes, start = {}, 0
    for table_name, table in tables.items():
        stop = start + len(table.schema)
        passes[table_name] = unchanged.get(table_name) or _TablePass(
            setting,
            list(table.schema),
            list(table.records),
            fingerprints[start:stop],
            assembled[start:stop],
        )
        start = stop
    store._tables = passes  # this lake's tables only: O(live)
    return LakeProfile(
        profiles=assembled,
        vectors=store.vectors(fingerprints),
        fingerprints=fingerprints,
        reused=reused,
        computed=len(computed_refs),
        computed_refs=computed_refs,
    )


class LakeIndex:
    """A live ANN index over the lake's columns, maintained by deltas.

    The first :meth:`update` of a non-empty lake builds the configured
    sharded backend from the full column matrix (IVF-PQ trains its
    codebooks here); every later update diffs fingerprints against what
    is indexed and only **adds** new/changed columns and **removes**
    vanished/stale ones — unchanged columns keep their stable ids and
    are never re-indexed.  The index also holds the memo of its last
    ranking (see :func:`rank_lake_candidates`).
    """

    def __init__(self, config: Optional[SudowoodoConfig] = None) -> None:
        self.config = config or SudowoodoConfig()
        self._backend: Optional[ANNBackend] = None
        self._ref_to_id: Dict[ColumnRef, int] = {}
        self._ref_fp: Dict[ColumnRef, str] = {}
        self._next_id = 0
        # Of the lake last synced: the live stable ids (sorted), the row of
        # each, the id of each row and table id per row — O(live), however
        # many ids were issued.
        self._live_ids = np.empty(0, dtype=np.int64)
        self._live_rows = np.empty(0, dtype=np.int64)
        self._row_ids = np.empty(0, dtype=np.int64)
        self._table_codes = np.empty(0, dtype=np.int64)
        self._memo = _ScoreMemo()

    def __len__(self) -> int:
        return len(self._ref_to_id)

    def update(self, lake: LakeProfile) -> Dict[str, int]:
        """Sync the index to ``lake``; returns the delta accounting
        (``added`` / ``updated`` / ``removed`` / ``unchanged``)."""
        normalized = lake.normalized
        current: Dict[ColumnRef, int] = {
            profile.ref: row for row, profile in enumerate(lake.profiles)
        }
        if len(current) != len(lake.profiles):
            raise ValueError("duplicate column refs in lake profile")
        if self._backend is None and lake.profiles:  # an empty lake has no dim
            self._backend = build_backend(self.config, sharded=True)
            self._backend.build(normalized)  # ids 0..N-1, trains IVF-PQ
            self._ref_to_id = dict(current)
            self._ref_fp = dict(zip(current, lake.fingerprints))
            self._next_id = len(lake.profiles)
            self._map_rows(lake, current)
            return {
                "added": len(lake.profiles),
                "updated": 0,
                "removed": 0,
                "unchanged": 0,
            }
        removed = [ref for ref in self._ref_to_id if ref not in current]
        added: List[ColumnRef] = []
        updated: List[ColumnRef] = []
        for ref in current:
            if ref not in self._ref_to_id:
                added.append(ref)
            elif self._ref_fp[ref] != lake.fingerprints[current[ref]]:
                updated.append(ref)
        stale_ids = [self._ref_to_id[ref] for ref in removed + updated]
        if stale_ids:
            self._backend.remove(stale_ids)
        for ref in removed:
            del self._ref_to_id[ref]
            del self._ref_fp[ref]
        fresh = added + updated
        if fresh:
            fresh_ids = list(range(self._next_id, self._next_id + len(fresh)))
            self._next_id += len(fresh)
            rows = np.asarray([current[ref] for ref in fresh], dtype=np.int64)
            self._backend.add(fresh_ids, normalized[rows])
            for ref, stable_id in zip(fresh, fresh_ids):
                self._ref_to_id[ref] = stable_id
                self._ref_fp[ref] = lake.fingerprints[current[ref]]
        self._map_rows(lake, current)
        return {
            "added": len(added),
            "updated": len(updated),
            "removed": len(removed),
            "unchanged": len(current) - len(added) - len(updated),
        }

    def _map_rows(self, lake: LakeProfile, current: Dict[ColumnRef, int]) -> None:
        """Once per synced lake, what the candidate stream needs of it:
        every indexed ref is in ``current`` now, so stable id -> row is a
        total map."""
        ids = np.fromiter(self._ref_to_id.values(), np.int64, len(self._ref_to_id))
        rows = np.array([current[ref] for ref in self._ref_to_id], dtype=np.int64)
        order = np.argsort(ids)
        self._live_ids, self._live_rows = ids[order], rows[order]
        self._row_ids = np.empty_like(ids)
        self._row_ids[rows] = ids
        self._table_codes = _table_codes(lake.profiles)

    def iter_candidate_pairs(
        self,
        profiles: Sequence[ColumnProfile],
        normalized: np.ndarray,
        k: int,
        batch_size: int = 256,
        include_intra_table: bool = False,
    ) -> Iterator[np.ndarray]:
        """Stream canonical candidate index pairs (positions into
        ``profiles``) from the live backend, ``batch_size`` queries at a
        time.  ``profiles`` must be those of the lake last passed to
        :meth:`update`: the backend answers in stable ids, which that
        update mapped to the lake's row positions, so callers score
        against the *exact* current vectors and sketches."""
        n = len(profiles)
        if self._backend is None and n:
            raise RuntimeError("lake index is empty; call update() first")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if n != self._table_codes.size:
            raise ValueError(
                f"{n} profiles but the index was last updated with "
                f"{self._table_codes.size}; call update() with this lake first"
            )
        kq = min(k + 1, len(self._ref_to_id))
        if kq < 1:
            return
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            neighbor_ids, _ = self._backend.query(normalized[start:stop], kq)
            flat = neighbor_ids.reshape(-1).astype(np.int64)
            # The backend answers live ids only (-1 pads land on slot 0).
            slots = np.searchsorted(self._live_ids, flat)
            partner_rows = np.where(flat >= 0, self._live_rows[slots], -1)
            query_rows = np.repeat(np.arange(start, stop, dtype=np.int64), kq)
            valid = (partner_rows >= 0) & (partner_rows != query_rows)
            query_rows, partner_rows = query_rows[valid], partner_rows[valid]
            if not include_intra_table:
                cross = self._table_codes[query_rows] != self._table_codes[partner_rows]
                query_rows, partner_rows = query_rows[cross], partner_rows[cross]
            if query_rows.size:
                yield _canonical_pairs(query_rows, partner_rows, n)


def rank_lake_candidates(
    lake: LakeProfile,
    index: LakeIndex,
    config: Optional[SudowoodoConfig] = None,
    k: int = 10,
    alpha: float = 0.5,
    min_score: float = 0.0,
    include_intra_table: bool = False,
    top: Optional[int] = None,
    batch_size: int = 256,
) -> List[JoinCandidate]:
    """Ranked joinable pairs over a lake, candidates from the live index.

    Each column's ``k`` nearest indexed columns are its candidates (``k <
    1`` raises ``ValueError``); every surviving cross-table pair is scored
    ``alpha * containment + (1 - alpha) * max(cosine, 0)`` from the exact
    sketches and embeddings (in ``config.store_dtype``, scored in
    float64).  Pairs below ``min_score`` are dropped; the result is
    sorted by descending score with ties broken on the sorted column
    refs, so rankings are reproducible and, for the exact backend,
    independent of the shard count.  ``top`` cuts the ranking to its
    best ``top`` — identical to the full ranking truncated.  Every call
    re-queries the whole index, ``batch_size`` columns at a time, but the
    scorer keeps ``index``'s memo of its last ranking, keyed by stable-id
    pair (an update gives a changed column a fresh id), and scores only
    the pairs it lacks.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if top is not None and top < 1:
        raise ValueError("top must be positive or None")
    config = config or index.config
    normalized = lake.normalized.astype(np.dtype(config.store_dtype), copy=False)
    batches = index.iter_candidate_pairs(
        lake.profiles,
        normalized,
        k,
        batch_size=batch_size,
        include_intra_table=include_intra_table,
    )
    memo, ids = index._memo, index._row_ids
    return _rank_batched(
        lake.profiles, normalized, batches, alpha, min_score, top, memo, ids
    )


def hashed_embedder(dim: int = 64) -> Callable[[Sequence[str]], np.ndarray]:
    """A deterministic, model-free column embedder (hashed bag of values).

    Benchmarks and tests need thousands of column embeddings without
    paying for an encoder; crc32-hashed value counts, row-normalized,
    give stable vectors where shared values produce high cosine — enough
    signal for candidate generation, at generator speed.  The session
    tasks always embed through the real encoder; this is the harness
    embedder.
    """
    if dim < 1:
        raise ValueError("dim must be positive")

    def embed(texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), dim), dtype=np.float64)
        for row, text in enumerate(texts):
            for token in text.split():
                if token == "[VAL]":
                    continue
                out[row, zlib.crc32(token.encode("utf-8")) % dim] += 1.0
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        return out / np.maximum(norms, 1e-12)

    return embed
