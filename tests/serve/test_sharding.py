"""Sharded serving tests: shard-equivalence against the single-shard
service, recall under churn for the approximate backends, the request
broker as a plain query coalescer, and the config/registry/session
routing."""

import threading
import time

import numpy as np
import pytest

from repro.api import SudowoodoSession
from repro.core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from repro.data.generators import load_em_benchmark
from repro.serve import (
    ExactBackend,
    HNSWBackend,
    IVFPQBackend,
    MatchService,
    ReadWriteLock,
    RequestBroker,
    ShardedBackend,
    build_backend,
    shard_assignments,
)
from repro.utils import spawn_rng


def tiny_config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=400,
        pretrain_epochs=1,
        pretrain_batch_size=8,
        num_clusters=3,
        corpus_cap=32,
        mlm_warm_start_epochs=0,
        coalesce_window_ms=0.0,  # tests must not pay an idle window
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    return load_em_benchmark("AB", scale=0.02, max_table_size=24)


@pytest.fixture(scope="module")
def encoder(dataset):
    config = tiny_config()
    return SudowoodoEncoder(config, build_tokenizer(dataset.all_items(), config))


def unit_vectors(seed_name: str, n: int, dim: int = 16) -> np.ndarray:
    rng = spawn_rng(0, seed_name)
    matrix = rng.normal(size=(n, dim))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def make_inner(name):
    if name == "exact":
        return lambda: ExactBackend()
    if name == "ivfpq":
        # A threshold under each shard's share of 300 rows: coded search.
        return lambda: IVFPQBackend(num_cells=4, num_subvectors=4, train_threshold=64)
    return lambda: HNSWBackend(seed=0)


# ----------------------------------------------------------------------
class TestShardAssignments:
    def test_deterministic_and_in_range(self):
        ids = np.arange(10_000, dtype=np.int64)
        first = shard_assignments(ids, 7)
        second = shard_assignments(ids, 7)
        np.testing.assert_array_equal(first, second)
        assert first.min() >= 0 and first.max() < 7

    def test_sequential_ids_spread_evenly(self):
        """The store hands out consecutive ids; the hash must still keep
        shards balanced (within 20% of ideal on 10k records)."""
        counts = np.bincount(shard_assignments(np.arange(10_000), 4), minlength=4)
        assert counts.min() >= 0.8 * 10_000 / 4
        assert counts.max() <= 1.2 * 10_000 / 4


# ----------------------------------------------------------------------
class TestShardedBackendEquivalence:
    """For the exact inner backend, sharding must not change results."""

    @pytest.fixture(scope="class")
    def vectors(self):
        return unit_vectors("sharded-equivalence", 180)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_exact_query_identical_to_single_shard(self, vectors, num_shards):
        single_ids, single_scores = ExactBackend().build(vectors).query(
            vectors[:40], k=6
        )
        sharded = ShardedBackend(make_inner("exact"), num_shards).build(vectors)
        ids, scores = sharded.query(vectors[:40], k=6)
        np.testing.assert_array_equal(ids, single_ids)
        # Scores agree to float64 resolution.  (Not asserted bitwise:
        # BLAS may tile a (Q, d) x (d, N/shards) matmul differently from
        # the full (Q, d) x (d, N) one, flipping last-bit rounding.)
        np.testing.assert_allclose(scores, single_scores, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_exact_deterministic_under_score_ties(self, num_shards):
        """Regression: duplicate vectors produce exact score ties, which
        the unstable argpartition selection used to break arbitrarily.
        ExactBackend now uses a total order (score desc, id asc), so the
        single-shard result is deterministic smallest-id-first, and the
        sharded result is deterministic and correct — every returned id
        is a genuine top-k member.  (Which *bit-identical* duplicates
        win across shard boundaries may legitimately differ from the
        single backend: BLAS rounds their scores differently per shard
        shape, see the ShardedBackend docstring.)"""
        base = unit_vectors("sharded-ties", 50)
        vectors = np.vstack([base, np.tile(base[0], (8, 1))])  # 8 duplicates
        tied = {0} | set(range(50, 58))  # ids sharing the query vector
        single_ids, single_scores = ExactBackend().build(vectors).query(
            base[:1], k=4
        )
        # Single shard: deterministic, smallest tied ids first.
        assert single_ids[0].tolist() == [0, 50, 51, 52]
        sharded = ShardedBackend(make_inner("exact"), num_shards).build(vectors)
        ids, scores = sharded.query(base[:1], k=4)
        repeat_ids, _ = sharded.query(base[:1], k=4)
        np.testing.assert_array_equal(ids, repeat_ids)  # deterministic
        assert set(ids[0].tolist()) <= tied  # every pick is a true top-4
        np.testing.assert_allclose(scores, single_scores, rtol=0, atol=1e-12)

    def test_exact_tie_fallback_beyond_partition_pad(self):
        """A tie spanning more candidates than the argpartition pad must
        trigger the exact per-row fallback: the winners are still the
        smallest tied ids, not whatever the partition happened to keep."""
        base = unit_vectors("sharded-wide-ties", 80)
        duplicates = np.tile(base[0], (ExactBackend._TIE_PAD + 20, 1))
        vectors = np.vstack([base, duplicates])  # tie spans 1 + pad + 20 ids
        ids, scores = ExactBackend().build(vectors).query(base[:1], k=4)
        assert ids[0].tolist() == [0, 80, 81, 82]  # smallest tied ids win
        np.testing.assert_allclose(scores[0], 1.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("extra_duplicates", [7, ExactBackend._TIE_PAD + 20])
    def test_exact_ties_smallest_id_first_after_swap_removes(
        self, dtype, extra_duplicates
    ):
        """``remove`` fills each hole with the last row, so row order no
        longer follows id order; ties must still break on *id* — through
        the argpartition cut (8 duplicates) and through the exact
        fallback (a tie wider than the pad)."""
        base = unit_vectors("swap-remove-ties", 80)
        duplicates = np.tile(base[0], (1 + extra_duplicates, 1))
        backend = ExactBackend(dtype).build(np.vstack([base, duplicates]))
        tied = [0] + list(range(80, 81 + extra_duplicates))
        # Holes early in the buffer pull high-id duplicates to the front;
        # removing id 0 and id 81 also thins the tie itself.
        backend.remove([3, 0, 10, 81, 4])
        backend.add([500], base[:1])  # one more duplicate under a late id
        survivors = [i for i in tied if i not in (0, 81)] + [500]
        rows = [backend._id_to_row[i] for i in survivors]
        assert rows != sorted(rows)  # the tie really sits out of id order
        ids, scores = backend.query(base[:1], k=5)
        assert ids[0].tolist() == survivors[:5]
        np.testing.assert_allclose(scores[0], 1.0, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_exact_equivalence_survives_churn(self, vectors, num_shards):
        extra = unit_vectors("sharded-equivalence-extra", 24)
        replacement = unit_vectors("sharded-equivalence-replacement", 5)
        single = ExactBackend().build(vectors)
        sharded = ShardedBackend(make_inner("exact"), num_shards).build(vectors)
        new_ids = np.arange(900, 900 + extra.shape[0])
        for backend in (single, sharded):
            backend.add(new_ids, extra)
            backend.remove(np.arange(0, 60, 2))
            backend.add(new_ids[:5], replacement)  # upsert: replace vectors
        assert len(single) == len(sharded)
        single_ids, single_scores = single.query(vectors[100:140], k=8)
        ids, scores = sharded.query(vectors[100:140], k=8)
        np.testing.assert_array_equal(ids, single_ids)
        np.testing.assert_allclose(scores, single_scores, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["hnsw"])
    def test_approximate_recall_after_churn(self, name):
        """Sharded HNSW must keep >= 0.9 recall of the exact top-k
        after a randomized upsert/delete churn sequence."""
        rng = spawn_rng(0, f"sharded-churn-{name}")
        vectors = unit_vectors(f"sharded-churn-base-{name}", 300)
        sharded = ShardedBackend(make_inner(name), 3).build(vectors)
        exact = ExactBackend().build(vectors)

        next_id = vectors.shape[0]
        live = list(range(vectors.shape[0]))
        for _ in range(6):
            batch = rng.normal(size=(20, 16))
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            ids = np.arange(next_id, next_id + batch.shape[0])
            next_id += batch.shape[0]
            sharded.add(ids, batch)
            exact.add(ids, batch)
            live.extend(ids.tolist())
            doomed = rng.choice(len(live), size=12, replace=False)
            doomed_ids = np.asarray(sorted(live[i] for i in doomed))
            sharded.remove(doomed_ids)
            exact.remove(doomed_ids)
            live = [i for i in live if i not in set(doomed_ids.tolist())]

        queries = unit_vectors(f"sharded-churn-queries-{name}", 60)
        approx, _ = sharded.query(queries, k=5)
        truth, _ = exact.query(queries, k=5)
        hits = sum(
            len(
                set(int(i) for i in truth[row] if i >= 0)
                & set(int(i) for i in approx[row] if i >= 0)
            )
            for row in range(queries.shape[0])
        )
        total = sum(1 for row in truth for i in row if i >= 0)
        assert hits / total >= 0.9

    def test_remove_unknown_id_fails_atomically(self, vectors):
        sharded = ShardedBackend(make_inner("exact"), 3).build(vectors)
        size = len(sharded)
        with pytest.raises(KeyError):
            sharded.remove([0, 1, 10_000])  # one bad id poisons the batch
        assert len(sharded) == size  # nothing was removed
        found, _ = sharded.query(vectors[:1], k=1)
        assert found[0, 0] == 0  # id 0 still served

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_wrong_dimension_add_fails_atomically(self, vectors, name):
        """Regression: the failing shard dropped its record (a slot
        backend tombstones before its index checks the shape) while
        ``_live_ids`` kept it — ``len`` 179 against a live set of 180."""
        sharded = ShardedBackend(make_inner(name), 3).build(vectors)
        with pytest.raises(ValueError, match=r"expected \(N, 16\) vectors"):
            sharded.add([0, 1], np.ones((2, 5)))
        assert len(sharded) == len(sharded._live_ids) == vectors.shape[0]
        sharded.remove([0, 1])  # both records are still there to remove
        assert len(sharded) == vectors.shape[0] - 2

    def test_concurrent_overlapping_removes_stay_consistent(self, vectors):
        """Regression: remove() used to validate ids before taking the
        write locks, so two racing removes with overlapping ids could
        both pass validation and tear the cross-shard state.  Exactly
        one of them must win; the loser must fail atomically."""
        sharded = ShardedBackend(make_inner("exact"), 3).build(vectors)
        size = len(sharded)
        outcomes = []

        def remove(ids):
            try:
                sharded.remove(ids)
                outcomes.append("ok")
            except KeyError:
                outcomes.append("keyerror")

        for _ in range(10):  # repeat to give the race a chance to fire
            sharded.add(np.array([500, 501]), vectors[:2])
            threads = [
                threading.Thread(target=remove, args=([500],)),
                threading.Thread(target=remove, args=([500, 501],)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Whatever the interleaving, both ids are gone exactly once
            # and the bookkeeping matches the shards.
            assert len(sharded) in (size, size + 1)
            if len(sharded) == size + 1:
                sharded.remove([501])  # [500,501] lost the race entirely
            assert len(sharded) == size
        assert "ok" in outcomes

    def test_query_before_build_raises(self):
        with pytest.raises(RuntimeError):
            ShardedBackend(make_inner("exact"), 2).query(np.zeros((1, 16)), k=2)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
class TestShardedServiceEquivalence:
    """MatchService.search_batch must return byte-identical ids for the
    exact backend at any shard count (num_shards=1 is the reference)."""

    def test_search_identical(self, dataset, encoder, num_shards):
        """The default float32 store: ids equal, scores to the documented
        float32 tolerance (docs/serving.md — the backend scores in the
        precision it stores, so shard shapes may differ by an ulp)."""
        self.check_search_identical(dataset, encoder, num_shards, "float32", 1e-6)

    def test_search_identical_float64(self, dataset, encoder, num_shards):
        self.check_search_identical(dataset, encoder, num_shards, "float64", 1e-12)

    def check_search_identical(
        self, dataset, encoder, num_shards, store_dtype, atol
    ):
        corpus = dataset.all_items()[:20]
        single = MatchService(
            encoder, config=tiny_config(num_shards=1, store_dtype=store_dtype)
        )
        sharded = MatchService(
            encoder,
            config=tiny_config(num_shards=num_shards, store_dtype=store_dtype),
        )
        ids_single = single.index_records(corpus)
        ids_sharded = sharded.index_records(corpus)
        np.testing.assert_array_equal(ids_single, ids_sharded)
        assert single.index_size == sharded.index_size

        found_single, scores_single = single.search_batch(corpus[:8], k=4)
        found_sharded, scores_sharded = sharded.search_batch(corpus[:8], k=4)
        np.testing.assert_array_equal(found_sharded, found_single)
        np.testing.assert_allclose(
            scores_sharded, scores_single, rtol=0, atol=atol
        )

    def test_upsert_delete_parity(self, dataset, encoder, num_shards):
        corpus = dataset.all_items()[:12]
        extra = dataset.all_items()[12:16]
        single = MatchService(encoder, config=tiny_config(num_shards=1))
        sharded = MatchService(encoder, config=tiny_config(num_shards=num_shards))
        for service in (single, sharded):
            service.index_records(corpus)
            service.upsert_records(extra)
            service.delete_records(corpus[:3])
        assert single.index_size == sharded.index_size
        found_single, _ = single.search_batch(extra, k=5)
        found_sharded, _ = sharded.search_batch(extra, k=5)
        np.testing.assert_array_equal(found_sharded, found_single)


# ----------------------------------------------------------------------
class TestQueryCoalescer:
    """RequestBroker at its defaults (no depth bound, no deadlines, one
    priority level) is a plain query coalescer."""

    def run_batch_spy(self):
        calls = []

        def run_batch(texts, k):
            calls.append((list(texts), k))
            ids = np.arange(len(texts) * k, dtype=np.int64).reshape(len(texts), k)
            scores = np.full((len(texts), k), 0.5)
            return ids, scores

        return calls, run_batch

    def test_single_caller_passthrough(self):
        calls, run_batch = self.run_batch_spy()
        coalescer = RequestBroker(run_batch, window_ms=0.0, max_batch=8)
        ids, scores = coalescer.submit(["a", "b"], k=3)
        assert ids.shape == (2, 3) and scores.shape == (2, 3)
        assert calls == [(["a", "b"], 3)]
        assert coalescer.stats()["batches"] == 1.0

    def test_concurrent_callers_share_one_batch(self):
        """Callers blocked behind a slow batch coalesce into the next one,
        each getting its own rows trimmed to its own k."""
        release = threading.Event()
        calls = []

        def run_batch(texts, k):
            calls.append((list(texts), k))
            if len(calls) == 1:
                release.wait(timeout=5)  # hold batch 1 until followers queue
            ids = np.tile(np.arange(k, dtype=np.int64), (len(texts), 1))
            return ids, np.zeros((len(texts), k))

        coalescer = RequestBroker(run_batch, window_ms=50.0, max_batch=3)
        results = {}

        def caller(name, k):
            results[name] = coalescer.submit([name], k)

        leader = threading.Thread(target=caller, args=("leader", 2))
        leader.start()
        while not calls:  # leader is now inside run_batch
            pass
        followers = [
            threading.Thread(target=caller, args=(f"f{i}", 2 + i))
            for i in range(3)
        ]
        for thread in followers:
            thread.start()
        release.set()
        leader.join()
        for thread in followers:
            thread.join()

        assert len(calls) == 2  # 3 followers -> one coalesced batch
        followers_texts, followers_k = calls[1]
        assert sorted(followers_texts) == ["f0", "f1", "f2"]
        assert followers_k == 4  # max requested k
        for i in range(3):
            ids, scores = results[f"f{i}"]
            assert ids.shape == (1, 2 + i)  # trimmed back to the caller's k
        stats = coalescer.stats()
        assert stats["requests"] == 4.0 and stats["batches"] == 2.0

    def test_max_batch_caps_each_chunk(self):
        """Regression: the leader used to drain the whole queue into one
        run_batch call; chunks must respect max_batch (one oversized
        request still runs alone, since requests are never split)."""
        calls, run_batch = self.run_batch_spy()
        coalescer = RequestBroker(run_batch, window_ms=0.0, max_batch=4)
        coalescer.submit([f"q{i}" for i in range(10)], k=2)
        assert [len(texts) for texts, _ in calls] == [10]  # oversized, alone

        release = threading.Event()
        chunked_calls = []

        def chunked_run(texts, k):
            chunked_calls.append(list(texts))
            if len(chunked_calls) == 1:
                release.wait(timeout=5)
            return (
                np.zeros((len(texts), k), dtype=np.int64),
                np.zeros((len(texts), k)),
            )

        chunked = RequestBroker(chunked_run, window_ms=50.0, max_batch=4)
        leader = threading.Thread(target=chunked.submit, args=(["lead"], 2))
        leader.start()
        while not chunked_calls:
            pass
        followers = [
            threading.Thread(target=chunked.submit, args=([f"f{i}a", f"f{i}b"], 2))
            for i in range(5)
        ]
        for thread in followers:
            thread.start()
        while chunked._pending is not None and len(chunked._pending) < 5:
            pass
        release.set()
        leader.join(timeout=5)
        for thread in followers:
            thread.join(timeout=5)
        # 10 follower queries drained in chunks of <= 4.
        assert sum(len(texts) for texts in chunked_calls) == 11
        assert all(len(texts) <= 4 for texts in chunked_calls[1:])

    def test_error_propagates_to_all_waiters(self):
        def run_batch(texts, k):
            raise ValueError("backend exploded")

        coalescer = RequestBroker(run_batch, window_ms=0.0, max_batch=4)
        with pytest.raises(ValueError, match="exploded"):
            coalescer.submit(["x"], k=2)
        # The coalescer stays usable after a failed batch.
        with pytest.raises(ValueError, match="exploded"):
            coalescer.submit(["y"], k=2)

    def test_validates_parameters(self):
        run = lambda texts, k: (np.zeros((1, 1), dtype=np.int64), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            RequestBroker(run, window_ms=-1.0)
        with pytest.raises(ValueError):
            RequestBroker(run, max_batch=0)


# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_readers_share_writers_exclusive(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()  # second reader enters while first holds
        lock.release_read()
        lock.release_read()
        with lock.write_locked():
            pass  # writer acquires once readers drain

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_read()
        writer = threading.Thread(
            target=lambda: (lock.acquire_write(), order.append("w"))
        )
        writer.start()
        while not lock._writers_waiting:  # writer is queued
            pass
        reader = threading.Thread(
            target=lambda: (lock.acquire_read(), order.append("r"))
        )
        reader.start()
        lock.release_read()
        writer.join(timeout=5)
        lock.release_write()
        reader.join(timeout=5)
        assert order == ["w", "r"]  # writer preference


# ----------------------------------------------------------------------
class TestConfigAndRouting:
    def test_config_validates_sharding_knobs(self):
        with pytest.raises(ValueError):
            SudowoodoConfig(num_shards=0).validate()
        with pytest.raises(ValueError):
            SudowoodoConfig(coalesce_window_ms=-1.0).validate()
        with pytest.raises(ValueError):
            SudowoodoConfig(max_coalesce_batch=0).validate()
        SudowoodoConfig(num_shards=4).validate()

    def test_build_backend_wraps_when_sharded(self):
        backend = build_backend(SudowoodoConfig(num_shards=4))
        assert isinstance(backend, ShardedBackend)
        assert backend.num_shards == 4
        assert backend.name == "sharded-exact"
        assert isinstance(build_backend(SudowoodoConfig()), ExactBackend)
        # Explicit opt-out despite a sharded config.
        assert isinstance(
            build_backend(SudowoodoConfig(num_shards=4), sharded=False),
            ExactBackend,
        )
        # Explicit opt-in wraps even a single-shard config: callers ask
        # for sharded=True to get the lock-guarded wrapper.
        forced = build_backend(SudowoodoConfig(), sharded=True)
        assert isinstance(forced, ShardedBackend)
        assert forced.num_shards == 1

    def test_sharded_blocking_matches_single_shard(self, dataset, encoder):
        from repro.core import Blocker
        from repro.serve import EmbeddingStore

        store = EmbeddingStore(encoder)
        single = Blocker(
            encoder, dataset, store=store, backend=build_backend(tiny_config())
        ).candidates(k=3)
        sharded = Blocker(
            encoder,
            dataset,
            store=store,
            backend=build_backend(tiny_config(num_shards=3)),
        ).candidates(k=3)
        assert sharded.pairs == single.pairs

    def test_pipeline_routes_sharded_service(self, dataset):
        session = SudowoodoSession(tiny_config(num_shards=2))
        session.pretrain(dataset.all_items())
        service = session.serve()
        assert isinstance(service, MatchService)
        assert service.num_shards == 2
        assert service.store is session.store  # shared warm cache

    def test_pipeline_single_shard_service_gets_locked_backend(self, dataset):
        """There is one service class: an unsharded session's service
        is thread-safe too, its live index behind a 1-shard wrapper."""
        session = SudowoodoSession(tiny_config())
        session.pretrain(dataset.all_items())
        service = session.serve()
        service.index_records(dataset.all_items()[:8])
        assert isinstance(service._live_backend, ShardedBackend)
        assert service._live_backend.num_shards == 1

    def test_single_shard_service_still_gets_locked_backend(
        self, dataset, encoder
    ):
        """Regression: with num_shards=1 the live backend used to be a
        raw (lock-free) inner backend, so searches raced mutations."""
        service = MatchService(encoder, config=tiny_config(num_shards=1))
        service.index_records(dataset.all_items()[:8])
        assert isinstance(service._live_backend, ShardedBackend)
        assert service._live_backend.num_shards == 1

    def test_services_sharing_a_store_share_its_lock(self, dataset, encoder):
        """Regression: each service used to carry a private store mutex,
        so two services over one store raced inside the (not
        thread-safe) EmbeddingStore despite each being 'thread-safe'."""
        from repro.serve import EmbeddingStore

        store = EmbeddingStore(encoder)
        first = MatchService(
            encoder, config=tiny_config(num_shards=2), store=store
        )
        second = MatchService(
            encoder, config=tiny_config(num_shards=3), store=store
        )
        assert first._store_lock is store.lock
        assert second._store_lock is store.lock

    def test_full_leader_batch_skips_the_window(self, encoder):
        """Regression: a leader whose own request already filled the
        batch used to idle out the whole coalesce window regardless."""
        run = lambda texts, k: (
            np.zeros((len(texts), k), dtype=np.int64),
            np.zeros((len(texts), k)),
        )
        coalescer = RequestBroker(run, window_ms=500.0, max_batch=4)
        start = time.perf_counter()
        coalescer.submit(["a", "b", "c", "d"], k=1)  # fills max_batch alone
        assert time.perf_counter() - start < 0.25  # no 500 ms idle wait
