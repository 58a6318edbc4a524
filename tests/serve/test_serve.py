"""Serving-layer tests: EmbeddingStore caching + persistence, ANN backend
parity and mutability, the streaming MatchService APIs, blocking over a
shared store, and single-encoding pipeline integration."""

import threading

import numpy as np
import pytest

from repro.api import SudowoodoSession
from repro.core import (
    Blocker,
    SudowoodoConfig,
    PairwiseMatcher,
    SudowoodoEncoder,
    TrainingExample,
    build_tokenizer,
    finetune_matcher,
)
from repro.data.generators import load_em_benchmark
from repro.serve import (
    EmbeddingStore,
    ExactBackend,
    HNSWBackend,
    IVFPQBackend,
    MatchService,
    build_backend,
)
from repro.utils import spawn_rng
from similarity_oracles import top_k_cosine


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


# ----------------------------------------------------------------------
class TestEmbeddingStore:
    def test_miss_then_hit(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:6]
        first = store.embed_batch(texts)
        assert store.misses == len(set(texts))
        assert store.hits == len(texts) - len(set(texts))
        second = store.embed_batch(texts)
        np.testing.assert_array_equal(first, second)
        assert store.misses == len(set(texts))  # nothing re-encoded
        assert store.stats()["hit_rate"] > 0.0

    def test_duplicates_encoded_once(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        text = dataset.all_items()[0]
        matrix = store.embed_batch([text, text, text])
        assert len(store) == 1
        assert store.misses == 1 and store.hits == 2
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_matches_direct_encoding(self, dataset, encoder):
        store = EmbeddingStore(encoder, batch_size=4)
        texts = dataset.all_items()[:8]
        np.testing.assert_allclose(
            store.embed_batch(texts),
            encoder.embed_items(texts, normalize=False),
            atol=1e-9,
        )

    def test_normalize_returns_unit_rows(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        matrix = store.embed_batch(dataset.all_items()[:5], normalize=True)
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("cache", [True, False])
    def test_cache_flag_governs_the_token_cache(self, encoder, cache):
        """``cache=True`` misses enter both the store and the encoder's
        token cache; ``cache=False`` misses enter neither."""
        store = EmbeddingStore(encoder)
        texts = [f"[COL] name [VAL] token flag {cache} probe {i}" for i in range(3)]
        tokens_before = encoder.token_cache_stats()["size"]
        store.embed_batch(texts, cache=cache)
        grown = len(texts) if cache else 0
        assert len(store) == grown
        assert encoder.token_cache_stats()["size"] == tokens_before + grown

    def test_uncached_rows_equal_cached_rows(self, encoder):
        texts = [f"[COL] name [VAL] cold row probe {i}" for i in range(3)]
        cold = EmbeddingStore(encoder).embed_batch(texts, cache=False)
        warm = EmbeddingStore(encoder).embed_batch(texts)
        np.testing.assert_array_equal(cold, warm)

    def test_persistence_roundtrip(self, dataset, encoder, tmp_path):
        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:6]
        original = store.embed_batch(texts)
        store.save(tmp_path / "cache.npz")

        fresh = EmbeddingStore(encoder)
        loaded = fresh.load(tmp_path / "cache.npz")
        assert loaded == len(set(texts))
        reloaded = fresh.embed_batch(texts)
        assert fresh.misses == 0  # every lookup served from the loaded cache
        np.testing.assert_allclose(original, reloaded, atol=1e-12)

    def test_load_rejects_other_encoder(self, dataset, encoder, tmp_path):
        store = EmbeddingStore(encoder)
        store.embed_batch(dataset.all_items()[:4])
        path = store.save(tmp_path / "cache.npz")

        other_config = tiny_config(seed=7)
        other = SudowoodoEncoder(
            other_config, build_tokenizer(dataset.all_items(), other_config)
        )
        with pytest.raises(ValueError):
            EmbeddingStore(other).load(path)
        # Same dimension: non-strict load is allowed.
        assert EmbeddingStore(other).load(path, strict=False) == 4

    def test_load_rejects_mutated_weights(self, dataset, tmp_path):
        """In-place fine-tuning changes weights but not config/vocab; a
        strict load must still reject the now-stale cache."""
        config = tiny_config()
        enc = SudowoodoEncoder(config, build_tokenizer(dataset.all_items(), config))
        store = EmbeddingStore(enc)
        store.embed_batch(dataset.all_items()[:4])
        path = store.save(tmp_path / "cache.npz")

        enc.projector.weight.data += 0.5  # simulate fine-tuning drift
        with pytest.raises(ValueError):
            EmbeddingStore(enc).load(path)

    def test_load_rejects_dim_mismatch(self, dataset, encoder, tmp_path):
        store = EmbeddingStore(encoder)
        store.embed_batch(dataset.all_items()[:4])
        path = store.save(tmp_path / "cache.npz")

        small_config = tiny_config(dim=8, ffn_dim=16)
        small = SudowoodoEncoder(
            small_config, build_tokenizer(dataset.all_items(), small_config)
        )
        with pytest.raises(ValueError):
            EmbeddingStore(small).load(path, strict=False)

    @pytest.mark.parametrize("call", ["save", "load"])
    def test_save_and_load_wait_for_the_store_lock(
        self, dataset, encoder, tmp_path, call
    ):
        """Both read or mutate the cache and the id state, so, like every
        other state-touching method, both wait while another thread holds
        ``store.lock``."""
        source = EmbeddingStore(encoder)
        source.embed_batch(dataset.all_items()[:4])
        path = source.save(tmp_path / "source.npz")
        store = EmbeddingStore(encoder)
        store.embed_batch(dataset.all_items()[4:6])
        actions = {
            "save": lambda: store.save(tmp_path / "out.npz"),
            "load": lambda: store.load(path),
        }
        held, release, finished = (threading.Event() for _ in range(3))

        def hold_lock():
            with store.lock:
                held.set()
                release.wait(10.0)

        def run_call():
            actions[call]()
            finished.set()

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert held.wait(5.0)
        caller = threading.Thread(target=run_call)
        caller.start()
        try:
            assert not finished.wait(0.5), f"{call} ran while the lock was held"
        finally:
            release.set()
            holder.join()
        caller.join(10.0)
        assert finished.is_set()


# ----------------------------------------------------------------------
class TestBackends:
    @pytest.fixture(scope="class")
    def vectors(self):
        rng = spawn_rng(0, "serve-backend-test")
        matrix = rng.normal(size=(200, 16))
        return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)

    def test_exact_matches_top_k_cosine(self, vectors):
        backend = ExactBackend().build(vectors)
        indices, scores = backend.query(vectors[:20], k=5)
        expected_indices, expected_scores = top_k_cosine(vectors[:20], vectors, k=5)
        np.testing.assert_array_equal(indices, expected_indices)
        np.testing.assert_allclose(scores, expected_scores)

    def test_query_before_build_raises(self, vectors):
        with pytest.raises(RuntimeError):
            ExactBackend().query(vectors[:2], k=3)
        with pytest.raises(RuntimeError):
            HNSWBackend().query(vectors[:2], k=3)

    def test_registry(self):
        for name, kind in (
            ("exact", ExactBackend),
            ("hnsw", HNSWBackend),
            ("ivfpq", IVFPQBackend),
        ):
            assert isinstance(build_backend(name=name), kind)
        # The retired LSH backend fails like any unknown name.
        config = SudowoodoConfig(ann_backend="lsh")
        with pytest.raises(
            ValueError,
            match=r"unknown ANN backend 'lsh'; available: \['exact', 'hnsw', 'ivfpq'\]",
        ):
            build_backend(config)
        with pytest.raises(ValueError):
            build_backend(config, name="no-such-index")


# ----------------------------------------------------------------------
def make_backend(name):
    if name == "exact":
        return ExactBackend()
    if name == "ivfpq":
        # A threshold under the 120-row fixture: the trained (coded) path.
        return IVFPQBackend(num_cells=4, num_subvectors=4, train_threshold=64)
    return HNSWBackend(seed=0)


class TestMutableBackends:
    """add / remove / rebuild across every built-in backend."""

    @pytest.fixture(scope="class")
    def vectors(self):
        rng = spawn_rng(0, "mutable-backend-test")
        matrix = rng.normal(size=(120, 16))
        return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)

    @pytest.fixture(scope="class")
    def extra(self):
        rng = spawn_rng(1, "mutable-backend-extra")
        matrix = rng.normal(size=(6, 16))
        return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_add_new_records_visible(self, name, vectors, extra):
        backend = make_backend(name).build(vectors)
        assert len(backend) == vectors.shape[0]
        ids = np.arange(500, 500 + extra.shape[0])
        backend.add(ids, extra)
        assert len(backend) == vectors.shape[0] + extra.shape[0]
        found, scores = backend.query(extra, k=3)
        for row in range(extra.shape[0]):
            assert ids[row] in found[row]  # each new record is its own NN
            assert scores[row, 0] >= scores[row, 1]

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_remove_hides_records(self, name, vectors, extra):
        backend = make_backend(name).build(vectors)
        ids = np.arange(500, 500 + extra.shape[0])
        backend.add(ids, extra)
        backend.remove(ids[:3])
        assert len(backend) == vectors.shape[0] + 3
        found, _ = backend.query(extra[:3], k=5)
        assert not (np.isin(found, ids[:3])).any()
        # Un-removed additions are still served.
        found_kept, _ = backend.query(extra[3:], k=3)
        for row, record_id in enumerate(ids[3:]):
            assert record_id in found_kept[row]

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_upsert_replaces_vector(self, name, vectors, extra):
        backend = make_backend(name).build(vectors)
        backend.add(np.array([900]), extra[:1])
        backend.add(np.array([900]), extra[1:2])  # same id, new vector
        assert len(backend) == vectors.shape[0] + 1
        found, _ = backend.query(extra[1:2], k=3)
        assert 900 in found[0]

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_rebuild_preserves_ids(self, name, vectors, extra):
        backend = make_backend(name).build(vectors)
        ids = np.arange(500, 500 + extra.shape[0])
        backend.add(ids, extra)
        backend.remove(ids[::2])
        live = len(backend)
        backend.rebuild()
        assert len(backend) == live
        found, _ = backend.query(extra[1::2], k=3)
        for row, record_id in enumerate(ids[1::2]):
            assert record_id in found[row]

    def test_exact_rebuild_trims_capacity_left_by_remove(self, vectors, extra):
        """Swap-with-last ``remove`` never shrinks the row buffer; a
        mostly-deleted index gives the memory back on ``rebuild``."""
        backend = make_backend("exact").build(vectors)
        backend.remove(np.arange(10, vectors.shape[0]))
        assert backend._vectors.shape[0] == vectors.shape[0]  # retained
        before = backend.query(extra, k=4)
        backend.rebuild()
        assert backend._vectors.shape[0] == backend._ids.shape[0] == 10
        after = backend.query(extra, k=4)
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_allclose(after[1], before[1], rtol=0, atol=1e-12)
        backend.add([700], extra[:1])  # the trimmed buffer still grows
        assert backend.query(extra[:1], k=1)[0][0, 0] == 700

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_remove_unknown_id_raises(self, name, vectors):
        backend = make_backend(name).build(vectors)
        with pytest.raises(KeyError):
            backend.remove([10_000])

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_duplicate_ids_in_add_rejected(self, name, vectors, extra):
        backend = make_backend(name).build(vectors)
        with pytest.raises(ValueError):
            backend.add(np.array([7, 7]), extra[:2])

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_duplicate_ids_in_remove_rejected_before_mutation(
        self, name, vectors
    ):
        """Regression: a duplicated id used to corrupt bucket/graph state
        halfway through the patch; it must fail atomically instead."""
        backend = make_backend(name).build(vectors)
        with pytest.raises(ValueError):
            backend.remove([5, 5])
        # Nothing was mutated: the id still resolves and can be removed.
        assert len(backend) == vectors.shape[0]
        backend.remove([5])
        assert len(backend) == vectors.shape[0] - 1

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    @pytest.mark.parametrize("bad_dim", [1, 5])
    def test_wrong_dimension_add_rejected_before_mutation(
        self, name, bad_dim, vectors
    ):
        """Regression: the slot backends tombstoned already-indexed ids
        before the wrapped index rejected the block (both records lost),
        and the exact backend *accepted* a (N, 1) block by broadcasting
        the scalar across the row."""
        backend = make_backend(name).build(vectors)
        before = backend.query(vectors[:3], k=4)
        with pytest.raises(ValueError, match=r"expected \(N, 16\) vectors"):
            backend.add([0, 1], np.ones((2, bad_dim)))
        assert len(backend) == vectors.shape[0]
        after = backend.query(vectors[:3], k=4)
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        backend.remove([0])  # the record is still there to remove
        assert len(backend) == vectors.shape[0] - 1

    @pytest.mark.parametrize("name", ["exact", "hnsw", "ivfpq"])
    def test_build_from_empty_then_add(self, name, extra):
        backend = make_backend(name).build(np.zeros((0, 16)))
        assert len(backend) == 0
        found, scores = backend.query(extra[:2], k=4)
        assert (found == -1).all() and np.isneginf(scores).all()
        backend.add(np.array([3, 9]), extra[:2])
        found, _ = backend.query(extra[:1], k=1)
        assert found[0, 0] == 3

    def test_hnsw_recall_parity(self, vectors):
        backend = HNSWBackend(seed=0).build(vectors)
        approx, _ = backend.query(vectors, k=5)
        exact, _ = ExactBackend().build(vectors).query(vectors, k=5)
        hits = sum(
            len(set(exact[row]) & set(i for i in approx[row] if i >= 0))
            for row in range(vectors.shape[0])
        )
        assert hits / exact.size >= 0.9

    def test_hnsw_deterministic(self, vectors):
        first, _ = HNSWBackend(seed=3).build(vectors).query(vectors[:10], k=4)
        second, _ = HNSWBackend(seed=3).build(vectors).query(vectors[:10], k=4)
        np.testing.assert_array_equal(first, second)

    def test_hnsw_query_under_heavy_churn(self, vectors):
        """Deleting most of the corpus must not starve result rows."""
        backend = HNSWBackend(seed=0).build(vectors)
        backend.remove(np.arange(0, 100))
        found, _ = backend.query(vectors[:5], k=10)
        for row in range(5):
            returned = found[row][found[row] >= 0]
            assert returned.size == 10  # 20 live records remain
            assert (returned >= 100).all()


# ----------------------------------------------------------------------
class TestStableIds:
    """EmbeddingStore record ids: upsert_batch / evict / persistence."""

    def test_upsert_batch_delta_encodes(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:6]
        ids, vectors = store.upsert_batch(texts)
        assert vectors.shape == (len(texts), store.dim)
        assert store.misses == len(set(texts))
        # Second upsert of an overlapping batch encodes only the delta.
        more = dataset.all_items()[4:8]
        ids2, _ = store.upsert_batch(more)
        assert store.misses == len(set(texts) | set(more))
        # Overlapping texts keep their ids.
        assert ids2[0] == ids[4] and ids2[1] == ids[5]

    def test_ids_stable_across_clear(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:3]
        ids, _ = store.upsert_batch(texts)
        store.clear()
        assert texts[0] not in store  # vectors dropped...
        ids_again = store.ids_for(texts)
        np.testing.assert_array_equal(ids, ids_again)  # ...but ids survive

    def test_evict_retires_ids_permanently(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:4]
        ids, _ = store.upsert_batch(texts)
        retired = store.evict(texts[:2])
        np.testing.assert_array_equal(retired, ids[:2])
        assert not store.has_id(int(ids[0]))
        # A re-upserted evicted text is a new record with a fresh id.
        fresh, _ = store.upsert_batch(texts[:1])
        assert fresh[0] not in ids

    def test_evict_unknown_text_raises(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        with pytest.raises(KeyError):
            store.evict(["never seen this"])

    def test_ids_for_without_assign_raises_on_unknown(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        with pytest.raises(KeyError):
            store.ids_for(["unknown text"], assign=False)

    def test_cleared_ids_survive_save_load(self, dataset, encoder, tmp_path):
        """Regression: id assignments must persist even for records whose
        vectors were dropped before the save."""
        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:5]
        ids, _ = store.upsert_batch(texts)
        store.clear()
        store.embed_batch(texts[3:])
        assert len(store) == 2  # vectors 0-2 dropped, ids still assigned
        path = store.save(tmp_path / "cache.npz")

        fresh = EmbeddingStore(encoder)
        fresh.load(path)
        np.testing.assert_array_equal(fresh.ids_for(texts, assign=False), ids)

    def test_load_never_rewinds_id_sequence(self, dataset, encoder, tmp_path):
        """Regression: loading an older cache must not rewind next_id and
        reissue ids this store already handed out (and possibly retired)."""
        old_store = EmbeddingStore(encoder)
        old_store.upsert_batch(dataset.all_items()[:2])  # file next_id == 2
        path = old_store.save(tmp_path / "old.npz")

        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:10]
        ids, _ = store.upsert_batch(texts)
        store.evict(texts)  # all retired; _key_ids empty again
        store.load(path)
        reissued = store.ids_for(["a brand new streaming record"])[0]
        assert reissued not in set(ids.tolist())
        assert reissued >= ids.max() + 1

    def test_failed_reindex_leaves_live_index_intact(self, dataset, encoder):
        """Regression: index_records with an invalid backend must not
        clobber the frozen mean / live index before failing."""
        service = MatchService(encoder, config=tiny_config())
        corpus = dataset.all_items()[:8]
        ids = service.index_records(corpus)
        mean_before = service._index_mean.copy()
        service.config = tiny_config(ann_backend="no-such-index")
        with pytest.raises(ValueError, match="unknown ANN backend"):
            service.index_records(dataset.all_items()[:4])
        # Old index still serves, under the unchanged mean.
        np.testing.assert_array_equal(service._index_mean, mean_before)
        found, _ = service.search_batch(corpus[:1], k=2)
        assert ids[0] in found[0]

    def test_search_does_not_grow_store(self, dataset, encoder):
        """Query traffic must not populate (or evict from) the corpus cache."""
        service = MatchService(encoder, config=tiny_config())
        corpus = dataset.all_items()[:8]
        service.index_records(corpus)
        size_before = len(service.store)
        service.search_batch(["transient query one", "transient query two"], k=3)
        assert len(service.store) == size_before

    def test_search_does_not_grow_token_cache(self, dataset, encoder):
        """Query misses are tokenized cold: the encoder's token cache,
        like the store, keeps only what was indexed."""
        service = MatchService(encoder, config=tiny_config())
        service.index_records(dataset.all_items()[:8])
        size_before = encoder.token_cache_stats()["size"]
        service.search_batch(["token cache query one", "token cache query two"], k=3)
        assert encoder.token_cache_stats()["size"] == size_before

    def test_churn_keeps_store_and_token_cache_at_live_size(self, encoder):
        """A deleted record leaves the store *and* the encoder's token
        cache: an index held at 40 records through upsert/delete rounds
        keeps both caches at 40 entries."""
        encoder = encoder.clone()  # a token cache of its own
        service = MatchService(encoder, config=tiny_config())
        live = [f"[COL] name [VAL] churn record 0 {i}" for i in range(40)]
        service.index_records(live)
        assert len(encoder.token_cache()) == 40
        for round_ in range(1, 7):
            fresh = [f"[COL] name [VAL] churn record {round_} {i}" for i in range(40)]
            service.upsert_records(fresh)
            service.delete_records(live)
            live = fresh
            assert service.index_size == len(service.store) == 40
            assert len(encoder.token_cache()) == 40

    def test_id_state_persists_across_save_load(self, dataset, encoder, tmp_path):
        store = EmbeddingStore(encoder)
        texts = dataset.all_items()[:5]
        ids, _ = store.upsert_batch(texts)
        store.evict(texts[4:5])  # retire one id so next_id > live max + 1
        path = store.save(tmp_path / "cache.npz")

        fresh = EmbeddingStore(encoder)
        fresh.load(path)
        np.testing.assert_array_equal(
            fresh.ids_for(texts[:4], assign=False), ids[:4]
        )
        # The id sequence continues — the retired id is never reused.
        new_id = fresh.ids_for(["a brand new record"])[0]
        assert new_id >= ids[4] + 1


# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", ["exact", "hnsw", "ivfpq"])
class TestStreamingService:
    """MatchService live index: index / upsert / delete / search."""

    def service(self, encoder, backend_name):
        return MatchService(
            encoder, config=tiny_config(ann_backend=backend_name)
        )

    def test_index_upsert_search_delete_cycle(self, dataset, encoder, backend_name):
        service = self.service(encoder, backend_name)
        corpus = dataset.all_items()[:10]
        ids = service.index_records(corpus)
        assert service.index_size == len(set(corpus))

        misses = service.store.misses
        new_records = dataset.all_items()[10:13]
        new_ids = service.upsert_records(new_records)
        expected_new = len(set(new_records) - set(corpus))
        assert service.store.misses == misses + expected_new  # delta only

        found, scores = service.search_batch(new_records, k=3)
        assert found.shape == (len(new_records), 3)
        for row in range(len(new_records)):
            assert new_ids[row] in found[row]
            assert service.record_text(int(new_ids[row])) == new_records[row]

        retired = service.delete_records(new_records[:1])
        assert retired[0] == new_ids[0]
        found_after, _ = service.search_batch(new_records[:1], k=5)
        assert new_ids[0] not in found_after[0]

    def test_search_without_index_raises(self, dataset, encoder, backend_name):
        service = self.service(encoder, backend_name)
        with pytest.raises(RuntimeError):
            service.search_batch(["x"], k=2)
        with pytest.raises(RuntimeError):
            service.delete_records(["x"])

    def test_delete_unindexed_text_is_noop(self, dataset, encoder, backend_name):
        """Regression: deleting a text that was never indexed (or already
        deleted) is a documented no-op returning an empty id array — and
        it must not evict cached-but-unindexed texts from the store."""
        service = self.service(encoder, backend_name)
        corpus = dataset.all_items()[:6]
        service.index_records(corpus)
        size = service.index_size

        retired = service.delete_records(["never indexed"])
        assert retired.shape == (0,) and retired.dtype == np.int64
        assert service.index_size == size

        # A text cached by batch traffic but never indexed is skipped too,
        # and its cache entry survives (eviction symmetry with the index).
        cached_only = "[COL] name [VAL] cached but never indexed"
        service.embed_batch([cached_only])
        assert cached_only in service.store
        assert service.delete_records([cached_only]).size == 0
        assert cached_only in service.store

        # Mixed batches retire exactly the indexed subset, once each.
        real = service.delete_records(
            [corpus[0], "never indexed", corpus[0], corpus[1]]
        )
        assert real.size == 2
        assert service.index_size == size - 2
        # Deleting the same records again is now a no-op as well.
        assert service.delete_records([corpus[0], corpus[1]]).size == 0

    def test_deleted_record_never_resurrected(self, dataset, encoder, backend_name):
        service = self.service(encoder, backend_name)
        corpus = dataset.all_items()[:8]
        service.index_records(corpus)
        old_id = int(service.delete_records(corpus[:1])[0])
        new_id = int(service.upsert_records(corpus[:1])[0])
        assert new_id != old_id  # fresh identity for the re-added record
        found, _ = service.search_batch(corpus[:1], k=3)
        assert new_id in found[0] and old_id not in found[0]

    def test_rebuild_index_keeps_serving(self, dataset, encoder, backend_name):
        service = self.service(encoder, backend_name)
        corpus = dataset.all_items()[:10]
        ids = service.index_records(corpus)
        service.delete_records(corpus[:3])
        service.rebuild_index()
        assert service.index_size == len(set(corpus)) - 3
        found, _ = service.search_batch(corpus[3:4], k=2)
        assert ids[3] in found[0]

    def test_rebuild_index_does_not_reencode(self, dataset, encoder, backend_name):
        """Churn (upserts, then deletes) followed by a rebuild compacts the
        index from the cache: no record is encoded again, surviving ids
        still retrieve themselves and deleted ids stay gone."""
        service = self.service(encoder, backend_name)
        corpus = dataset.all_items()[:10]
        service.index_records(corpus)
        churn = dataset.all_items()[10:12]
        kept_id, dropped_id = (int(i) for i in service.upsert_records(churn))
        service.delete_records(churn[1:])
        misses = service.store.misses
        service.rebuild_index()
        assert service.store.misses == misses  # cache-only rebuild
        assert service.index_size == len(set(corpus)) + 1
        found, _ = service.search_batch(churn, k=3)
        assert kept_id in found[0]
        assert dropped_id not in found.ravel()


# ----------------------------------------------------------------------
class TestBlockerAndService:
    def test_blocker_shares_store(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        first = Blocker(encoder, dataset, store=store)
        misses_after_first = store.misses
        second = Blocker(encoder, dataset, store=store)
        assert store.misses == misses_after_first  # corpus encoded once
        np.testing.assert_allclose(first.vectors_a, second.vectors_a)

    def test_blocker_candidates_warm_cache(self, dataset, encoder):
        """Batch blocking covers both tables with at most k valid B ids per
        A row, and a second run over the same store is pure cache hits."""
        store = EmbeddingStore(encoder)
        candidate_set = Blocker(encoder, dataset, store=store).candidates(k=3)
        assert candidate_set.num_a == len(dataset.table_a)
        assert candidate_set.num_b == len(dataset.table_b)
        assert all(0 <= b < candidate_set.num_b for _, b in candidate_set.pairs)
        per_row = {}
        for a, _ in candidate_set.pairs:
            per_row[a] = per_row.get(a, 0) + 1
        assert max(per_row.values()) <= 3
        misses = store.misses
        Blocker(encoder, dataset, store=store).candidates(k=5)
        assert store.misses == misses

    def test_exact_vs_hnsw_blocking_parity(self, dataset, encoder):
        store = EmbeddingStore(encoder)
        exact = Blocker(encoder, dataset, store=store).candidates(k=3)
        hnsw = Blocker(
            encoder, dataset, store=store, backend=HNSWBackend(seed=0)
        ).candidates(k=3)
        overlap = len(set(hnsw.pairs) & set(exact.pairs)) / len(exact.pairs)
        assert overlap >= 0.95

    def test_match_service_shares_an_empty_store(self, encoder):
        """Regression: an empty store is falsy (defines __len__); the
        service must still share it rather than silently create its own."""
        store = EmbeddingStore(encoder)
        assert len(store) == 0
        assert MatchService(encoder, store=store).store is store

    def test_deterministic_across_rebuilds(self, dataset):
        """Same seed => same tokenizer, weights, embeddings, candidates."""
        runs = []
        for _ in range(2):
            config = tiny_config()
            enc = SudowoodoEncoder(config, build_tokenizer(dataset.all_items(), config))
            store = EmbeddingStore(enc)
            blocker = Blocker(
                enc,
                dataset,
                store=store,
                backend=HNSWBackend(seed=config.seed),
            )
            runs.append(blocker.candidates(k=3).pairs)
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
def pretrained_session(dataset, **overrides) -> SudowoodoSession:
    session = SudowoodoSession(tiny_config(**overrides))
    session.pretrain(dataset.all_items())
    return session


class TestPipelineIntegration:
    def test_single_encoding_per_run(self, dataset):
        session = pretrained_session(dataset, finetune_epochs=1, multiplier=2)
        session.task("block").fit(dataset, k=3)
        corpus_size = len(session.store)
        misses = session.store.misses
        assert misses == corpus_size  # every unique record encoded exactly once

        session.task("block").predict(k=5)
        match = session.task("match").fit(dataset, label_budget=16)
        match.pseudo_labels(8)
        service = session.serve(match)
        service.embed_batch(dataset.all_items())
        assert session.store.misses == misses  # warm cache across tasks
        assert len(session.store) == corpus_size  # fine-tuning cleared nothing

    @pytest.mark.parametrize(
        "name, backend_type", [("hnsw", HNSWBackend), ("ivfpq", IVFPQBackend)]
    )
    def test_pipeline_ann_backend(self, dataset, name, backend_type):
        session = pretrained_session(dataset, ann_backend=name)
        block = session.task("block").fit(dataset, k=3)
        assert len(block.predict()) > 0
        assert isinstance(block.blocker.backend, backend_type)

    def test_finetune_changes_fingerprint_and_invalidates_cache(
        self, dataset, tmp_path
    ):
        """The PR 1 invalidation contract of the *store*: fine-tuning the
        encoder it wraps in place (a) changes ``encoder_fingerprint()`` and
        (b) makes a cache saved before strict-load-fail."""
        config = tiny_config(finetune_epochs=1)
        enc = SudowoodoEncoder(config, build_tokenizer(dataset.all_items(), config))
        store = EmbeddingStore(enc)
        store.embed_batch(dataset.all_items())
        fingerprint_before = store.encoder_fingerprint()
        path = store.save(tmp_path / "pre_finetune.npz")

        examples = [
            TrainingExample(*dataset.serialize_pair(pair), pair.label)
            for pair in dataset.pairs.train[:16]
        ]
        finetune_matcher(PairwiseMatcher(enc), examples, examples, config)

        assert store.encoder_fingerprint() != fingerprint_before
        # The persisted pre-finetune cache is rejected by a strict load
        # into the (mutated) encoder...
        store.clear()
        with pytest.raises(ValueError, match="different encoder"):
            store.load(path)
        # ...while a non-strict load remains possible for callers that
        # accept drift.
        assert store.load(path, strict=False) > 0
