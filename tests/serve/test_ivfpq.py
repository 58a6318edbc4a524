"""IVF-PQ backend: flat/trained lifecycle, recall vs exact, protocol
compliance, registry + sharding + frontend composition, persistence."""

import numpy as np
import pytest

from repro.core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from repro.nn import load_state_archive, save_state_archive
from repro.serve import (
    ExactBackend,
    IVFPQBackend,
    MatchService,
    ProductQuantizer,
    ServiceFrontend,
    ShardedBackend,
    build_backend,
)
from repro.text.similarity import normalize_rows

DIM = 32


def clustered_corpus(n=1600, dim=DIM, num_clusters=8, noise=0.15, seed=0):
    """Seeded synthetic corpus with planted cluster structure (the shape
    IVF thrives on), unit-normalized like every backend consumer."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_clusters, dim))
    rows = np.repeat(centers, n // num_clusters, axis=0)
    rows = rows + noise * rng.normal(size=rows.shape)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def trained_backend(rows, **overrides):
    params = dict(
        num_cells=8, num_subvectors=16, bits=8, nprobe=8, train_threshold=256
    )
    params.update(overrides)
    return IVFPQBackend(**params).build(rows)


def recall_vs_exact(backend, rows, queries, k=10):
    exact_ids, _ = ExactBackend().build(rows).query(queries, k)
    approx_ids, _ = backend.query(queries, k)
    overlaps = [
        len(set(a[a >= 0].tolist()) & set(e[e >= 0].tolist())) / k
        for a, e in zip(approx_ids, exact_ids)
    ]
    return float(np.mean(overlaps))


# ----------------------------------------------------------------------
class TestProductQuantizer:
    def test_round_trip_error_bounded(self):
        rows = clustered_corpus(n=800)
        pq = ProductQuantizer(num_subvectors=16, bits=8).train(rows)
        recovered = pq.decode(pq.encode(rows))
        assert np.linalg.norm(recovered - rows, axis=1).mean() < 0.15

    def test_codes_are_bytes(self):
        rows = clustered_corpus(n=400)
        pq = ProductQuantizer(num_subvectors=8, bits=4).train(rows)
        codes = pq.encode(rows)
        assert codes.dtype == np.uint8
        assert codes.shape == (400, 8)
        assert codes.max() < 2**4

    def test_distance_tables_match_brute_force(self):
        rows = clustered_corpus(n=300)
        pq = ProductQuantizer(num_subvectors=8, bits=6).train(rows)
        query = rows[0]
        tables = pq.distance_tables(query)
        codes = pq.encode(rows[:20])
        adc = tables[np.arange(8)[None, :], codes].sum(axis=1)
        exact = ((pq.decode(codes) - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(adc, exact, atol=1e-9)

    def test_indivisible_dim_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            ProductQuantizer(num_subvectors=7).train(clustered_corpus(n=100))

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            ProductQuantizer(bits=9)
        with pytest.raises(ValueError):
            ProductQuantizer(bits=0)

    def test_encode_before_train_raises(self):
        with pytest.raises(RuntimeError):
            ProductQuantizer().encode(np.zeros((1, 32)))


# ----------------------------------------------------------------------
class TestIVFPQLifecycle:
    def test_small_corpus_stays_flat_and_exact(self):
        rows = clustered_corpus(n=64)
        backend = IVFPQBackend(train_threshold=256).build(rows)
        assert not backend.trained
        ids, scores = backend.query(rows[:8], k=5)
        exact_ids, exact_scores = ExactBackend().build(rows).query(rows[:8], k=5)
        np.testing.assert_array_equal(ids, exact_ids)
        np.testing.assert_allclose(scores, exact_scores, atol=1e-6)

    def test_training_triggers_at_threshold(self):
        rows = clustered_corpus(n=512)
        backend = IVFPQBackend(num_cells=8, num_subvectors=16, train_threshold=256)
        backend.build(np.zeros((0, DIM)))
        backend.add(np.arange(200), rows[:200])
        assert not backend.trained
        backend.add(np.arange(200, 512), rows[200:])
        assert backend.trained
        assert len(backend) == 512

    def test_build_then_add_matches_one_shot_build(self):
        rows = clustered_corpus(n=600)
        one_shot = trained_backend(rows)
        incremental = IVFPQBackend(
            num_cells=8, num_subvectors=16, nprobe=8, train_threshold=256
        )
        incremental.build(np.zeros((0, DIM)))
        incremental.add(np.arange(600), rows)
        ids_a, scores_a = one_shot.query(rows[:32], k=10)
        ids_b, scores_b = incremental.query(rows[:32], k=10)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(scores_a, scores_b, atol=1e-9)

    def test_recall_at_least_080_vs_exact(self):
        rows = clustered_corpus()
        backend = trained_backend(rows)
        assert backend.trained
        assert recall_vs_exact(backend, rows, rows[::16], k=10) >= 0.8

    def test_nprobe_dials_recall(self):
        rows = clustered_corpus()
        wide = trained_backend(rows, nprobe=8)
        narrow = trained_backend(rows, nprobe=1)
        queries = rows[::16]
        assert recall_vs_exact(wide, rows, queries) >= recall_vs_exact(
            narrow, rows, queries
        )

    def test_memory_shrinks_vs_dense_float64(self):
        # At 1600 rows the fixed codebook cost (2**bits codewords per
        # subquantizer) still dominates, so assert a conservative 3x
        # here; the ≥8x claim is asserted at scale by
        # benchmarks/bench_million_scale.py, where per-row code bytes
        # dwarf the codebooks.
        rows = clustered_corpus()
        backend = trained_backend(rows)
        dense = rows.shape[0] * DIM * 8
        assert backend.memory_bytes() * 3 <= dense

    def test_add_after_training_is_searchable(self):
        rows = clustered_corpus(n=600)
        backend = trained_backend(rows[:512])
        backend.add(np.arange(512, 600), rows[512:])
        assert len(backend) == 600
        ids, _ = backend.query(rows[512:516], k=1)
        assert set(ids[:, 0].tolist()) <= set(range(512, 600))

    def test_remove_and_upsert(self):
        rows = clustered_corpus(n=512)
        backend = trained_backend(rows)
        backend.remove([0, 1, 2])
        assert len(backend) == 509
        ids, _ = backend.query(rows[:4], k=5)
        assert not ({0, 1, 2} & set(ids.ravel().tolist()))
        backend.add(np.array([1]), rows[1:2])  # re-insert
        assert len(backend) == 510
        backend.add(np.array([1]), rows[3:4])  # upsert replaces in place
        assert len(backend) == 510

    def test_remove_unknown_id_atomic(self):
        rows = clustered_corpus(n=512)
        backend = trained_backend(rows)
        with pytest.raises(KeyError, match="9999"):
            backend.remove([5, 9999])
        assert len(backend) == 512  # the valid id was not deleted

    def test_query_padding_and_errors(self):
        rows = clustered_corpus(n=64)
        backend = IVFPQBackend().build(rows)
        ids, scores = backend.query(rows[:2], k=100)
        assert ids.shape == (2, 100)
        assert (ids[:, 64:] == -1).all()
        assert np.isneginf(scores[:, 64:]).all()
        with pytest.raises(ValueError):
            backend.query(rows[:1], k=0)
        with pytest.raises(RuntimeError):
            IVFPQBackend().query(rows[:1], k=1)

    def test_deterministic_given_seed(self):
        rows = clustered_corpus()
        a = trained_backend(rows, seed=3)
        b = trained_backend(rows, seed=3)
        ids_a, scores_a = a.query(rows[:16], k=10)
        ids_b, scores_b = b.query(rows[:16], k=10)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(scores_a, scores_b)


# ----------------------------------------------------------------------
class TestRegistryComposition:
    def test_registered(self):
        assert isinstance(build_backend(name="ivfpq"), IVFPQBackend)

    def test_build_backend_reads_config_knobs(self):
        config = SudowoodoConfig(
            ann_backend="ivfpq", ivf_cells=4, pq_subvectors=16, pq_bits=6, nprobe=2
        )
        backend = build_backend(config)
        assert isinstance(backend, IVFPQBackend)
        assert backend.num_cells == 4
        assert backend.num_subvectors == 16
        assert backend.bits == 6
        assert backend.nprobe == 2

    def test_sharded_composition(self):
        config = SudowoodoConfig(
            ann_backend="ivfpq",
            num_shards=3,
            ivf_cells=4,
            pq_subvectors=16,
            nprobe=4,
        )
        backend = build_backend(config)
        assert isinstance(backend, ShardedBackend)
        rows = clustered_corpus(n=904)  # 8 clusters x 113 rows
        backend.build(rows)
        assert len(backend) == rows.shape[0]
        ids, scores = backend.query(rows[:8], k=10)
        assert ids.shape == (8, 10)
        assert (ids >= 0).all()
        # shard-merged rows keep the protocol order: score desc, id asc.
        assert (np.diff(scores, axis=1) <= 1e-12).all()


# ----------------------------------------------------------------------
CORPUS = [f"[COL] name [VAL] record-{i} [COL] city [VAL] c{i % 5}" for i in range(24)]


class TestServiceFrontendComposition:
    @pytest.fixture(scope="class")
    def frontend(self):
        config = SudowoodoConfig(
            dim=16,
            num_layers=1,
            num_heads=2,
            ffn_dim=32,
            max_seq_len=24,
            pair_max_seq_len=40,
            vocab_size=400,
            mlm_warm_start_epochs=0,
            ann_backend="ivfpq",
            ivf_cells=2,
            pq_subvectors=8,
            nprobe=2,
            num_shards=2,
            coalesce_window_ms=0.0,
            seed=0,
        )
        encoder = SudowoodoEncoder(config, build_tokenizer(CORPUS, config))
        service = MatchService(encoder, config=config)
        service.index_records(CORPUS)
        return ServiceFrontend(service)

    def test_search_through_frontend(self, frontend):
        ids, scores = frontend.search(CORPUS[:4], k=3)
        assert ids.shape == (4, 3)
        # A corpus record's own nearest neighbour is itself (the flat
        # pre-training state serves exact results at this corpus size).
        assert (ids[:, 0] >= 0).all()

    def test_streaming_mutations_through_frontend(self, frontend):
        new = ["[COL] name [VAL] fresh-row [COL] city [VAL] c9"]
        ids = frontend.upsert_records(new)
        assert ids.shape == (1,)
        found, _ = frontend.search(new, k=1)
        assert found[0, 0] == ids[0]
        frontend.delete_records(new)
        found, _ = frontend.search(new, k=1)
        assert found[0, 0] != ids[0]


# ----------------------------------------------------------------------
class TestPersistence:
    def test_trained_round_trip(self, tmp_path):
        rows = clustered_corpus(n=512)
        backend = trained_backend(rows)
        path = backend.save(tmp_path / "index")
        loaded = IVFPQBackend.load(path)
        assert loaded.trained
        assert len(loaded) == len(backend)
        ids_a, scores_a = backend.query(rows[:16], k=10)
        ids_b, scores_b = loaded.query(rows[:16], k=10)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(scores_a, scores_b, atol=1e-12)

    def test_untrained_round_trip(self, tmp_path):
        rows = clustered_corpus(n=64)
        backend = IVFPQBackend(train_threshold=256).build(rows)
        loaded = IVFPQBackend.load(backend.save(tmp_path / "flat"))
        assert not loaded.trained
        ids_a, _ = backend.query(rows[:8], k=5)
        ids_b, _ = loaded.query(rows[:8], k=5)
        np.testing.assert_array_equal(ids_a, ids_b)

    def test_flat_rows_are_float32_unit_rows_in_insertion_order(self, tmp_path):
        """The rows training reads: ``normalize_rows(x, "float32")``, in
        the order a swap-delete and a remove-then-append upsert leave."""
        rows = clustered_corpus(n=64) * 3.0
        backend = IVFPQBackend(train_threshold=256).build(rows[:10])
        backend.remove([2])  # row 9 fills the hole
        backend.add([4], rows[10:11])  # upsert: row 8 fills 4's hole, 4 goes last
        arrays, _ = load_state_archive(backend.save(tmp_path / "flat"))
        order = [0, 1, 9, 3, 8, 5, 6, 7, 4]
        expected = normalize_rows(rows[[0, 1, 9, 3, 8, 5, 6, 7, 10]], "float32")
        np.testing.assert_array_equal(arrays["raw_ids"], order)
        assert arrays["raw_vectors"].dtype == np.float32
        assert arrays["raw_vectors"].tobytes() == expected.tobytes()

    @staticmethod
    def _metadata(**overrides):
        metadata = {
            "format_version": 1,
            "kind": "ivfpq",
            "dim": 8,
            "num_cells": 2,
            "num_subvectors": 2,
            "bits": 2,
            "nprobe": 2,
            "seed": 0,
            "train_threshold": 16,
        }
        metadata.update(overrides)
        return metadata

    def test_flat_archive_format_loads(self, tmp_path):
        """A hand-written flat archive (the format_version 1 layout) loads
        and saves back with the same keys and bytes."""
        rows = normalize_rows(clustered_corpus(n=8, dim=8, num_clusters=2), "float32")
        ids = np.array([7, 3, 11, 0, 5, 2, 9, 4], dtype=np.int64)
        path = save_state_archive(
            tmp_path / "flat.npz",
            {"raw_ids": ids, "raw_vectors": rows},
            self._metadata(trained=False),
        )
        loaded = IVFPQBackend.load(path)
        assert not loaded.trained and len(loaded) == 8
        found, _ = loaded.query(rows[:3].astype(np.float64), k=1)
        np.testing.assert_array_equal(found[:, 0], ids[:3])
        arrays, metadata = load_state_archive(loaded.save(tmp_path / "again"))
        assert metadata == self._metadata(trained=False)
        assert sorted(arrays) == ["raw_ids", "raw_vectors"]
        np.testing.assert_array_equal(arrays["raw_ids"], ids)
        np.testing.assert_allclose(arrays["raw_vectors"], rows, atol=1e-7)

    def test_trained_archive_format_loads(self, tmp_path):
        """A hand-written trained archive loads: its codes decode, by ADC,
        to the scores a query returns, and it saves back byte-equal."""
        rng = np.random.default_rng(4)
        payload = {
            "centroids": normalize_rows(rng.normal(size=(2, 8))),
            "codebooks": rng.normal(scale=0.1, size=(2, 4, 4)),
            "cell_sizes": np.array([3, 2], dtype=np.int64),
            "flat_ids": np.array([10, 12, 11, 20, 21], dtype=np.int64),
            "flat_codes": rng.integers(0, 4, size=(5, 2)).astype(np.uint8),
        }
        path = save_state_archive(
            tmp_path / "trained.npz", payload, self._metadata(trained=True)
        )
        loaded = IVFPQBackend.load(path)
        assert loaded.trained and len(loaded) == 5
        query = normalize_rows(rng.normal(size=(1, 8)))
        found, scores = loaded.query(query, k=5)
        cells = np.repeat([0, 1], [3, 2])
        codebooks = payload["codebooks"]
        decoded = np.hstack(
            [codebooks[sub][payload["flat_codes"][:, sub]] for sub in range(2)]
        )
        approx = payload["centroids"][cells] + decoded
        expected = 1.0 - 0.5 * ((approx - query) ** 2).sum(axis=1)
        by_id = dict(zip(payload["flat_ids"].tolist(), expected.tolist()))
        np.testing.assert_allclose(
            scores[0], [by_id[i] for i in found[0].tolist()], atol=1e-12
        )
        assert sorted(found[0].tolist()) == [10, 11, 12, 20, 21]
        arrays, metadata = load_state_archive(loaded.save(tmp_path / "again"))
        assert metadata == self._metadata(trained=True)
        assert sorted(arrays) == sorted(payload)
        for name, array in payload.items():
            assert arrays[name].dtype == array.dtype
            assert arrays[name].tobytes() == array.tobytes()

    def test_save_unbuilt_raises(self, tmp_path):
        with pytest.raises(ValueError):
            IVFPQBackend().save(tmp_path / "x")

    def test_corrupt_file_raises_valueerror(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(ValueError, match=str(path)):
            IVFPQBackend.load(path)

    def test_tampered_codes_raise_valueerror(self, tmp_path):
        rows = clustered_corpus(n=512)
        path = trained_backend(rows).save(tmp_path / "index")
        archive = dict(np.load(path, allow_pickle=False))
        archive["cell_sizes"] = archive["cell_sizes"][:-1]  # drop a cell
        np.savez(path, **archive)
        with pytest.raises(ValueError, match="corrupt"):
            IVFPQBackend.load(path)

    def test_missing_file_raises(self, tmp_path):
        # Missing-vs-corrupt contract shared across core.persistence:
        # a path that does not exist is FileNotFoundError, not ValueError.
        with pytest.raises(FileNotFoundError):
            IVFPQBackend.load(tmp_path / "nope.npz")
