"""Memory-mapped vector store: quantization round-trips, rows across
reopen, stores with an ``ids.dat``, and the corrupt-file ValueError
contract."""

import json

import numpy as np
import pytest

from repro.serve import MemmapVectorStore, dequantize_rows, quantize_rows


def unit_rows(n, dim=32, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestQuantization:
    def test_round_trip_error_small(self):
        rows = unit_rows(64)
        codes, scales = quantize_rows(rows)
        assert codes.dtype == np.int8
        recovered = dequantize_rows(codes, scales)
        # max-abs/127 scalar quantization: per-element error < scale/2.
        assert np.abs(recovered - rows).max() <= (scales.max() / 2) + 1e-7

    def test_zero_row_exact(self):
        rows = np.zeros((2, 8))
        codes, scales = quantize_rows(rows)
        np.testing.assert_array_equal(dequantize_rows(codes, scales), 0.0)

    def test_codes_within_int8_range(self):
        codes, _ = quantize_rows(unit_rows(32) * 100.0)
        assert codes.min() >= -127 and codes.max() <= 127


class TestMemmapVectorStore:
    def test_create_append_get(self, tmp_path):
        store = MemmapVectorStore.create(tmp_path / "s", dim=16, dtype="float32")
        rows = unit_rows(10, dim=16)
        store.append(rows[:4])
        store.append(rows[4:])
        assert len(store) == 10
        np.testing.assert_allclose(store.get([4, 0, 7]), rows[[4, 0, 7]], atol=1e-6)

    def test_float64_rows_read_back_exactly(self, tmp_path):
        """Regression: a float64 store read its rows back through float32."""
        store = MemmapVectorStore.create(tmp_path / "s", dim=16, dtype="float64")
        rows = unit_rows(10, dim=16)
        store.append(rows)
        for reader in (store, MemmapVectorStore.open(tmp_path / "s")):
            got = reader.get(list(range(10)))
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, rows)

    def test_int8_rows_dequantize_close(self, tmp_path):
        store = MemmapVectorStore.create(tmp_path / "s", dim=32, dtype="int8")
        rows = unit_rows(20)
        store.append(rows)
        got = store.get(list(range(20)))
        assert got.dtype == np.float32
        assert np.abs(got - rows).max() < 0.01

    def test_reopen_preserves_rows(self, tmp_path):
        store = MemmapVectorStore.create(tmp_path / "s", dim=8, dtype="int8")
        store.append(unit_rows(6, dim=8))
        store.flush()
        reopened = MemmapVectorStore.open(tmp_path / "s")
        assert len(reopened) == 6
        assert reopened.get(range(6)).tobytes() == store.get(range(6)).tobytes()
        assert not (tmp_path / "s" / "ids.dat").exists()

    @pytest.mark.parametrize("rows", [[6], [-1], [0, 6]])
    def test_row_outside_the_store_raises_keyerror(self, tmp_path, rows):
        store = MemmapVectorStore.create(tmp_path / "s", dim=4)
        store.append(unit_rows(6, dim=4))
        with pytest.raises(KeyError):
            store.get(rows)

    def test_wrong_width_append_raises(self, tmp_path):
        store = MemmapVectorStore.create(tmp_path / "s", dim=4)
        with pytest.raises(ValueError, match="vectors"):
            store.append(unit_rows(2, dim=5))
        assert len(store) == 0

    def test_int8_nbytes_under_an_eighth_of_float64(self, tmp_path):
        dim = 32
        store = MemmapVectorStore.create(tmp_path / "s", dim=dim, dtype="int8")
        store.append(unit_rows(100, dim=dim))
        dense = 100 * dim * 8
        assert store.nbytes < dense / 7  # int8 + 4-byte scale ≈ dim+4 bytes/row

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            MemmapVectorStore.create(tmp_path / "s", dim=4, dtype="int4")


class TestCorruptStores:
    def make(self, tmp_path, dtype="int8"):
        store = MemmapVectorStore.create(tmp_path / "s", dim=8, dtype=dtype)
        store.append(unit_rows(5, dim=8))
        return tmp_path / "s"

    def test_missing_meta(self, tmp_path):
        path = self.make(tmp_path)
        (path / "meta.json").unlink()
        with pytest.raises(ValueError, match=str(path)):
            MemmapVectorStore.open(path)

    def test_malformed_meta_json(self, tmp_path):
        path = self.make(tmp_path)
        (path / "meta.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt"):
            MemmapVectorStore.open(path)

    def test_wrong_format_version(self, tmp_path):
        path = self.make(tmp_path)
        meta = json.loads((path / "meta.json").read_text())
        meta["format_version"] = 99
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            MemmapVectorStore.open(path)

    def test_truncated_vectors_file(self, tmp_path):
        path = self.make(tmp_path)
        payload = (path / "vectors.dat").read_bytes()
        (path / "vectors.dat").write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ValueError, match="truncated"):
            MemmapVectorStore.open(path)

    def test_truncated_scales_file(self, tmp_path):
        path = self.make(tmp_path)
        (path / "scales.dat").write_bytes(b"\x00" * 3)
        with pytest.raises(ValueError, match="truncated"):
            MemmapVectorStore.open(path)

    @pytest.mark.parametrize(
        "ids", [[1, 1, 2, 3, 4], [5, 9, 2, 7, 11], [1, 2, 3, 4, 5]]
    )
    def test_ids_file_that_is_not_rows_rejected(self, tmp_path, ids):
        """A store written when rows carried their own ids opens only if
        those ids are its rows, 0..n-1."""
        path = self.make(tmp_path)
        np.asarray(ids, dtype=np.int64).tofile(path / "ids.dat")
        with pytest.raises(ValueError, match=str(path / "ids.dat")):
            MemmapVectorStore.open(path)

    def test_ids_file_of_rows_opens(self, tmp_path):
        path = self.make(tmp_path)
        before = MemmapVectorStore.open(path).get(range(5)).tobytes()
        np.arange(5, dtype=np.int64).tofile(path / "ids.dat")
        reopened = MemmapVectorStore.open(path)
        assert reopened.get(range(5)).tobytes() == before
        reopened.append(unit_rows(2, dim=8, seed=1))  # rows ids.dat lacks
        assert len(MemmapVectorStore.open(path)) == 7

    @pytest.mark.parametrize("dtype", ["float32", "int8"])
    def test_torn_append_is_overwritten(self, tmp_path, monkeypatch, dtype):
        """Regression: a crash between an append's data writes and its
        flush() leaves bytes past meta.json's size.  The next append used
        to land behind them, so get() returned the torn row and a second
        reopen counted the torn row instead."""
        path = tmp_path / "s"
        store = MemmapVectorStore.create(path, dim=4, dtype=dtype)
        committed = unit_rows(2, dim=4)
        store.append(committed)
        monkeypatch.setattr(store, "flush", lambda: None)  # crash before meta
        store.append(np.full((1, 4), 7.0))
        torn_bytes = (path / "vectors.dat").stat().st_size

        reopened = MemmapVectorStore.open(path)
        assert (path / "vectors.dat").stat().st_size == torn_bytes  # open() writes nothing
        assert len(reopened) == 2
        reopened.append(np.full((1, 4), 3.0))
        np.testing.assert_allclose(reopened.get([2]), 3.0, atol=1e-5)

        again = MemmapVectorStore.open(path)
        assert len(again) == 3
        np.testing.assert_allclose(again.get([2]), 3.0, atol=1e-5)
        np.testing.assert_allclose(again.get([0, 1]), committed, atol=0.01)
