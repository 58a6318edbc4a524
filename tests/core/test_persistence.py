"""Tests for encoder checkpointing (weights + tokenizer + config) and
the serving layer's vector caches (fingerprint-keyed embedding files)."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    SudowoodoConfig,
    load_encoder,
    pretrain,
    save_encoder,
)
from repro.core.config import RETIRED_CONFIG_FIELDS
from repro.core.persistence import (
    load_ivfpq_index,
    load_vector_cache,
    save_ivfpq_index,
    save_vector_cache,
)
from repro.data.generators import load_em_benchmark
from repro.nn import AdamW, load_state_archive, save_state_archive
from repro.nn.layers import Linear
from repro.serve import IVFPQBackend
from repro.train import TRAINER_STATE_FILE, StepProgram, Trainer
from repro.utils import spawn_rng


@pytest.fixture(scope="module")
def trained():
    dataset = load_em_benchmark("AB", scale=0.02, max_table_size=30)
    config = SudowoodoConfig(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=500,
        pretrain_epochs=1,
        pretrain_batch_size=8,
        num_clusters=3,
        corpus_cap=32,
        mlm_warm_start_epochs=0,
        seed=0,
    )
    result = pretrain(dataset.all_items(), config)
    return dataset, result.encoder


class TestPersistence:
    def test_roundtrip_embeddings_identical(self, trained, tmp_path):
        dataset, encoder = trained
        path = save_encoder(encoder, tmp_path / "encoder.npz")
        restored = load_encoder(path)
        items = dataset.all_items()[:8]
        np.testing.assert_allclose(
            encoder.embed_items(items), restored.embed_items(items), atol=1e-6
        )

    def test_roundtrip_preserves_config(self, trained, tmp_path):
        _, encoder = trained
        path = save_encoder(encoder, tmp_path / "encoder.npz")
        restored = load_encoder(path)
        assert restored.config == encoder.config

    def test_roundtrip_preserves_vocab(self, trained, tmp_path):
        _, encoder = trained
        path = save_encoder(encoder, tmp_path / "encoder.npz")
        restored = load_encoder(path)
        assert restored.tokenizer.vocab == encoder.tokenizer.vocab

    def test_checkpoint_with_retired_config_fields_loads(self, trained, tmp_path):
        """Checkpoints written before a config field was retired still
        carry it (every name in ``RETIRED_CONFIG_FIELDS``); they load, to
        an equal encoder."""
        dataset, encoder = trained
        path = save_encoder(encoder, tmp_path / "encoder.npz")
        arrays, metadata = load_state_archive(path)
        metadata["config"].update({name: 2 for name in RETIRED_CONFIG_FIELDS})
        save_state_archive(path, arrays, metadata)
        restored = load_encoder(path)
        assert restored.config == encoder.config
        items = dataset.all_items()[:8]
        np.testing.assert_array_equal(
            encoder.embed_items(items), restored.embed_items(items)
        )
        # Any other unknown field still fails loudly.
        metadata["config"]["no_such_field"] = 1
        save_state_archive(path, arrays, metadata)
        with pytest.raises(ValueError, match="no_such_field"):
            load_encoder(path)

    def test_trainer_archive_with_a_callbacks_entry_resumes(
        self, trained, tmp_path
    ):
        """Trainer archives written while the engine had callbacks carry
        a ``callbacks`` list (early-stop counters); a pre-training run
        resumed from one matches the uninterrupted run."""
        dataset, encoder = trained
        items = dataset.all_items()
        config = replace(encoder.config, pretrain_epochs=2)
        full = pretrain(items, config)
        pretrain(
            items, replace(config, pretrain_epochs=1), checkpoint_dir=tmp_path
        )
        path = tmp_path / TRAINER_STATE_FILE
        arrays, metadata = load_state_archive(path)
        assert "callbacks" not in metadata
        metadata["callbacks"] = [{"best": 0.5, "stale": 1}]
        save_state_archive(path, arrays, metadata)
        resumed = pretrain(items, config, checkpoint_dir=tmp_path, resume=True)
        assert resumed.epoch_losses == full.epoch_losses
        resumed_state = resumed.encoder.state_dict()
        for name, value in full.encoder.state_dict().items():
            np.testing.assert_array_equal(resumed_state[name], value)

    def test_trainer_archive_with_a_program_entry_resumes(
        self, trained, tmp_path
    ):
        """Trainer archives written while pre-training had an adaptive
        DA-operator scheduler carry a ``program`` entry with its scores;
        a pre-training run resumed from one matches the uninterrupted
        run."""
        dataset, encoder = trained
        items = dataset.all_items()
        config = replace(encoder.config, pretrain_epochs=2)
        full = pretrain(items, config)
        pretrain(
            items, replace(config, pretrain_epochs=1), checkpoint_dir=tmp_path
        )
        path = tmp_path / TRAINER_STATE_FILE
        arrays, metadata = load_state_archive(path)
        metadata["program"] = {
            "scheduler": {
                "scores": {"token_del": 0.4, "span_del": -0.1},
                "running_loss": 2.5,
            }
        }
        save_state_archive(path, arrays, metadata)
        resumed = pretrain(items, config, checkpoint_dir=tmp_path, resume=True)
        assert resumed.epoch_losses == full.epoch_losses
        resumed_state = resumed.encoder.state_dict()
        for name, value in full.encoder.state_dict().items():
            np.testing.assert_array_equal(resumed_state[name], value)

    @pytest.mark.parametrize("operator", ["auto", "mixup_embed", "identity"])
    def test_encoder_checkpoint_with_retired_operator_loads(
        self, trained, tmp_path, operator
    ):
        """Encoder checkpoints saved with a retired ``da_operator`` (an
        adaptive scheduler, embedding mixup, the identity) load to a
        valid config and the same embeddings; the operator is a
        pre-training knob, so the weights do not depend on how it reads
        back."""
        dataset, encoder = trained
        path = save_encoder(encoder, tmp_path / "encoder.npz")
        arrays, metadata = load_state_archive(path)
        metadata["config"]["da_operator"] = operator
        save_state_archive(path, arrays, metadata)
        restored = load_encoder(path)
        restored.config.validate()
        assert replace(
            restored.config, da_operator=encoder.config.da_operator
        ) == encoder.config
        items = dataset.all_items()[:8]
        np.testing.assert_array_equal(
            encoder.embed_items(items), restored.embed_items(items)
        )

    def test_crash_mid_save_keeps_the_old_encoder(
        self, trained, tmp_path, monkeypatch
    ):
        """Saving over a checkpoint that fails mid-write leaves the old
        file byte-identical and loadable, and no temp file behind."""
        dataset, encoder = trained
        path = save_encoder(encoder, tmp_path / "encoder.npz")
        before = path.read_bytes()

        def torn_savez(file, **arrays):
            with open(file, "wb") as handle:
                handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_encoder(encoder, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["encoder.npz"]
        items = dataset.all_items()[:8]
        np.testing.assert_array_equal(
            encoder.embed_items(items), load_encoder(path).embed_items(items)
        )

    def test_suffixless_path(self, trained, tmp_path):
        _, encoder = trained
        save_encoder(encoder, tmp_path / "ckpt")
        restored = load_encoder(tmp_path / "ckpt")
        assert restored.config.dim == encoder.config.dim

    def test_bad_format_rejected(self, trained, tmp_path):
        _, encoder = trained
        from repro.nn import save_checkpoint

        path = save_checkpoint(
            encoder, tmp_path / "bad.npz", metadata={"format_version": 99}
        )
        with pytest.raises(ValueError):
            load_encoder(tmp_path / "bad.npz")

    def test_corrupt_checkpoint_raises_clear_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x01 not an archive at all")
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            load_encoder(path)

    def test_truncated_checkpoint_raises_clear_error(self, trained, tmp_path):
        _, encoder = trained
        path = save_encoder(encoder, tmp_path / "full.npz")
        data = path.read_bytes()
        truncated = tmp_path / "cut.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt"):
            load_encoder(truncated)


# ----------------------------------------------------------------------
class TestVectorCache:
    """save_vector_cache / load_vector_cache round-trips and corruption."""

    def make_cache(self):
        rng = np.random.default_rng(0)
        fingerprints = [f"fp-{i:02d}" for i in range(6)]
        vectors = rng.normal(size=(6, 8))
        return fingerprints, vectors

    def test_roundtrip_identical(self, tmp_path):
        fingerprints, vectors = self.make_cache()
        path = save_vector_cache(
            tmp_path / "cache.npz", fingerprints, vectors, metadata={"dim": 8}
        )
        loaded_keys, loaded_vectors, metadata = load_vector_cache(path)
        assert loaded_keys == fingerprints
        np.testing.assert_array_equal(loaded_vectors, vectors)
        assert metadata["dim"] == 8
        assert "ids" not in metadata  # none were saved

    def test_roundtrip_with_ids(self, tmp_path):
        fingerprints, vectors = self.make_cache()
        ids = [10, 11, 12, 13, 14, 15]
        path = save_vector_cache(
            tmp_path / "cache.npz", fingerprints, vectors, ids=ids
        )
        _, _, metadata = load_vector_cache(path)
        assert metadata["ids"] == ids

    def test_empty_cache_roundtrip(self, tmp_path):
        path = save_vector_cache(tmp_path / "empty.npz", [], np.zeros((0, 4)))
        keys, vectors, _ = load_vector_cache(path)
        assert keys == [] and vectors.shape == (0, 4)

    def test_shape_mismatch_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_vector_cache(tmp_path / "bad.npz", ["a", "b"], np.zeros((3, 4)))
        with pytest.raises(ValueError):
            save_vector_cache(
                tmp_path / "bad.npz", ["a"], np.zeros((1, 4)), ids=[1, 2]
            )

    def test_garbage_file_raises_clear_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a cache")
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            load_vector_cache(path)

    def test_truncated_file_raises_clear_error(self, tmp_path):
        fingerprints, vectors = self.make_cache()
        path = save_vector_cache(tmp_path / "full.npz", fingerprints, vectors)
        data = path.read_bytes()
        truncated = tmp_path / "cut.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt"):
            load_vector_cache(truncated)

    def test_wrong_format_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "v99.npz"
        np.savez(
            path,
            fingerprints=np.asarray(["a"], dtype=np.str_),
            vectors=np.zeros((1, 2)),
            __metadata__=np.frombuffer(
                json.dumps({"format_version": 99}).encode(), dtype=np.uint8
            ),
        )
        with pytest.raises(ValueError, match="unsupported vector cache format"):
            load_vector_cache(path)

    def test_missing_arrays_raise_clear_error(self, tmp_path):
        import json

        path = tmp_path / "partial.npz"
        np.savez(
            path,
            __metadata__=np.frombuffer(
                json.dumps({"format_version": 1}).encode(), dtype=np.uint8
            ),
        )
        with pytest.raises(ValueError, match="corrupt"):
            load_vector_cache(path)


def _vector_cache_saver(path, seed):
    vectors = np.random.default_rng(seed).normal(size=(6, 8))
    save_vector_cache(path, [f"fp-{i}" for i in range(6)], vectors, ids=range(6))


def _ivfpq_saver(path, seed):
    rows = np.random.default_rng(seed).normal(size=(64, 16))
    save_ivfpq_index(path, IVFPQBackend(num_subvectors=4).build(rows))


def _ivfpq_answers(path):
    queries = np.random.default_rng(9).normal(size=(4, 16))
    return load_ivfpq_index(path).query(queries, k=5)


def _trainer_state_saver(path, seed):
    model = Linear(6, 3, spawn_rng(seed, "checkpoint"))
    Trainer(model, StepProgram(), AdamW(model.parameters())).save_state(path)


def _archive_contents(path):
    arrays, metadata = load_state_archive(path)
    return [metadata] + [arrays[name] for name in sorted(arrays)]


class TestAtomicArchiveSavers:
    """A crash while an archive saver writes must leave the previous
    file readable and unchanged."""

    @pytest.mark.parametrize(
        "save, read",
        [
            (_vector_cache_saver, load_vector_cache),
            (_ivfpq_saver, _ivfpq_answers),
            (_trainer_state_saver, _archive_contents),
        ],
        ids=["vector_cache", "ivfpq", "trainer_state"],
    )
    def test_crash_mid_write_keeps_the_old_file(
        self, tmp_path, monkeypatch, save, read
    ):
        target = tmp_path / "archive.npz"
        save(target, seed=0)
        before = read(target)

        def torn_savez(file, **arrays):
            with open(file, "wb") as handle:
                handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save(target, seed=1)
        monkeypatch.undo()
        after = read(target)
        for old, new in zip(before, after):
            if isinstance(old, np.ndarray):
                np.testing.assert_array_equal(old, new)
            else:
                assert old == new
        assert [p.name for p in tmp_path.iterdir()] == ["archive.npz"]

    def test_archive_is_synced_before_it_is_renamed(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(descriptor):
            calls.append("fsync")
            fsync(descriptor)

        def recording_replace(source, target):
            calls.append("replace")
            replace(source, target)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        save_state_archive(tmp_path / "archive.npz", {"x": np.arange(3)})
        assert calls == ["fsync", "replace"]
        arrays, _ = load_state_archive(tmp_path / "archive.npz")
        np.testing.assert_array_equal(arrays["x"], np.arange(3))


class TestAtomicWriteText:
    def test_replaces_content_and_leaves_no_temp_file(self, tmp_path):
        from repro.core.persistence import atomic_write_text

        target = tmp_path / "meta.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text(encoding="utf-8") == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        from repro.core import persistence

        target = tmp_path / "meta.json"
        persistence.atomic_write_text(target, "old")

        def crash(descriptor):
            raise OSError("disk full")

        monkeypatch.setattr("os.fsync", crash)
        with pytest.raises(OSError, match="disk full"):
            persistence.atomic_write_text(target, "new, never completed")
        assert target.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]
