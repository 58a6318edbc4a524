"""Checkpoint/resume determinism and the corrupt-file error contract.

The testable invariant (mirroring ``session.embedding_fingerprint()``):
killing a pre-training run at epoch k and resuming reproduces the
uninterrupted run's final weights and ``epoch_losses`` **byte-identically**
— because the trainer checkpoints model weights, optimizer moments, and
every RNG stream state (including the dropout generators inside the
model).  Corrupt or truncated trainer-state files raise the same clear
``ValueError`` contract as ``nn/serialization.py``.
"""

import numpy as np
import pytest

from repro.api import SudowoodoSession
from repro.core import SudowoodoConfig, pretrain
from repro.nn import AdamW, save_state_archive
from repro.nn.layers import Linear
from repro.train import (
    TRAINER_STATE_FILE,
    module_rng_states,
    restore_module_rng_states,
)
from repro.utils import RngStream, spawn_rng

CORPUS = [
    f"[COL] name [VAL] gadget {i} beta [COL] brand [VAL] zenith "
    f"[COL] price [VAL] {i}.49"
    for i in range(40)
]


def tiny_config(**overrides):
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=400,
        pretrain_epochs=4,
        pretrain_batch_size=8,
        num_clusters=3,
        corpus_cap=32,
        mlm_warm_start_epochs=1,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def states_equal(left, right):
    assert set(left) == set(right)
    return all(np.array_equal(left[k], right[k]) for k in left)


class TestResumeDeterminism:
    @pytest.mark.parametrize("kill_epoch", [1, 2, 3])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, kill_epoch):
        full = pretrain(list(CORPUS), tiny_config())

        # "Kill" at epoch k: run only k epochs, checkpointing every epoch.
        pretrain(
            list(CORPUS),
            tiny_config(pretrain_epochs=kill_epoch),
            checkpoint_dir=tmp_path,
        )
        assert (tmp_path / TRAINER_STATE_FILE).exists()

        resumed = pretrain(
            list(CORPUS),
            tiny_config(),
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert resumed.epoch_losses == full.epoch_losses
        assert states_equal(
            resumed.encoder.state_dict(), full.encoder.state_dict()
        )

    def test_resume_without_checkpoint_dir_raises(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            pretrain(list(CORPUS), tiny_config(), resume=True)

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        result = pretrain(
            list(CORPUS),
            tiny_config(pretrain_epochs=1),
            checkpoint_dir=tmp_path,
            resume=True,  # nothing to resume from yet
        )
        assert len(result.epoch_losses) == 1
        assert (tmp_path / TRAINER_STATE_FILE).exists()

    def test_completed_run_resumes_to_noop(self, tmp_path):
        first = pretrain(
            list(CORPUS), tiny_config(pretrain_epochs=2), checkpoint_dir=tmp_path
        )
        again = pretrain(
            list(CORPUS),
            tiny_config(pretrain_epochs=2),
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert again.epoch_losses == first.epoch_losses
        assert states_equal(
            again.encoder.state_dict(), first.encoder.state_dict()
        )

    def test_session_pretrain_checkpoints_and_resumes(self, tmp_path):
        full = SudowoodoSession(tiny_config(pretrain_epochs=3))
        full.pretrain(CORPUS)

        partial = SudowoodoSession(tiny_config(pretrain_epochs=2))
        partial.pretrain(CORPUS, checkpoint_dir=tmp_path)

        resumed = SudowoodoSession(tiny_config(pretrain_epochs=3))
        resumed.pretrain(CORPUS, checkpoint_dir=tmp_path, resume=True)
        probe = list(CORPUS[:8])
        assert resumed.embedding_fingerprint(probe) == full.embedding_fingerprint(
            probe
        )


class TestCorruptCheckpoints:
    def _checkpoint(self, tmp_path):
        pretrain(
            list(CORPUS),
            tiny_config(pretrain_epochs=1),
            checkpoint_dir=tmp_path,
        )
        return tmp_path / TRAINER_STATE_FILE

    def test_truncated_file_raises_value_error(self, tmp_path):
        path = self._checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match=str(path.name)):
            pretrain(
                list(CORPUS),
                tiny_config(),
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_garbage_file_raises_value_error(self, tmp_path):
        path = tmp_path / TRAINER_STATE_FILE
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            pretrain(
                list(CORPUS),
                tiny_config(),
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_wrong_format_archive_raises_value_error(self, tmp_path):
        path = tmp_path / TRAINER_STATE_FILE
        save_state_archive(path, {"weights": np.zeros(3)}, {"format": "other"})
        with pytest.raises(ValueError, match="trainer state"):
            pretrain(
                list(CORPUS),
                tiny_config(),
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_seed_mismatch_raises_value_error(self, tmp_path):
        self._checkpoint(tmp_path)
        with pytest.raises(ValueError, match="seed"):
            pretrain(
                list(CORPUS),
                tiny_config(seed=7),
                checkpoint_dir=tmp_path,
                resume=True,
            )


class TestStatePrimitives:
    def test_optimizer_state_roundtrip_continues_identically(self):
        rng = spawn_rng(0, "opt-state")
        def make():
            layer = Linear(6, 4, spawn_rng(0, "layer"))
            return layer, AdamW(layer.parameters(), lr=1e-2)

        def step(layer, optimizer, step_rng):
            x = step_rng.normal(size=(5, 6))
            out = layer(np.asarray(x))
            loss = (out * out).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        layer_a, opt_a = make()
        layer_b, opt_b = make()
        rng_a, rng_b = spawn_rng(1, "steps"), spawn_rng(1, "steps")
        for _ in range(3):
            step(layer_a, opt_a, rng_a)
            step(layer_b, opt_b, rng_b)

        # Round-trip B's state through a rebuilt optimizer.
        saved = opt_b.state_dict()
        layer_c = Linear(6, 4, spawn_rng(0, "layer"))
        layer_c.load_state_dict(layer_b.state_dict())
        opt_c = AdamW(layer_c.parameters(), lr=1e-2)
        opt_c.load_state_dict(saved)
        for _ in range(3):
            step(layer_a, opt_a, rng_a)
            step(layer_c, opt_c, rng_b)
        assert states_equal(layer_a.state_dict(), layer_c.state_dict())

    def test_module_rng_states_roundtrip(self):
        config = tiny_config()
        from repro.core import SudowoodoEncoder, build_tokenizer

        tokenizer = build_tokenizer(CORPUS, config)
        encoder = SudowoodoEncoder(config, tokenizer)
        states = module_rng_states(encoder)
        assert states  # dropout generators exist
        # Dropout draws advance the generators; restoring the snapshot
        # replays the identical noise.
        encoder.train()
        first = encoder.encode_training(CORPUS[:4]).data.copy()
        restore_module_rng_states(encoder, states)
        second = encoder.encode_training(CORPUS[:4]).data
        assert np.array_equal(first, second)

    def test_restore_rejects_structural_drift(self):
        config = tiny_config()
        from repro.core import SudowoodoEncoder, build_tokenizer

        tokenizer = build_tokenizer(CORPUS, config)
        encoder = SudowoodoEncoder(config, tokenizer)
        states = module_rng_states(encoder)
        states["bogus.path"] = next(iter(states.values()))
        with pytest.raises(ValueError, match="unexpected"):
            restore_module_rng_states(encoder, states)

    def test_rng_stream_roundtrip_continues_sequence(self):
        stream = RngStream(3)
        stream.get("a").random(5)
        snapshot = stream.state_dict()
        expected = stream.get("a").random(4)

        fresh = RngStream(3)
        fresh.load_state_dict(snapshot)
        assert np.array_equal(fresh.get("a").random(4), expected)

    def test_rng_stream_seed_mismatch_raises(self):
        snapshot = RngStream(3).state_dict()
        with pytest.raises(ValueError, match="seed mismatch"):
            RngStream(4).load_state_dict(snapshot)
