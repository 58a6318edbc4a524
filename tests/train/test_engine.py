"""Engine unit tests: the step loop, checkpoint timing, gradient workers,
token cache, and inline batch preparation."""

import threading

import numpy as np
import pytest

from repro.nn import AdamW, LinearWarmupDecay, load_state_archive
from repro.nn.layers import Linear
from repro.text import Tokenizer
from repro.train import TRAINER_STATE_FILE, StepProgram, TokenCache, Trainer
from repro.utils import spawn_rng

CORPUS = [f"[COL] name [VAL] item {i} [COL] kind [VAL] sample" for i in range(12)]


class QuadraticProgram(StepProgram):
    """Minimize ||Wx||^2 over fixed data — a deterministic toy program."""

    def __init__(self, data, batch_size=4):
        self.data = np.asarray(data)
        self.batch_size = batch_size

    def epoch_batches(self, epoch):
        return [
            self.data[start : start + self.batch_size]
            for start in range(0, len(self.data), self.batch_size)
        ]

    def loss(self, model, prepared):
        out = model(np.asarray(prepared))
        return (out * out).sum() / len(prepared)

    def shard(self, prepared, num_shards):
        rows = len(prepared)
        num_shards = min(num_shards, rows)
        if num_shards < 2:
            return None
        bounds = np.linspace(0, rows, num_shards + 1).astype(int)
        return [
            (prepared[lo:hi], hi - lo)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]


def make_model(seed=0):
    return Linear(6, 3, spawn_rng(seed, "engine-test"))


def make_data(rows=8, seed=1):
    return spawn_rng(seed, "engine-data").normal(size=(rows, 6))


class TestEngineLoop:
    def test_requires_some_limit(self):
        model = make_model()
        trainer = Trainer(
            model, QuadraticProgram(make_data()), AdamW(model.parameters())
        )
        with pytest.raises(ValueError):
            trainer.fit()

    def test_rejects_an_empty_optimizer_list(self):
        with pytest.raises(ValueError, match="optimizer"):
            Trainer(make_model(), QuadraticProgram(make_data()), [])

    def test_rejects_fewer_than_one_worker(self):
        model = make_model()
        with pytest.raises(ValueError, match="train_workers"):
            Trainer(
                model,
                QuadraticProgram(make_data()),
                AdamW(model.parameters()),
                workers=0,
            )

    def test_loss_decreases_and_counters_advance(self):
        model = make_model()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data()),
            AdamW(model.parameters(), lr=5e-2),
        )
        state = trainer.fit(max_epochs=5)
        assert state.epoch == 5
        assert state.step == 10  # 8 rows / batch 4 = 2 steps per epoch
        assert state.epoch_losses[-1] < state.epoch_losses[0]
        assert state.stop_reason == "max_epochs"

    def test_prepare_runs_inline_after_the_previous_step(self):
        """Batch ``i + 1`` is prepared after step ``i``'s loss, on the
        thread that called ``fit``."""
        events = []

        class RecordingProgram(QuadraticProgram):
            def prepare(self, batch):
                events.append(("prepare", threading.get_ident()))
                return batch

            def loss(self, model, prepared):
                events.append(("loss", threading.get_ident()))
                return super().loss(model, prepared)

        model = make_model()
        Trainer(
            model, RecordingProgram(make_data()), AdamW(model.parameters())
        ).fit(max_epochs=3)
        assert {thread for _, thread in events} == {threading.get_ident()}
        assert [kind for kind, _ in events] == ["prepare", "loss"] * 6

    def test_max_steps_prepares_no_batch_past_the_cap(self):
        """Stopping at ``max_steps`` leaves the batches after the cap
        unprepared, so no preparation RNG is drawn for them."""
        prepared = []

        class CountingProgram(QuadraticProgram):
            def prepare(self, batch):
                prepared.append(len(batch))
                return batch

        model = make_model()
        Trainer(
            model,
            CountingProgram(make_data(rows=40)),
            AdamW(model.parameters()),
        ).fit(max_steps=3)
        assert len(prepared) == 3

    def test_prepare_error_surfaces_from_fit_after_earlier_steps(self):
        class FailingProgram(QuadraticProgram):
            calls = 0

            def prepare(self, batch):
                if self.calls == 2:
                    raise RuntimeError("boom")
                self.calls += 1
                return batch

        model = make_model()
        trainer = Trainer(
            model, FailingProgram(make_data(rows=40)), AdamW(model.parameters())
        )
        with pytest.raises(RuntimeError, match="boom"):
            trainer.fit(max_epochs=1)
        assert trainer.state.step == 2

    def test_max_steps_caps_optimizer_steps(self):
        model = make_model()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data()),
            AdamW(model.parameters(), lr=5e-2),
        )
        state = trainer.fit(max_steps=3)
        assert state.step == 3
        assert state.stop_reason == "max_steps"


class TestCheckpointing:
    def test_writes_trainer_state_after_every_epoch(self, tmp_path):
        # Each epoch's hook sees the archive of the epoch before it.
        seen = []
        path = tmp_path / TRAINER_STATE_FILE

        class Recording(QuadraticProgram):
            def on_epoch_end(self, trainer, epoch, epoch_loss, is_last):
                seen.append(
                    load_state_archive(path)[1]["state"]["epoch"]
                    if path.exists()
                    else None
                )

        model = make_model()
        trainer = Trainer(
            model,
            Recording(make_data()),
            AdamW(model.parameters(), lr=1e-2),
            checkpoint_dir=tmp_path,
        )
        trainer.fit(max_epochs=3)
        assert seen == [None, 1, 2]
        assert load_state_archive(path)[1]["state"]["epoch"] == 3

    def test_archive_has_no_callbacks_entry(self, tmp_path):
        model = make_model()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data()),
            AdamW(model.parameters(), lr=1e-2),
            checkpoint_dir=tmp_path,
        )
        trainer.fit(max_epochs=1)
        _, metadata = load_state_archive(tmp_path / TRAINER_STATE_FILE)
        assert metadata["format"] == "sudowoodo-trainer-v1"
        assert "callbacks" not in metadata

    def test_archive_has_no_program_entry(self, tmp_path):
        model = make_model()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data()),
            AdamW(model.parameters(), lr=1e-2),
            checkpoint_dir=tmp_path,
        )
        trainer.fit(max_epochs=1)
        _, metadata = load_state_archive(tmp_path / TRAINER_STATE_FILE)
        assert "program" not in metadata

    def test_no_checkpoint_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        model = make_model()
        trainer = Trainer(
            model, QuadraticProgram(make_data()), AdamW(model.parameters())
        )
        trainer.fit(max_epochs=2)
        assert trainer.checkpoint_path is None
        assert list(tmp_path.iterdir()) == []

    def test_try_resume_without_an_archive_starts_fresh(self, tmp_path):
        model = make_model()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data()),
            AdamW(model.parameters()),
            checkpoint_dir=tmp_path,
        )
        assert trainer.try_resume() is False
        assert trainer.state.epoch == 0

    def test_resumed_trainer_matches_uninterrupted_run(self, tmp_path):
        data = make_data(rows=12)

        def trainer_for(model, checkpoint_dir=None):
            optimizer = AdamW(model.parameters(), lr=5e-2)
            return Trainer(
                model,
                QuadraticProgram(data),
                optimizer,
                schedules=[
                    LinearWarmupDecay(optimizer, peak_lr=5e-2, total_steps=12)
                ],
                checkpoint_dir=checkpoint_dir,
            )

        full_model = make_model()
        full = trainer_for(full_model).fit(max_epochs=4)

        trainer_for(make_model(), tmp_path).fit(max_epochs=2)
        resumed_model = make_model(seed=5)  # weights come from the archive
        trainer = trainer_for(resumed_model, tmp_path)
        assert trainer.try_resume() is True
        resumed = trainer.fit(max_epochs=4)
        assert resumed.epoch_losses == full.epoch_losses
        assert resumed.step == full.step
        np.testing.assert_array_equal(
            resumed_model.weight.data, full_model.weight.data
        )
        np.testing.assert_array_equal(
            resumed_model.bias.data, full_model.bias.data
        )


class TestGradientWorkers:
    def test_workers_deterministic_and_finite(self):
        def run():
            model = make_model()
            trainer = Trainer(
                model,
                QuadraticProgram(make_data(rows=16)),
                AdamW(model.parameters(), lr=1e-2),
                workers=2,
            )
            state = trainer.fit(max_epochs=3)
            return model.weight.data.copy(), state.epoch_losses

        weights_a, losses_a = run()
        weights_b, losses_b = run()
        assert np.array_equal(weights_a, weights_b)
        assert losses_a == losses_b
        assert np.isfinite(weights_a).all()

    def test_workers_match_serial_for_mean_losses(self):
        # The toy loss is a per-item mean, so shard-size-weighted gradient
        # averaging reproduces the full-batch gradient exactly (no dropout
        # in a Linear model); the whole run must match the serial loop.
        data = make_data(rows=16)

        def run(workers):
            model = make_model()
            trainer = Trainer(
                model,
                QuadraticProgram(data),
                AdamW(model.parameters(), lr=1e-2, weight_decay=0.0),
                workers=workers,
            )
            trainer.fit(max_epochs=2)
            return model.weight.data

        np.testing.assert_allclose(run(1), run(4), rtol=1e-4, atol=1e-6)


class TestTokenCache:
    def test_matches_direct_tokenizer(self):
        tokenizer = Tokenizer.fit(CORPUS, vocab_size=200)
        cache = TokenCache(tokenizer)
        direct = tokenizer.encode_batch(CORPUS, max_len=16)
        cached = cache.encode_batch(CORPUS, max_len=16)
        assert np.array_equal(direct.token_ids, cached.token_ids)
        assert np.array_equal(direct.attention_mask, cached.attention_mask)
        assert np.array_equal(direct.segment_ids, cached.segment_ids)
        # Second pass is all hits.
        cache.encode_batch(CORPUS, max_len=16)
        assert cache.hits == len(CORPUS)
        assert cache.misses == len(CORPUS)

    def test_max_len_is_part_of_the_key(self):
        tokenizer = Tokenizer.fit(CORPUS, vocab_size=200)
        cache = TokenCache(tokenizer)
        short = cache.encode(CORPUS[0], max_len=4)
        long = cache.encode(CORPUS[0], max_len=16)
        assert short.token_ids.shape == (4,)
        assert long.token_ids.shape == (16,)
        assert len(short) == 4 < len(long)  # truncated vs whole
        assert len(cache) == 2

    def test_capacity_bounds_cache(self):
        tokenizer = Tokenizer.fit(CORPUS, vocab_size=200)
        cache = TokenCache(tokenizer, capacity=4)
        cache.warm(CORPUS, max_len=16)
        assert len(cache) == 4

    def test_rejects_bad_capacity(self):
        tokenizer = Tokenizer.fit(CORPUS, vocab_size=200)
        with pytest.raises(ValueError):
            TokenCache(tokenizer, capacity=0)
