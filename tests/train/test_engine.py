"""Engine unit tests: knob validation, accumulation, clipping, callbacks,
token cache, and inline batch preparation."""

import threading

import numpy as np
import pytest

from repro.nn import AdamW, SGD
from repro.nn.layers import Linear
from repro.text import Tokenizer
from repro.train import (
    LossTrace,
    StepProgram,
    TokenCache,
    TrainConfig,
    Trainer,
)
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


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_workers": 0},
            {"grad_accum_steps": 0},
            {"grad_clip": 0.0},
            {"grad_clip": -1.0},
            {"early_stop_patience": 0},
            {"checkpoint_every": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

    def test_defaults_valid(self):
        TrainConfig().validate()


class TestEngineLoop:
    def test_requires_some_limit(self):
        model = make_model()
        trainer = Trainer(
            model, QuadraticProgram(make_data()), AdamW(model.parameters())
        )
        with pytest.raises(ValueError):
            trainer.fit()

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
        """Batch ``i + 1`` is prepared after ``on_batch_end(i)``, on the
        thread that called ``fit`` — preparation may see every earlier
        step's feedback."""
        events = []

        class RecordingProgram(QuadraticProgram):
            def prepare(self, batch):
                events.append(("prepare", threading.get_ident()))
                return batch

            def on_batch_end(self, prepared, loss):
                events.append(("end", threading.get_ident()))

        model = make_model()
        Trainer(
            model, RecordingProgram(make_data()), AdamW(model.parameters())
        ).fit(max_epochs=3)
        assert {thread for _, thread in events} == {threading.get_ident()}
        assert [kind for kind, _ in events] == ["prepare", "end"] * 6

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

    def test_grad_accumulation_matches_larger_batch(self):
        data = make_data(rows=8)
        # Two micro-batches of 4 with accumulation == one batch of 8: the
        # loss is a mean, so averaged micro-gradients equal the full-batch
        # gradient.  SGD makes the comparison exact (no moment rescaling).
        model_a = make_model()
        trainer_a = Trainer(
            model_a,
            QuadraticProgram(data, batch_size=4),
            SGD(model_a.parameters(), lr=1e-2),
            config=TrainConfig(grad_accum_steps=2),
        )
        trainer_a.fit(max_epochs=1)

        model_b = make_model()
        trainer_b = Trainer(
            model_b,
            QuadraticProgram(data, batch_size=8),
            SGD(model_b.parameters(), lr=1e-2),
        )
        trainer_b.fit(max_epochs=1)
        # float32 forward passes accumulate in different orders; the match
        # is exact up to that rounding.
        np.testing.assert_allclose(
            model_a.weight.data, model_b.weight.data, rtol=1e-5, atol=1e-7
        )

    def test_grad_clip_bounds_update_norm(self):
        data = 100.0 * make_data()  # huge loss -> huge gradients
        clipped = make_model()
        optimizer = SGD(clipped.parameters(), lr=1.0)
        trainer = Trainer(
            clipped,
            QuadraticProgram(data),
            optimizer,
            config=TrainConfig(grad_clip=1e-3),
        )
        before = clipped.weight.data.copy()
        trainer.fit(max_steps=1)
        # ||update|| = lr * ||clipped grad|| <= lr * grad_clip.
        delta = np.concatenate(
            [(clipped.weight.data - before).ravel(), clipped.bias.data.ravel()]
        )
        assert np.linalg.norm(delta) <= 1e-3 + 1e-9

    def test_early_stop_epoch_reaches_program_as_last(self):
        # The stopping epoch must reach the program hook with
        # is_last=True so final validation/model selection still runs.
        seen = []

        class Recording(QuadraticProgram):
            def on_epoch_end(self, trainer, epoch, epoch_loss, is_last):
                seen.append((epoch, is_last))

        model = make_model()
        trainer = Trainer(
            model,
            Recording(make_data()),
            SGD(model.parameters(), lr=0.0),  # loss never improves
            config=TrainConfig(early_stop_patience=1),
        )
        state = trainer.fit(max_epochs=50)
        assert "early stop" in state.stop_reason
        assert seen[-1][1] is True  # the stopping epoch was flagged last
        assert all(not is_last for _, is_last in seen[:-1])

    def test_early_stopping_requests_stop(self):
        model = make_model()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data()),
            # lr=0: the loss never improves, so patience expires.
            SGD(model.parameters(), lr=0.0),
            config=TrainConfig(early_stop_patience=2),
        )
        state = trainer.fit(max_epochs=50)
        assert state.epoch < 50
        assert "early stop" in state.stop_reason

    def test_mid_run_checkpoint_includes_epoch_end_program_state(self, tmp_path):
        # The epoch-cadence checkpoint must snapshot program state from
        # *after* the epoch's on_epoch_end hook (validation / model
        # selection), or a mid-run kill would resume without it.
        class Selecting(QuadraticProgram):
            def __init__(self, data):
                super().__init__(data)
                self.validated = []

            def on_epoch_end(self, trainer, epoch, epoch_loss, is_last):
                self.validated.append(epoch)
                if epoch == 1:
                    raise KeyboardInterrupt  # simulated kill mid-run

            def state_dict(self):
                return {"validated": list(self.validated)}

            def load_state_dict(self, values):
                self.validated = list(values.get("validated", []))

        model = make_model()
        trainer = Trainer(
            model,
            Selecting(make_data()),
            AdamW(model.parameters(), lr=1e-2),
            checkpoint_dir=tmp_path,
        )
        with pytest.raises(KeyboardInterrupt):
            trainer.fit(max_epochs=5)

        fresh_model = make_model()
        fresh_program = Selecting(make_data())
        resumed = Trainer(
            fresh_model,
            fresh_program,
            AdamW(fresh_model.parameters(), lr=1e-2),
            checkpoint_dir=tmp_path,
        )
        assert resumed.try_resume()
        # The epoch-0 checkpoint (the last completed save) includes the
        # epoch-0 hook's effect.
        assert fresh_program.validated == [0]

    def test_loss_trace_records_each_step(self):
        model = make_model()
        trace = LossTrace()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data()),
            AdamW(model.parameters(), lr=1e-2),
            callbacks=[trace],
        )
        state = trainer.fit(max_epochs=2)
        assert len(trace.step_losses) == state.step

    def test_trailing_accumulation_group_is_a_true_mean(self):
        # One batch under grad_accum_steps=2 is a trailing group of one:
        # its gradient must be rescaled back to the full mean, making the
        # step identical to the same batch at grad_accum_steps=1.
        data = make_data(rows=4)

        def run(accum):
            model = make_model()
            trainer = Trainer(
                model,
                QuadraticProgram(data, batch_size=4),
                SGD(model.parameters(), lr=1e-2),
                config=TrainConfig(grad_accum_steps=accum),
            )
            trainer.fit(max_epochs=1)
            return model.weight.data

        np.testing.assert_array_equal(run(2), run(1))

    def test_trailing_accumulation_flush_fires_on_step(self):
        # 3 batches with grad_accum_steps=2: one full group plus a flushed
        # trailing group = 2 optimizer steps, both visible to callbacks.
        model = make_model()
        trace = LossTrace()
        trainer = Trainer(
            model,
            QuadraticProgram(make_data(rows=12), batch_size=4),
            AdamW(model.parameters(), lr=1e-2),
            config=TrainConfig(grad_accum_steps=2),
            callbacks=[trace],
        )
        state = trainer.fit(max_epochs=1)
        assert state.step == 2
        assert len(trace.step_losses) == state.step


class TestGradientWorkers:
    def test_workers_deterministic_and_finite(self):
        def run():
            model = make_model()
            trainer = Trainer(
                model,
                QuadraticProgram(make_data(rows=16)),
                AdamW(model.parameters(), lr=1e-2),
                config=TrainConfig(train_workers=2),
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
                SGD(model.parameters(), lr=1e-2),
                config=TrainConfig(train_workers=workers),
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
