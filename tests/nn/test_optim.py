"""Tests for optimizers, schedules, losses, and checkpointing."""

import numpy as np
import pytest

from repro.nn import (
    AdamW,
    Linear,
    LinearWarmupDecay,
    Parameter,
    Tensor,
    cross_entropy,
    load_checkpoint,
    save_checkpoint,
    weighted_cross_entropy,
)


def quadratic_param():
    return Parameter(np.array([5.0, -3.0]))


def minimize(optimizer_factory, steps=200):
    param = quadratic_param()
    opt = optimizer_factory([param])
    for _ in range(steps):
        loss = (param * param).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return param.data


class TestOptimizers:
    def test_adamw_minimizes(self):
        final = minimize(lambda p: AdamW(p, lr=0.1, weight_decay=0.0))
        np.testing.assert_allclose(final, 0.0, atol=1e-3)

    def test_adamw_weight_decay_shrinks_matrices(self):
        param = Parameter(np.ones((2, 2)) * 10.0)
        opt = AdamW([param], lr=0.1, weight_decay=0.5)
        # No gradient signal: pure decay should shrink weights.
        param.grad = np.zeros_like(param.data)
        for _ in range(10):
            opt.step()
        assert np.abs(param.data).max() < 10.0

    def test_adamw_skips_decay_on_vectors(self):
        bias = Parameter(np.ones(3) * 4.0)
        opt = AdamW([bias], lr=0.1, weight_decay=0.5)
        bias.grad = np.zeros_like(bias.data)
        opt.step()
        np.testing.assert_allclose(bias.data, 4.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            AdamW([], lr=0.1)


def reference_adamw(matrix, vector, grads, lr, betas, eps, weight_decay):
    """Textbook AdamW (decoupled decay on matrices only) in plain numpy."""
    beta1, beta2 = betas
    params = [matrix.copy(), vector.copy()]
    m = [np.zeros_like(x) for x in params]
    v = [np.zeros_like(x) for x in params]
    for t, step_grads in enumerate(grads, start=1):
        for i, (x, g) in enumerate(zip(params, step_grads)):
            if x.ndim > 1:
                x -= lr * weight_decay * x
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g**2
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            x -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def random_grads(steps, seed=0):
    gen = np.random.default_rng(seed)
    return [
        (gen.normal(size=(3, 2)), gen.normal(size=2)) for _ in range(steps)
    ]


class TestAdamWArithmetic:
    @pytest.mark.parametrize(
        "lr, betas, eps, weight_decay",
        [
            (0.1, (0.9, 0.999), 1e-8, 0.0),
            (0.05, (0.9, 0.999), 1e-8, 0.01),
            (0.01, (0.8, 0.99), 1e-6, 0.1),
            (1e-3, (0.5, 0.9), 1e-4, 0.5),
        ],
        ids=["no-decay", "paper-decay", "custom-betas", "heavy-decay"],
    )
    def test_matches_reference_update(self, lr, betas, eps, weight_decay):
        start = np.random.default_rng(1)
        matrix, vector = start.normal(size=(3, 2)), start.normal(size=2)
        grads = random_grads(5)
        params = [Parameter(matrix.copy()), Parameter(vector.copy())]
        opt = AdamW(
            params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay
        )
        for step_grads in grads:
            for param, grad in zip(params, step_grads):
                param.grad = grad.copy()
            opt.step()
        expected = reference_adamw(
            matrix, vector, grads, lr, betas, eps, weight_decay
        )
        # Parameters hold float32; the reference runs in float64.
        for param, want in zip(params, expected):
            np.testing.assert_allclose(param.data, want, rtol=1e-5, atol=1e-6)

    def test_params_without_grad_are_untouched(self):
        # A parameter the loss never reached keeps its value: no decay,
        # no moment update.
        frozen = Parameter(np.ones((2, 2)) * 3.0)
        live = Parameter(np.ones((2, 2)))
        opt = AdamW([frozen, live], lr=0.1, weight_decay=0.5)
        live.grad = np.ones_like(live.data)
        for _ in range(3):
            opt.step()
        np.testing.assert_array_equal(frozen.data, 3.0)
        assert not np.allclose(live.data, 1.0)

    def test_state_dict_round_trip_continues_identically(self):
        grads = random_grads(6, seed=2)
        start = np.random.default_rng(3)
        matrix, vector = start.normal(size=(3, 2)), start.normal(size=2)

        def run(params, opt, step_grads_list):
            for step_grads in step_grads_list:
                for param, grad in zip(params, step_grads):
                    param.grad = grad.copy()
                opt.step()

        params = [Parameter(matrix.copy()), Parameter(vector.copy())]
        opt = AdamW(params, lr=0.05)
        run(params, opt, grads[:3])
        state = opt.state_dict()
        copies = [Parameter(p.data.copy()) for p in params]
        restored = AdamW(copies, lr=0.5)  # lr comes from the state
        restored.load_state_dict(state)
        assert restored.lr == opt.lr
        run(params, opt, grads[3:])
        run(copies, restored, grads[3:])
        for param, copy in zip(params, copies):
            np.testing.assert_array_equal(copy.data, param.data)

    def test_load_state_dict_rejects_missing_buffer(self):
        opt = AdamW([Parameter(np.ones((2, 2)))])
        state = opt.state_dict()
        del state["arrays"]["v.0"]
        with pytest.raises(ValueError, match="v.0"):
            AdamW([Parameter(np.ones((2, 2)))]).load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        state = AdamW([Parameter(np.ones((2, 2)))]).state_dict()
        with pytest.raises(ValueError, match="shape mismatch"):
            AdamW([Parameter(np.ones((3, 2)))]).load_state_dict(state)


class TestSchedules:
    def test_linear_warmup_then_decay(self):
        param = quadratic_param()
        opt = AdamW([param], lr=0.0)
        sched = LinearWarmupDecay(opt, peak_lr=1.0, total_steps=10, warmup_fraction=0.2)
        lrs = [sched.step() for _ in range(10)]
        assert lrs[0] < lrs[1]  # warming up
        assert lrs[1] == pytest.approx(1.0)  # peak at warmup end
        assert lrs[-1] < lrs[2]  # decaying
        assert lrs[-1] == pytest.approx(0.0)

    def test_rejects_nonpositive_total(self):
        param = quadratic_param()
        with pytest.raises(ValueError):
            LinearWarmupDecay(AdamW([param], lr=0.1), peak_lr=1.0, total_steps=0)

    def test_warmup_then_decay_exact_values(self):
        opt = AdamW([quadratic_param()], lr=0.0)
        sched = LinearWarmupDecay(opt, peak_lr=1.0, total_steps=10, warmup_fraction=0.2)
        lrs = [sched.step() for _ in range(10)]
        expected = [0.5, 1.0] + [(10 - step) / 8 for step in range(3, 11)]
        assert lrs == pytest.approx(expected)

    def test_zero_warmup_fraction_still_warms_for_one_step(self):
        opt = AdamW([quadratic_param()], lr=0.0)
        sched = LinearWarmupDecay(opt, peak_lr=2.0, total_steps=4, warmup_fraction=0.0)
        assert sched.warmup_steps == 1
        assert sched.step() == pytest.approx(2.0)

    def test_lr_stays_zero_past_total_steps(self):
        opt = AdamW([quadratic_param()], lr=0.0)
        sched = LinearWarmupDecay(opt, peak_lr=1.0, total_steps=3)
        lrs = [sched.step() for _ in range(6)]
        assert lrs[2:] == [0.0] * 4

    def test_step_sets_the_optimizer_lr(self):
        opt = AdamW([quadratic_param()], lr=123.0)
        sched = LinearWarmupDecay(opt, peak_lr=1.0, total_steps=10, warmup_fraction=0.5)
        for _ in range(3):
            lr = sched.step()
            assert opt.lr == lr

    def test_state_dict_round_trip_resumes_position(self):
        sched = LinearWarmupDecay(
            AdamW([quadratic_param()], lr=0.0), peak_lr=1.0, total_steps=10
        )
        for _ in range(4):
            sched.step()
        resumed = LinearWarmupDecay(
            AdamW([quadratic_param()], lr=0.0), peak_lr=1.0, total_steps=10
        )
        resumed.load_state_dict(sched.state_dict())
        assert [resumed.step() for _ in range(6)] == [
            sched.step() for _ in range(6)
        ]


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-4

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3), abs=1e-6)

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_weighted_cross_entropy_downweights(self):
        logits = Tensor(np.array([[0.0, 2.0], [0.0, 2.0]]))
        labels = np.array([0, 1])
        # All weight on the correct example -> lower loss than uniform.
        focused = weighted_cross_entropy(logits, labels, np.array([0.01, 1.0]))
        uniform = weighted_cross_entropy(logits, labels, np.array([1.0, 1.0]))
        assert focused.item() < uniform.item()

    def test_weighted_cross_entropy_validates(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(
                Tensor(np.zeros((2, 2))), np.array([0, 1]), np.array([1.0])
            )


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = Linear(3, 4, rng)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, metadata={"epoch": 3})
        fresh = Linear(3, 4, np.random.default_rng(42))
        meta = load_checkpoint(fresh, path)
        assert meta == {"epoch": 3}
        np.testing.assert_allclose(fresh.weight.data, model.weight.data)

    def test_load_missing_suffix(self, tmp_path):
        rng = np.random.default_rng(0)
        model = Linear(2, 2, rng)
        save_checkpoint(model, tmp_path / "ckpt")
        fresh = Linear(2, 2, np.random.default_rng(1))
        load_checkpoint(fresh, tmp_path / "ckpt")
        np.testing.assert_allclose(fresh.weight.data, model.weight.data)
