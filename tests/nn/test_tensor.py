"""Gradient-check and semantics tests for the autograd engine."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, autograd_dtype, concat, no_grad, numerical_gradient


@pytest.fixture(autouse=True)
def _float64():
    """Finite-difference checks need float64 precision."""
    with autograd_dtype(np.float64):
        yield


def check_gradient(func, shape, seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = func(x)
    out.backward()
    analytic = x.grad.copy()
    x.grad = None
    numeric = numerical_gradient(func, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda t: (t + 2.5).sum(), (3, 4))

    def test_mul(self):
        check_gradient(lambda t: (t * t).sum(), (3, 4))

    def test_div(self):
        check_gradient(lambda t: (Tensor(1.0) / (t * t + 2.0)).sum(), (4,))

    def test_pow(self):
        check_gradient(lambda t: ((t * t + 1.0) ** 1.5).sum(), (5,))

    def test_sqrt(self):
        check_gradient(lambda t: (t * t + 1.0).sqrt().sum(), (6,))

    def test_abs(self):
        check_gradient(lambda t: (t.abs() * 3.0).sum(), (7,), seed=3)

    def test_relu(self):
        check_gradient(lambda t: (t.relu() * t).sum(), (10,), seed=5)

    def test_gelu(self):
        check_gradient(lambda t: t.gelu().sum(), (3, 4), atol=1e-4)

    def test_neg_sub(self):
        check_gradient(lambda t: (-t + 5.0 - t).sum(), (3,))


class TestBroadcastingGradients:
    def test_add_broadcast_rows(self):
        rng = np.random.default_rng(1)
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))

        def f(b):
            return (x + b).sum()

        out = f(bias)
        out.backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))

    def test_mul_broadcast_scalar_shape(self):
        rng = np.random.default_rng(2)
        scale = Tensor(rng.normal(size=(1, 1)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 5)))
        (x * scale).sum().backward()
        np.testing.assert_allclose(scale.grad, [[x.data.sum()]])

    def test_keepdims_broadcast_div(self):
        check_gradient(
            lambda t: (t / (t.sum(axis=-1, keepdims=True) + 10.0)).sum(), (3, 4)
        )


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2.0).sum(), (3, 4))

    def test_sum_axis_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=-1) ** 2.0).sum(), (2, 5))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6, 2) ** 2.0).sum(), (3, 4))

    def test_transpose(self):
        check_gradient(lambda t: (t.transpose(1, 0) @ t).sum(), (3, 4))

    def test_getitem_slice(self):
        check_gradient(lambda t: (t[1:, :2] ** 2.0).sum(), (3, 4))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])

        def f(t):
            return (t[idx] * 3.0).sum()

        check_gradient(f, (4, 2))


class TestMatmulGradients:
    def test_2d_2d(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4, 5)))
        check_gradient(lambda t: (t @ w).sum(), (3, 4))

    def test_grad_wrt_rhs(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: ((x @ t) ** 2.0).sum(), (4, 2))

    def test_batched(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(2, 4, 5)))
        check_gradient(lambda t: (t @ w).sum(), (2, 3, 4))

    def test_batched_rhs_grad(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        check_gradient(lambda t: (x @ t).sum(), (2, 4, 5))

    def test_matrix_vector(self):
        rng = np.random.default_rng(0)
        v = Tensor(rng.normal(size=(4,)))
        check_gradient(lambda t: (t @ v).sum(), (3, 4))

    def test_vector_grad(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: ((x @ t) ** 2.0).sum(), (4,))


class TestCompositePrimitives:
    def test_softmax(self):
        check_gradient(lambda t: (t.softmax(axis=-1) ** 2.0).sum(), (3, 4))

    def test_softmax_other_axis(self):
        check_gradient(lambda t: (t.softmax(axis=0) ** 2.0).sum(), (3, 4))

    def test_log_softmax(self):
        check_gradient(lambda t: (t.log_softmax(axis=-1) * 0.5).sum(), (3, 4))

    def test_log_softmax_matches_composition(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(
            x.log_softmax(axis=-1).data, np.log(x.softmax(axis=-1).data), atol=1e-10
        )

    def test_layer_norm_input_grad(self):
        rng = np.random.default_rng(0)
        weight = Tensor(rng.normal(size=(4,)) + 1.0)
        bias = Tensor(rng.normal(size=(4,)))
        check_gradient(
            lambda t: (t.layer_norm(weight, bias) ** 2.0).sum(), (3, 4), atol=1e-4
        )

    def test_layer_norm_param_grads(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)))
        weight = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        (x.layer_norm(weight, bias) ** 2.0).sum().backward()
        assert weight.grad is not None and bias.grad is not None
        analytic_w = weight.grad.copy()
        numeric_w = numerical_gradient(
            lambda w: (x.layer_norm(w, bias) ** 2.0).sum(), weight
        )
        np.testing.assert_allclose(analytic_w, numeric_w, atol=1e-4)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 8)) * 7.0 + 3.0)
        weight = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = x.layer_norm(weight, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_embedding(self):
        idx = np.array([[0, 1], [1, 2]])

        def f(t):
            return (t.embedding(idx) ** 2.0).sum()

        check_gradient(f, (3, 4))

    def test_embedding_repeated_rows_accumulate(self):
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        out = table.embedding(np.array([1, 1, 1]))
        out.sum().backward()
        np.testing.assert_allclose(table.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(table.grad[0], [0.0, 0.0])

    def test_masked_fill(self):
        mask = np.array([[True, False], [False, True]])

        def f(t):
            return (t.masked_fill(mask, -100.0) * t.detach()).sum()

        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        f(x).backward()
        # Gradient is zero at masked positions.
        assert x.grad[0, 0] == 0.0 and x.grad[1, 1] == 0.0
        assert x.grad[0, 1] != 0.0

    def test_l2_normalize(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 6)))
        norms = np.linalg.norm(x.l2_normalize().data, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_l2_normalize_grad(self):
        check_gradient(lambda t: (t.l2_normalize() * 2.0).sum(), (3, 4), atol=1e-4)


class TestConcat:
    def test_concat_grad(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-10)
        np.testing.assert_allclose(b.grad, 2 * b.data, atol=1e-10)


class TestGraphSemantics:
    def test_grad_accumulates_over_multiple_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_detach_blocks_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x.detach() * x
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_detach_shares_data_buffer(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        d = x.detach()
        assert d.data is x.data
        assert not d.requires_grad
        assert d._parents == ()
        assert d.grad is None

    def test_detach_keeps_dtype_across_autograd_dtype(self):
        # Regression: detach() used to rebuild the array at the *current*
        # default dtype, silently copying (and upcasting) float32 buffers
        # whenever a different-precision context was active.  (This file's
        # autouse fixture pins the default to float64, so the float32
        # tensor below disagrees with the ambient default.)
        with autograd_dtype(np.float32):
            x = Tensor(np.ones(4, dtype=np.float32))
        d = x.detach()
        assert d.data.dtype == np.float32
        assert d.data is x.data

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_is_thread_local(self):
        # Regression: grad mode was one process-global flag, so a serving
        # thread sitting inside no_grad() switched autograd off for every
        # other thread — and overlapping save/restore pairs across threads
        # could leave it off permanently.
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with no_grad():
                entered.set()
                release.wait(5.0)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(5.0)
            # While the worker holds no_grad, this thread still builds
            # graphs and backpropagates.
            x = Tensor(np.ones(3), requires_grad=True)
            (x * x).sum().backward()
            np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))
        finally:
            release.set()
            thread.join()

    def test_graph_released_after_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
        assert y._parents
        y.backward()
        assert y._parents == ()
        assert y._backward is None

    def test_dropout_eval_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((4, 4)))
        out = x.dropout(0.5, rng, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = x.dropout(0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_requires_grad_false_drops_parents(self):
        x = Tensor(np.ones(3))
        y = x * 2.0
        assert y._parents == ()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_softmax_rows_sum_to_one(rows, cols, seed):
    with autograd_dtype(np.float64):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(scale=5.0, size=(rows, cols)))
        out = x.softmax(axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert (out >= 0).all()


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(
        st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_chain_rule_linear(shape, seed):
    """d/dx of (a*x + b).sum() is a everywhere, for random a, b."""
    with autograd_dtype(np.float64):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        (Tensor(a) * x + Tensor(b)).sum().backward()
        np.testing.assert_allclose(x.grad, a, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_matmul_matches_numpy(seed):
    with autograd_dtype(np.float64):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b, atol=1e-12)
