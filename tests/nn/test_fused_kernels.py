"""Fused kernels vs. their reference compositions: bit-identical, both
directions, grad and no-grad.

The fused ``linear`` / ``bias_gelu`` / ``attention_scores`` kernels,
``Tensor.dropout`` and the ``no_grad`` scratch-buffer fast paths promise
*exactly* the values of the unfused op composition — same numpy
operations in the same order.  The compositions live here, as plain
functions; :func:`reference_kernels` swaps them in for the library's, so
every layer (which calls the kernels through ``repro.nn.tensor``) runs
the reference path.  These tests pin the invariant with byte-level
comparisons; the training byte-identity contracts in tests/train/ depend
on it.
"""

import math
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro.nn import (
    LayerNorm,
    Tensor,
    TransformerConfig,
    TransformerEncoder,
    autograd_dtype,
    no_grad,
    numerical_gradient,
)
from repro.nn import tensor as tensor_module


def reference_linear(x, weight, bias=None):
    """``x @ weight + bias`` as two graph nodes."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def reference_bias_gelu(x, bias):
    """``gelu(x + bias)`` as two graph nodes."""
    return (x + bias).gelu()


def reference_attention_scores(q, k, scale, blocking_mask=None, mask_value=-1e9):
    """``softmax(mask(q @ k^T * scale))`` as up to four graph nodes."""
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    if blocking_mask is not None:
        scores = scores.masked_fill(blocking_mask, mask_value)
    return scores.softmax(axis=-1)


def reference_dropout(self, p, rng, training):
    """Inverted dropout as ``self * Tensor(mask)``."""
    if not training or p <= 0.0:
        return self
    keep = 1.0 - p
    return self * Tensor((rng.random(self.shape) < keep) / keep)


@contextmanager
def reference_kernels():
    """Run every fused kernel's reference composition instead."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor_module, "linear", reference_linear)
        patch.setattr(tensor_module, "bias_gelu", reference_bias_gelu)
        patch.setattr(tensor_module, "attention_scores", reference_attention_scores)
        patch.setattr(Tensor, "dropout", reference_dropout)
        yield


def gen(seed=0):
    return np.random.default_rng(seed)


def run_both(build_loss, params_fn):
    """Forward + backward, fused then reference; return (values, grads)."""
    results = []
    for context in (nullcontext, reference_kernels):
        with context():
            loss, out, params = build_loss()
            loss.backward()
        results.append(
            (out.data.copy(), [p.grad.copy() for p in params_fn(params)])
        )
    return results


class TestReferenceSwap:
    FUSED = {"linear", "bias_gelu", "attention_scores", "dropout"}

    def _primitives_of_a_training_forward(self):
        seen = set()

        def hook(name, run, *args):
            seen.add(name)
            return run(*args)

        model = TransformerEncoder(replace(TestFullEncoder()._config(), dropout=0.1))
        model.train()
        ids, mask, segments = TestFullEncoder()._inputs()
        previous = tensor_module.set_op_hook(hook)
        try:
            model.pooled(ids, attention_mask=mask, segment_ids=segments)
        finally:
            tensor_module.set_op_hook(previous)
        return seen

    def test_encoder_runs_the_fused_kernels(self):
        assert self.FUSED <= self._primitives_of_a_training_forward()

    def test_reference_context_reaches_every_layer(self):
        with reference_kernels():
            seen = self._primitives_of_a_training_forward()
        assert not self.FUSED & seen
        assert {"matmul", "add", "gelu", "softmax", "mul"} <= seen
        assert tensor_module.linear is not reference_linear


class TestLinear:
    def test_forward_backward_identical(self):
        x0 = gen(1).normal(size=(4, 6, 8)).astype(np.float32)
        w0 = gen(2).normal(size=(8, 5)).astype(np.float32)
        b0 = gen(3).normal(size=(5,)).astype(np.float32)

        def build():
            x = Tensor(x0.copy(), requires_grad=True)
            w = Tensor(w0.copy(), requires_grad=True)
            b = Tensor(b0.copy(), requires_grad=True)
            out = tensor_module.linear(x, w, b)
            return (out * out).sum(), out, (x, w, b)

        (fused_out, fused_grads), (ref_out, ref_grads) = run_both(
            build, lambda params: params
        )
        np.testing.assert_array_equal(fused_out, ref_out)
        for fused_grad, ref_grad in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(fused_grad, ref_grad)

    def test_no_bias(self):
        x0 = gen(4).normal(size=(3, 8)).astype(np.float32)
        w0 = gen(5).normal(size=(8, 5)).astype(np.float32)
        fused = tensor_module.linear(Tensor(x0), Tensor(w0)).data
        ref = reference_linear(Tensor(x0), Tensor(w0)).data
        np.testing.assert_array_equal(fused, ref)

    def test_vector_input_weight_grad(self):
        x0 = gen(6).normal(size=(8,)).astype(np.float32)
        w0 = gen(7).normal(size=(8, 5)).astype(np.float32)

        def build():
            x = Tensor(x0.copy(), requires_grad=True)
            w = Tensor(w0.copy(), requires_grad=True)
            out = tensor_module.linear(x, w)
            return (out * out).sum(), out, (x, w)

        (fused_out, fused_grads), (ref_out, ref_grads) = run_both(
            build, lambda params: params
        )
        np.testing.assert_array_equal(fused_out, ref_out)
        for fused_grad, ref_grad in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(fused_grad, ref_grad)

    def test_accepts_raw_ndarray(self):
        x0 = gen(8).normal(size=(3, 8)).astype(np.float32)
        w = Tensor(gen(9).normal(size=(8, 5)).astype(np.float32))
        out = tensor_module.linear(x0, w)
        np.testing.assert_array_equal(
            out.data, tensor_module.linear(Tensor(x0), w).data
        )


class TestBiasGelu:
    def test_forward_backward_identical(self):
        x0 = gen(10).normal(size=(4, 6, 16)).astype(np.float32)
        b0 = gen(11).normal(size=(16,)).astype(np.float32)

        def build():
            x = Tensor(x0.copy(), requires_grad=True)
            b = Tensor(b0.copy(), requires_grad=True)
            out = tensor_module.bias_gelu(x, b)
            return (out * out).sum(), out, (x, b)

        (fused_out, fused_grads), (ref_out, ref_grads) = run_both(
            build, lambda params: params
        )
        np.testing.assert_array_equal(fused_out, ref_out)
        for fused_grad, ref_grad in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(fused_grad, ref_grad)

    def test_no_grad_scratch_path_identical(self):
        x = Tensor(gen(12).normal(size=(4, 6, 16)).astype(np.float32))
        b = Tensor(gen(13).normal(size=(16,)).astype(np.float32))
        grad_mode = tensor_module.bias_gelu(x, b).data.copy()
        with no_grad():
            first = tensor_module.bias_gelu(x, b).data.copy()
            second = tensor_module.bias_gelu(x, b).data.copy()  # scratch reuse
            ref = reference_bias_gelu(x, b).data.copy()
        np.testing.assert_array_equal(first, grad_mode)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, ref)

    def test_no_grad_output_not_clobbered_by_next_call(self):
        # Outputs must own their buffers: a second call through the same
        # scratch pool cannot mutate an earlier result.
        x = Tensor(gen(14).normal(size=(4, 16)).astype(np.float32))
        y = Tensor(gen(15).normal(size=(4, 16)).astype(np.float32))
        b = Tensor(np.zeros(16, dtype=np.float32))
        with no_grad():
            first = tensor_module.bias_gelu(x, b)
            snapshot = first.data.copy()
            tensor_module.bias_gelu(y, b)
        np.testing.assert_array_equal(first.data, snapshot)


class TestAttentionScores:
    SHAPE = (2, 2, 5, 4)  # (batch, heads, seq, head_dim)

    def _mask(self):
        mask = np.zeros((2, 1, 1, 5), dtype=bool)
        mask[:, :, :, 3:] = True
        return mask

    @pytest.mark.parametrize("with_mask", [True, False])
    def test_forward_backward_identical(self, with_mask):
        q0 = gen(16).normal(size=self.SHAPE).astype(np.float32)
        k0 = gen(17).normal(size=self.SHAPE).astype(np.float32)
        scale = 1.0 / math.sqrt(self.SHAPE[-1])
        mask = self._mask() if with_mask else None

        def build():
            q = Tensor(q0.copy(), requires_grad=True)
            k = Tensor(k0.copy(), requires_grad=True)
            out = tensor_module.attention_scores(q, k, scale, mask)
            return (out * out).sum(), out, (q, k)

        (fused_out, fused_grads), (ref_out, ref_grads) = run_both(
            build, lambda params: params
        )
        np.testing.assert_array_equal(fused_out, ref_out)
        for fused_grad, ref_grad in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(fused_grad, ref_grad)

    def test_rows_sum_to_one_and_mask_zeroed(self):
        q = Tensor(gen(18).normal(size=self.SHAPE).astype(np.float32))
        k = Tensor(gen(19).normal(size=self.SHAPE).astype(np.float32))
        mask = self._mask()
        weights = tensor_module.attention_scores(q, k, 0.5, mask).data
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert weights[:, :, :, 3:].max() < 1e-6

    def test_no_grad_scratch_path_identical(self):
        q = Tensor(gen(20).normal(size=self.SHAPE).astype(np.float32))
        k = Tensor(gen(21).normal(size=self.SHAPE).astype(np.float32))
        scale = 1.0 / math.sqrt(self.SHAPE[-1])
        mask = self._mask()
        fused = tensor_module.attention_scores
        grad_mode = fused(q, k, scale, mask).data.copy()
        with no_grad():
            first = fused(q, k, scale, mask)
            snapshot = first.data.copy()
            second = fused(q, k, scale, mask).data.copy()
            ref = reference_attention_scores(q, k, scale, mask).data.copy()
        np.testing.assert_array_equal(snapshot, grad_mode)
        np.testing.assert_array_equal(snapshot, second)
        np.testing.assert_array_equal(snapshot, ref)
        # The first output survived the second call's scratch reuse.
        np.testing.assert_array_equal(first.data, snapshot)


class TestDropout:
    """One node vs the ``x * Tensor(mask)`` composition: same draws, same
    mask bits, same gradients — and an unchanged RNG stream after."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_backward_identical(self, dtype):
        x0 = gen(30).normal(size=(3, 4, 5, 5)).astype(dtype)
        states = []

        def build():
            rng = gen(31)
            x = Tensor(x0.copy(), requires_grad=True)
            out = x.dropout(0.3, rng, training=True)
            states.append(rng.bit_generator.state)
            return (out * out).sum(), out, (x,)

        with autograd_dtype(dtype):
            (fused_out, fused_grads), (ref_out, ref_grads) = run_both(
                build, lambda params: params
            )
        assert fused_out.dtype == dtype
        np.testing.assert_array_equal(fused_out, ref_out)
        np.testing.assert_array_equal(fused_grads[0], ref_grads[0])
        assert states[0] == states[1]
        dropped = fused_out == 0.0
        assert 0 < dropped.sum() < dropped.size
        np.testing.assert_array_equal(fused_grads[0][dropped], 0.0)

    def test_identity_when_off(self):
        x = Tensor(gen(32).normal(size=(2, 3)), requires_grad=True)
        rng = gen(33)
        before = rng.bit_generator.state
        assert x.dropout(0.5, rng, training=False) is x
        assert x.dropout(0.0, rng, training=True) is x
        assert rng.bit_generator.state == before

    def test_no_grad_builds_no_graph(self):
        x = Tensor(gen(34).normal(size=(4, 6)), requires_grad=True)
        with no_grad():
            out = x.dropout(0.4, gen(35), training=True)
        assert not out.requires_grad and out._parents == ()

    def test_gradient_matches_finite_differences_with_mask_held_fixed(self):
        with autograd_dtype(np.float64):
            x = Tensor(gen(36).normal(size=(3, 7)), requires_grad=True)
            weights = gen(37).normal(size=(3, 7))

            def loss_fn(t):  # re-seeded per call: the same mask every time
                return (t.dropout(0.35, gen(38), training=True) * weights).sum()

            loss_fn(x).backward()
            numeric = numerical_gradient(loss_fn, x)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-8)


class TestLayerNormFastPath:
    def test_no_grad_fast_path_identical(self):
        norm = LayerNorm(16)
        norm.weight.data[:] = gen(22).normal(size=16).astype(np.float32)
        norm.bias.data[:] = gen(23).normal(size=16).astype(np.float32)
        x = Tensor(gen(24).normal(size=(4, 6, 16)).astype(np.float32))
        train_mode = norm(x).data.copy()
        with no_grad():
            fast = norm(x).data.copy()
        np.testing.assert_array_equal(fast, train_mode)


class TestFullEncoder:
    """End-to-end: a 2-layer encoder forward + backward, fused vs reference."""

    def _inputs(self):
        generator = gen(25)
        ids = generator.integers(1, 50, size=(4, 12))
        mask = np.ones((4, 12), dtype=np.int64)
        mask[:, 9:] = 0
        segments = np.zeros((4, 12), dtype=np.int64)
        return ids, mask, segments

    def _config(self):
        return TransformerConfig(
            vocab_size=50,
            dim=16,
            num_layers=2,
            num_heads=4,
            ffn_dim=32,
            max_seq_len=12,
            dropout=0.0,
            seed=11,
        )

    def test_inference_forward_identical(self):
        ids, mask, segments = self._inputs()
        outs = []
        for context in (nullcontext, reference_kernels):
            with context():
                model = TransformerEncoder(self._config())
                model.eval()
                with no_grad():
                    pooled = model.pooled(
                        ids,
                        attention_mask=mask,
                        segment_ids=segments,
                        pooling="mean",
                    )
                outs.append(pooled.data.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_training_gradients_identical(self, dropout):
        ids, mask, segments = self._inputs()
        grads = []
        for context in (nullcontext, reference_kernels):
            with context():
                model = TransformerEncoder(replace(self._config(), dropout=dropout))
                model.train()
                pooled = model.pooled(
                    ids,
                    attention_mask=mask,
                    segment_ids=segments,
                    pooling="mean",
                )
                (pooled * pooled).sum().backward()
                grads.append([p.grad.copy() for p in model.parameters()])
        assert len(grads[0]) == len(grads[1]) > 0
        for fused_grad, ref_grad in zip(grads[0], grads[1]):
            np.testing.assert_array_equal(fused_grad, ref_grad)


class TestScratchPoolBounded:
    """The ``no_grad`` pool holds one grow-only buffer per (dtype, slot):
    meeting new batch shapes must not leave a buffer behind per shape."""

    SHAPES = [(1, 5), (3, 12), (2, 7), (4, 12), (4, 9), (2, 12), (1, 3)]

    def _encode(self, model, batch, length):
        generator = gen(batch * 100 + length)
        ids = generator.integers(1, 50, size=(batch, length))
        mask = np.ones((batch, length), dtype=np.int64)
        with no_grad():
            return model.pooled(ids, attention_mask=mask, pooling="mean").data

    def test_pool_bytes_bounded_by_largest_request_per_slot(self, monkeypatch):
        from repro.nn import tensor as tensor_module

        pool = tensor_module._ScratchPool()
        monkeypatch.setattr(tensor_module, "_SCRATCH", pool)
        largest = {}
        original_take = pool.take

        def recording_take(shape, dtype, slot=0):
            key = (np.dtype(dtype), slot)
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            largest[key] = max(largest.get(key, 0), nbytes)
            return original_take(shape, dtype, slot)

        pool.take = recording_take
        model = TransformerEncoder(TestFullEncoder()._config())
        model.eval()
        for batch, length in self.SHAPES:
            fused = self._encode(model, batch, length).copy()
            with reference_kernels():
                reference = self._encode(model, batch, length)
            np.testing.assert_array_equal(fused, reference)
        assert largest, "the no_grad encode path never touched the pool"
        held = sum(buffer.nbytes for buffer in pool.buffers.values())
        assert held <= sum(largest.values())

    def test_same_slot_aliases_across_shapes(self):
        from repro.nn.tensor import _ScratchPool

        pool = _ScratchPool()
        big = pool.take((4, 6), np.float32)
        small = pool.take((5,), np.float32)
        assert np.shares_memory(big, small)
        assert not np.shares_memory(big, pool.take((5,), np.float32, slot=1))
