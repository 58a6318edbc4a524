"""Focused tests for nn/attention.py and nn/transformer.py: masking
correctness, output shapes, and numeric-vs-autograd gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    TransformerConfig,
    TransformerEncoder,
    autograd_dtype,
    make_padding_mask,
    no_grad,
    numerical_gradient,
)
from repro.nn.attention import MultiHeadSelfAttention


def rng():
    return np.random.default_rng(0)


def tiny_encoder(**overrides) -> TransformerEncoder:
    defaults = dict(
        vocab_size=20,
        dim=8,
        num_layers=1,
        num_heads=2,
        ffn_dim=16,
        max_seq_len=8,
        dropout=0.0,
        seed=5,
    )
    defaults.update(overrides)
    return TransformerEncoder(TransformerConfig(**defaults))


# ----------------------------------------------------------------------
class TestAttentionMasking:
    def test_mask_shape_and_polarity(self):
        mask = make_padding_mask(np.array([[1, 1, 0], [1, 0, 0]]))
        assert mask.shape == (2, 1, 1, 3)
        # True marks *blocked* positions.
        np.testing.assert_array_equal(
            mask[:, 0, 0], np.array([[False, False, True], [False, True, True]])
        )

    def test_masked_positions_cannot_influence_unmasked(self):
        attn = MultiHeadSelfAttention(8, 2, rng())
        attn.eval()
        gen = np.random.default_rng(1)
        x = gen.normal(size=(1, 5, 8))
        mask = make_padding_mask(np.array([[1, 1, 1, 0, 0]]))
        base = attn(Tensor(x.copy()), mask).data[:, :3]
        x[0, 3:] = 1e3  # blow up masked positions only
        perturbed = attn(Tensor(x), mask).data[:, :3]
        np.testing.assert_allclose(base, perturbed, atol=1e-5)

    def test_mask_changes_output_at_kept_positions(self):
        """Masking must actually do something: dropping a real token from
        the attention pool changes other positions' outputs."""
        attn = MultiHeadSelfAttention(8, 2, rng())
        attn.eval()
        x = np.random.default_rng(2).normal(size=(1, 4, 8))
        full = attn(Tensor(x.copy())).data[:, :3]
        masked = attn(
            Tensor(x.copy()), make_padding_mask(np.array([[1, 1, 1, 0]]))
        ).data[:, :3]
        assert not np.allclose(full, masked)

    def test_per_row_masks_are_independent(self):
        """Row 0's padding must not leak into row 1's outputs."""
        attn = MultiHeadSelfAttention(8, 2, rng())
        attn.eval()
        gen = np.random.default_rng(3)
        x = gen.normal(size=(2, 4, 8))
        mask_a = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
        out_joint = attn(Tensor(x.copy()), make_padding_mask(mask_a)).data[1]
        out_solo = attn(
            Tensor(x[1:].copy()), make_padding_mask(mask_a[1:])
        ).data[0]
        np.testing.assert_allclose(out_joint, out_solo, atol=1e-6)


# ----------------------------------------------------------------------
class TestAttentionShapes:
    @pytest.mark.parametrize(
        "batch,seq,dim,heads", [(1, 3, 8, 1), (2, 5, 8, 2), (3, 7, 12, 4)]
    )
    def test_output_matches_input_shape(self, batch, seq, dim, heads):
        attn = MultiHeadSelfAttention(dim, heads, rng())
        out = attn(Tensor(np.random.default_rng(4).normal(size=(batch, seq, dim))))
        assert out.shape == (batch, seq, dim)

    def test_head_dim_must_divide(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 4, rng())

    def test_encoder_hidden_and_pooled_shapes(self):
        enc = tiny_encoder()
        ids = np.array([[2, 5, 6, 0], [2, 7, 0, 0]])
        hidden = enc(ids)
        assert hidden.shape == (2, 4, 8)
        with no_grad():
            assert enc.pooled(ids).shape == (2, 8)

    def test_mean_pooling_keeps_hidden_dtype(self, monkeypatch):
        # Regression: the pooling mask/counts were built as float64
        # constants.  The Tensor constructor's coercion to the default
        # dtype happened to wash that out in the output, but a float32
        # forward pass was still allocating float64 temporaries for every
        # mean-pooled batch.  Pin that `pooled` never *constructs* a
        # float64 tensor for a float32 model.
        from repro.nn import transformer as transformer_module

        constructed_dtypes = []

        class SpyTensor(Tensor):
            def __init__(self, data, *args, **kwargs):
                constructed_dtypes.append(np.asarray(data).dtype)
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(transformer_module, "Tensor", SpyTensor)
        enc = tiny_encoder()
        ids = np.array([[2, 5, 6, 0], [2, 7, 0, 0]])
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
        with no_grad():
            hidden = enc(ids, attention_mask=mask)
            pooled = enc.pooled(ids, attention_mask=mask)
        assert hidden.data.dtype == np.float32
        assert pooled.data.dtype == np.float32
        assert constructed_dtypes, "pooled() no longer builds mask tensors?"
        assert np.dtype(np.float64) not in constructed_dtypes


# ----------------------------------------------------------------------
class TestGradientChecks:
    """Central-difference vs autograd, in float64 for stable numerics."""

    ATOL = 1e-6
    RTOL = 1e-4

    def test_attention_input_gradient(self):
        with autograd_dtype(np.float64):
            attn = MultiHeadSelfAttention(6, 2, rng())
            attn.eval()
            gen = np.random.default_rng(6)
            x = Tensor(gen.normal(size=(1, 3, 6)), requires_grad=True)
            mask = make_padding_mask(np.array([[1, 1, 0]]))
            weights = gen.normal(size=(1, 3, 6))

            def loss_fn(tensor):
                return (attn(tensor, mask) * Tensor(weights)).sum()

            loss = loss_fn(x)
            loss.backward()
            numeric = numerical_gradient(loss_fn, x)
            np.testing.assert_allclose(
                x.grad, numeric, atol=self.ATOL, rtol=self.RTOL
            )

    def test_attention_parameter_gradients(self):
        with autograd_dtype(np.float64):
            attn = MultiHeadSelfAttention(6, 2, rng())
            attn.eval()
            gen = np.random.default_rng(7)
            x = Tensor(gen.normal(size=(2, 3, 6)))
            weights = gen.normal(size=(2, 3, 6))

            def loss_fn(_):
                return (attn(x) * Tensor(weights)).sum()

            for name in ("query", "key", "value", "output"):
                parameter = getattr(attn, name).weight
                loss = loss_fn(None)
                attn.zero_grad()
                loss.backward()
                analytic = parameter.grad.copy()
                numeric = numerical_gradient(loss_fn, parameter)
                np.testing.assert_allclose(
                    analytic,
                    numeric,
                    atol=self.ATOL,
                    rtol=self.RTOL,
                    err_msg=f"gradient mismatch for attn.{name}.weight",
                )

    def test_transformer_embedding_gradient(self):
        with autograd_dtype(np.float64):
            enc = tiny_encoder()
            enc.eval()
            ids = np.array([[2, 5, 6, 0]])
            mask = np.array([[1, 1, 1, 0]])
            gen = np.random.default_rng(8)
            weights = gen.normal(size=(1, 8))
            parameter = enc.token_embedding.weight

            def loss_fn(_):
                pooled = enc.pooled(ids, attention_mask=mask)
                return (pooled * Tensor(weights)).sum()

            loss = loss_fn(None)
            enc.zero_grad()
            loss.backward()
            analytic = parameter.grad.copy()
            numeric = numerical_gradient(loss_fn, parameter)
            np.testing.assert_allclose(
                analytic, numeric, atol=self.ATOL, rtol=self.RTOL
            )

    def test_transformer_layer_parameter_gradient(self):
        with autograd_dtype(np.float64):
            enc = tiny_encoder()
            enc.eval()
            ids = np.array([[2, 5, 6, 7]])
            gen = np.random.default_rng(9)
            weights = gen.normal(size=(1, 4, 8))
            parameter = enc.layers[0].ffn.fc1.weight

            def loss_fn(_):
                return (enc(ids) * Tensor(weights)).sum()

            loss = loss_fn(None)
            enc.zero_grad()
            loss.backward()
            analytic = parameter.grad.copy()
            numeric = numerical_gradient(loss_fn, parameter)
            np.testing.assert_allclose(
                analytic, numeric, atol=self.ATOL, rtol=self.RTOL
            )
