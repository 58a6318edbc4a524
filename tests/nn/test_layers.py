"""Tests for layers, modules, attention, and the Transformer encoder."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    AdamW,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Tensor,
    TransformerConfig,
    TransformerEncoder,
    cross_entropy,
    make_padding_mask,
    no_grad,
)
from repro.nn.attention import MultiHeadSelfAttention


def rng():
    return np.random.default_rng(0)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 7, rng())
        out = layer(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_no_bias(self):
        layer = Linear(4, 7, rng(), bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_batched_input(self):
        layer = Linear(4, 5, rng())
        out = layer(Tensor(np.ones((2, 3, 4))))
        assert out.shape == (2, 3, 5)

    def test_parameters_trainable(self):
        layer = Linear(4, 2, rng())
        out = layer(Tensor(np.ones((1, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng())
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out.data[0, 0], emb.weight.data[1])

    def test_padding_idx_zero_initialized(self):
        emb = Embedding(10, 4, rng(), padding_idx=0)
        np.testing.assert_allclose(emb.weight.data[0], 0.0)

    def test_padding_idx_gets_no_gradient(self):
        # Regression: pad lookups used to accumulate gradient into the pad
        # row, so the "always zero" embedding drifted with every batch.
        emb = Embedding(10, 4, rng(), padding_idx=0)
        out = emb(np.array([[0, 1, 2], [0, 0, 3]]))
        out.sum().backward()
        np.testing.assert_array_equal(emb.weight.grad[0], 0.0)
        assert np.any(emb.weight.grad[1] != 0.0)

    def test_padding_row_stays_zero_after_optimizer_step(self):
        emb = Embedding(10, 4, rng(), padding_idx=0)
        optimizer = AdamW(emb.parameters(), lr=0.5, weight_decay=0.0)
        for _ in range(3):
            optimizer.zero_grad()
            out = emb(np.array([[0, 1, 2, 0]]))
            # A value-independent loss: every looked-up row (including the
            # zero-initialized pad row) gets a nonzero gradient, so this
            # fails if the pad row is allowed to drift.
            out.sum().backward()
            optimizer.step()
        np.testing.assert_array_equal(emb.weight.data[0], 0.0)

    def test_no_padding_idx_pad_row_trains(self):
        emb = Embedding(10, 4, rng())
        out = emb(np.array([[0, 1]]))
        out.sum().backward()
        assert np.any(emb.weight.grad[0] != 0.0)


class TestModuleProtocol:
    def test_named_parameters_nested(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2, rng())

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.scale = Parameter(np.ones(1))
                self.blocks = [Linear(2, 2, rng()), Linear(2, 2, rng())]

        model = Outer()
        names = {name for name, _ in model.named_parameters()}
        assert "inner.fc.weight" in names
        assert "scale" in names
        assert "blocks.0.weight" in names and "blocks.1.bias" in names

    def test_state_dict_roundtrip(self):
        model = MLP(4, 8, 2, rng())
        state = model.state_dict()
        other = MLP(4, 8, 2, np.random.default_rng(99))
        other.load_state_dict(state)
        x = Tensor(np.ones((2, 4)))
        np.testing.assert_allclose(model(x).data, other(x).data)

    def test_load_state_dict_rejects_mismatch(self):
        model = Linear(3, 3, rng())
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.ones(3)})

    def test_train_eval_propagates(self):
        model = MLP(3, 4, 3, rng(), dropout=0.5)
        model.eval()
        assert not model.drop.training
        model.train()
        assert model.drop.training

    def test_num_parameters(self):
        model = Linear(3, 4, rng())
        assert model.num_parameters() == 3 * 4 + 4


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(8, 2, rng())
        out = attn(Tensor(np.random.default_rng(1).normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2, rng())

    def test_padding_mask_blocks_positions(self):
        """Changing a masked position's content must not change outputs at
        unmasked positions."""
        attn = MultiHeadSelfAttention(8, 2, rng())
        attn.eval()
        gen = np.random.default_rng(2)
        x = gen.normal(size=(1, 4, 8))
        mask = make_padding_mask(np.array([[1, 1, 1, 0]]))
        out1 = attn(Tensor(x.copy()), mask).data[:, :3]
        x[0, 3] = 100.0
        out2 = attn(Tensor(x), mask).data[:, :3]
        np.testing.assert_allclose(out1, out2, atol=1e-5)

    def test_make_padding_mask_shape(self):
        mask = make_padding_mask(np.ones((3, 7)))
        assert mask.shape == (3, 1, 1, 7)
        assert not mask.any()


class TestTransformer:
    def make(self, **overrides):
        defaults = dict(
            vocab_size=30,
            dim=16,
            num_layers=2,
            num_heads=2,
            ffn_dim=32,
            max_seq_len=10,
            dropout=0.0,
            seed=3,
        )
        defaults.update(overrides)
        return TransformerEncoder(TransformerConfig(**defaults))

    def test_forward_shape(self):
        enc = self.make()
        out = enc(np.array([[2, 5, 6, 0, 0]]))
        assert out.shape == (1, 5, 16)

    def test_rejects_long_sequence(self):
        enc = self.make(max_seq_len=4)
        with pytest.raises(ValueError):
            enc(np.ones((1, 5), dtype=np.int64))

    def test_padding_invariance(self):
        """Extending a sequence with PAD tokens must not change its pooled
        representation (the property blocking relies on)."""
        enc = self.make()
        enc.eval()
        ids_short = np.array([[2, 5, 6]])
        ids_padded = np.array([[2, 5, 6, 0, 0]])
        with no_grad():
            a = enc.pooled(ids_short).data
            b = enc.pooled(ids_padded).data
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_segment_embedding_changes_output(self):
        enc = self.make()
        enc.eval()
        ids = np.array([[2, 5, 6]])
        with no_grad():
            plain = enc.pooled(ids).data
            seg = enc.pooled(ids, segment_ids=np.array([[0, 1, 1]])).data
        assert not np.allclose(plain, seg)

    def test_embedding_transform_hook_applied(self):
        """The cutoff hook path: zeroing all embeddings must change output."""
        enc = self.make()
        enc.eval()
        ids = np.array([[2, 5, 6]])

        def zero_all(embeddings, attention_mask):
            return embeddings * 0.0

        with no_grad():
            plain = enc.pooled(ids).data
            zeroed = enc.pooled(ids, embedding_transform=zero_all).data
        assert not np.allclose(plain, zeroed)

    def test_can_overfit_tiny_classification(self):
        """End-to-end learning sanity: loss decreases by 10x on 4 examples."""
        enc = self.make(dropout=0.0)
        head = Linear(16, 2, rng())
        ids = np.array(
            [[2, 5, 6, 7], [2, 8, 9, 10], [2, 5, 6, 7], [2, 8, 9, 10]]
        )
        labels = np.array([0, 1, 0, 1])
        opt = AdamW(enc.parameters() + head.parameters(), lr=5e-3)
        first = None
        for _ in range(40):
            logits = head(enc.pooled(ids))
            loss = cross_entropy(logits, labels)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first / 10.0

    def test_deterministic_given_seed(self):
        a = self.make(seed=11)
        b = self.make(seed=11)
        ids = np.array([[2, 3, 4]])
        with no_grad():
            np.testing.assert_array_equal(
                a.pooled(ids).data, b.pooled(ids).data
            )
