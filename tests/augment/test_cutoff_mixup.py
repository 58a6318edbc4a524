"""Cutoff-sampler hoist regression and the ``mixup_embed`` operator."""

import numpy as np
import pytest

from repro.augment import (
    EM_OPERATORS,
    MIXUP_ALPHA,
    make_cutoff_sampler,
    make_cutoff_transform,
    mask_transform,
    mixup_transform,
    sample_mixup,
)
from repro.core import SudowoodoConfig, build_tokenizer
from repro.core.pretrain import ContrastivePretrainProgram, pretrain
from repro.nn import Tensor
from repro.utils import RngStream, spawn_rng

CORPUS = [
    f"[COL] name [VAL] probe {i} delta [COL] brand [VAL] vertex "
    f"[COL] price [VAL] {i}.75"
    for i in range(36)
]


class TestCutoffHoistRegression:
    """The engine hoists ``make_cutoff_sampler`` out of the batch loop;
    the cutoff RNG stream must consume exactly the sequence the legacy
    per-batch ``make_cutoff_transform`` construction consumed."""

    @pytest.mark.parametrize("kind", ["token", "feature", "span"])
    def test_hoisted_sampler_consumes_identical_rng_stream(self, kind):
        seq_len, dim, batches = 24, 16, 12
        legacy_rng = spawn_rng(0, "cutoff")
        hoisted_rng = spawn_rng(0, "cutoff")

        # Legacy: rebuild the transform every batch (loop-invariant args),
        # draw the mask inside the forward pass.
        legacy_masks = []
        for _ in range(batches):
            transform = make_cutoff_transform(kind, 0.1, legacy_rng)
            embeddings = Tensor(np.ones((2, seq_len, dim)))
            masked = transform(embeddings, np.ones((2, seq_len)))
            legacy_masks.append(masked.data[0])

        # Hoisted: one sampler, one mask draw per batch ahead of forward.
        sampler = make_cutoff_sampler(kind, 0.1, hoisted_rng)
        for batch in range(batches):
            mask = sampler(seq_len, dim)
            embeddings = Tensor(np.ones((2, seq_len, dim)))
            masked = mask_transform(mask)(embeddings, np.ones((2, seq_len)))
            assert np.array_equal(masked.data[0], legacy_masks[batch])

        # Both generators end at the same stream position.
        assert (
            legacy_rng.bit_generator.state == hoisted_rng.bit_generator.state
        )

    def test_none_kind_yields_no_sampler(self):
        assert make_cutoff_sampler("none", 0.1, spawn_rng(0, "x")) is None
        assert make_cutoff_sampler("span", 0.0, spawn_rng(0, "x")) is None

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_cutoff_sampler("bogus", 0.1, spawn_rng(0, "x"))


class TestCutoffSamplerMasks:
    """What each cutoff kind zeroes in the sampler's ``(1, T, D)`` mask
    (Figure 5): rows, columns or one contiguous row span — never row 0,
    the [CLS] position the pooled output reads."""

    def test_token_cutoff_zeroes_rows_but_never_cls(self):
        sampler = make_cutoff_sampler("token", 0.2, spawn_rng(0, "x"))
        for _ in range(50):
            rows = np.flatnonzero(sampler(10, 6)[0].sum(axis=1) == 0)
            assert len(rows) == 2 and 0 not in rows

    def test_feature_cutoff_zeroes_columns(self):
        sampler = make_cutoff_sampler("feature", 0.3, spawn_rng(1, "x"))
        mask = sampler(10, 10)[0]
        assert int((mask.sum(axis=0) == 0).sum()) == 3
        assert (mask.sum(axis=1) == 7).all()

    def test_span_cutoff_is_contiguous_after_cls(self):
        sampler = make_cutoff_sampler("span", 0.3, spawn_rng(2, "x"))
        for _ in range(50):
            rows = np.flatnonzero(sampler(10, 4)[0].sum(axis=1) == 0)
            assert len(rows) == 3 and rows[0] >= 1
            assert (np.diff(rows) == 1).all()


class TestCutoffLandsOnTokens:
    """Section IV-A cuts *information*: the mask is sampled at the
    augmented view's own length, so a cut never lands on columns that are
    padding in every row (at ``config.max_seq_len`` a third of them did)."""

    @pytest.mark.parametrize("kind", ["token", "span"])
    def test_every_cut_position_is_inside_the_batch(self, kind):
        config = SudowoodoConfig(
            dim=8, num_heads=2, max_seq_len=40, pretrain_batch_size=6,
            num_clusters=2, cutoff_kind=kind, cutoff_ratio=0.1, seed=0,
        )
        program = ContrastivePretrainProgram(
            CORPUS, config, RngStream(0), build_tokenizer(CORPUS, config)
        )
        order = np.arange(len(CORPUS))
        for draw in range(200):
            prepared = program.prepare(np.roll(order, draw)[:6])
            batch, seq = prepared.aug.token_ids.shape
            longest = int(prepared.aug.attention_mask.sum(axis=1).max())
            assert longest < config.max_seq_len  # the premise: L < max_seq_len
            probe = Tensor(np.ones((batch, seq, config.dim)))
            out = prepared.transform(probe, prepared.aug.attention_mask).data
            positions = np.flatnonzero(out[0, :, 0] == 0.0)
            assert positions.size > 0
            assert positions.min() >= 1 and positions.max() < longest


class TestMixupOperator:
    def test_registered_in_em_operators(self):
        assert "mixup_embed" in EM_OPERATORS
        # Text level: identity (the distortion lives at the embedding
        # injection point).
        rng = spawn_rng(0, "mixup")
        assert EM_OPERATORS["mixup_embed"]("[COL] a [VAL] b", rng) == "[COL] a [VAL] b"

    def test_selectable_as_the_da_operator(self):
        SudowoodoConfig(da_operator="mixup_embed").validate()

    def test_sample_mixup_plan_is_valid(self):
        rng = spawn_rng(0, "mixup")
        permutation, lam = sample_mixup(8, rng, alpha=MIXUP_ALPHA)
        assert sorted(permutation.tolist()) == list(range(8))
        assert 0.5 <= lam <= 1.0

    def test_sample_mixup_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            sample_mixup(0, spawn_rng(0, "mixup"))

    def test_transform_interpolates_views(self):
        rng = spawn_rng(1, "mixup")
        permutation, lam = sample_mixup(4, rng)
        embeddings = Tensor(spawn_rng(2, "emb").normal(size=(4, 6, 8)))
        mixed = mixup_transform(permutation, lam)(
            embeddings, np.ones((4, 6))
        )
        expected = (
            lam * embeddings.data + (1.0 - lam) * embeddings.data[permutation]
        )
        np.testing.assert_allclose(mixed.data, expected, rtol=1e-6)
        assert np.isfinite(mixed.data).all()

    def test_transform_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            mixup_transform(np.arange(4), 1.5)

    def test_transform_backward_flows_to_both_endpoints(self):
        permutation = np.array([1, 0])
        embeddings = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        mixed = mixup_transform(permutation, 0.7)(embeddings, np.ones((2, 3)))
        mixed.sum().backward()
        # Every position receives gradient from itself (0.7) and from its
        # partner (0.3): total 1.0 per element.
        np.testing.assert_allclose(embeddings.grad, np.ones((2, 3, 4)), rtol=1e-6)

    def test_pretrain_with_mixup_trains_without_nans(self):
        config = SudowoodoConfig(
            dim=16,
            num_layers=1,
            num_heads=2,
            ffn_dim=32,
            max_seq_len=24,
            pair_max_seq_len=40,
            vocab_size=400,
            pretrain_epochs=2,
            pretrain_batch_size=8,
            num_clusters=3,
            corpus_cap=32,
            mlm_warm_start_epochs=0,
            da_operator="mixup_embed",
            seed=0,
        )
        result = pretrain(list(CORPUS), config)
        assert len(result.epoch_losses) == 2
        assert all(np.isfinite(loss) for loss in result.epoch_losses)
        for value in result.encoder.state_dict().values():
            assert np.isfinite(value).all()

    def test_mixup_produces_distinct_views(self):
        # The augmented encoding equals the original (identity text view);
        # the embedding-level interpolation must still distinguish z_aug
        # from z_ori (lam < 1 almost surely mixes partners in).
        rng = spawn_rng(3, "mixup")
        found_mixing = False
        for _ in range(16):
            permutation, lam = sample_mixup(6, rng)
            if lam < 1.0 and not np.array_equal(permutation, np.arange(6)):
                found_mixing = True
                break
        assert found_mixing
