"""Cutoff-sampler hoist regression, the sampler's masks, and where the
engine lands its cuts."""

import numpy as np
import pytest

from cutoff_reference import make_cutoff_transform
from repro.augment import make_cutoff_sampler, mask_transform
from repro.core import SudowoodoConfig, build_tokenizer
from repro.core.pretrain import ContrastivePretrainProgram
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

