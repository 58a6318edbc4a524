"""Tests for DA operators and cutoff augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoff_reference import make_cutoff_transform
from repro.augment import (
    EM_OPERATORS,
    augment,
    augment_batch,
    cell_shuffle,
    col_del,
    col_shuffle,
    get_operator,
    span_del,
    span_shuffle,
    token_del,
    token_insert,
    token_repl,
    token_swap,
)
from repro.nn import Tensor

ITEM = (
    "[COL] title [VAL] wireless deluxe keyboard premium pack "
    "[COL] price [VAL] 36.11 [COL] brand [VAL] acme"
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTokenOperators:
    def test_token_del_removes_one_value_token(self):
        out = token_del(ITEM, rng())
        assert len(out.split()) == len(ITEM.split()) - 1
        # Structure markers all survive.
        assert out.count("[COL]") == 3 and out.count("[VAL]") == 3

    def test_token_del_keeps_attribute_names(self):
        for seed in range(20):
            out = token_del(ITEM, rng(seed))
            assert "[COL] title" in out
            assert "[COL] price" in out
            assert "[COL] brand" in out

    def test_token_repl_uses_synonym(self):
        out = token_repl(ITEM, rng(1))
        assert out != ITEM
        # "wireless", "deluxe", or "premium" replaced with a synonym.
        replaced = [w for w in ("wireless", "deluxe", "premium") if w not in out]
        assert replaced

    def test_token_repl_without_synonyms_is_identity(self):
        text = "[COL] x [VAL] qqq zzz"
        assert token_repl(text, rng()) == text

    def test_token_swap_preserves_multiset(self):
        out = token_swap(ITEM, rng(2))
        assert sorted(out.split()) == sorted(ITEM.split())

    def test_token_insert_adds_one(self):
        out = token_insert(ITEM, rng(3))
        assert len(out.split()) == len(ITEM.split()) + 1

    def test_span_del_removes_span(self):
        out = span_del(ITEM, rng(4))
        removed = len(ITEM.split()) - len(out.split())
        assert 2 <= removed <= 4

    def test_span_shuffle_preserves_multiset(self):
        out = span_shuffle(ITEM, rng(5))
        assert sorted(out.split()) == sorted(ITEM.split())


class TestAttributeOperators:
    def test_col_shuffle_preserves_columns(self):
        out = col_shuffle(ITEM, rng(6))
        assert out.count("[COL]") == 3
        assert "[COL] price [VAL] 36.11" in out

    def test_col_del_drops_one_column(self):
        out = col_del(ITEM, rng(7))
        assert out.count("[COL]") == 2

    def test_col_del_single_column_identity(self):
        text = "[COL] a [VAL] x y"
        assert col_del(text, rng()) == text

    def test_cell_shuffle_permutes_vals(self):
        text = "[VAL] new york [VAL] california [VAL] florida"
        out = cell_shuffle(text, rng(8))
        assert sorted(out.split()) == sorted(text.split())
        assert out.count("[VAL]") == 3


class TestRegistry:
    def test_all_em_operators_run(self):
        for name in EM_OPERATORS:
            out = augment(ITEM, rng(9), operator=name)
            assert isinstance(out, str) and out

    def test_get_operator_unknown(self):
        with pytest.raises(KeyError):
            get_operator("bogus")

    def test_augment_batch(self):
        out = augment_batch([ITEM, ITEM], rng(10), operator="token_del")
        assert len(out) == 2


class TestCutoff:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_cutoff_transform("bogus", 0.1, rng())

    def test_transform_preserves_cls_position(self):
        transform = make_cutoff_transform("token", 0.5, rng(4))
        emb = Tensor(np.ones((2, 8, 4)))
        out = transform(emb, np.ones((2, 8)))
        # Position 0 (CLS) never cut.
        assert (out.data[:, 0, :] == 1.0).all()
        assert (out.data == 0).any()

    def test_transform_none_for_zero_ratio(self):
        assert make_cutoff_transform("token", 0.0, rng()) is None
        assert make_cutoff_transform("none", 0.5, rng()) is None

    def test_transform_batchwise_same_mask(self):
        """The same cutoff must apply to every item in the batch."""
        transform = make_cutoff_transform("feature", 0.25, rng(5))
        emb = Tensor(np.ones((3, 5, 8)))
        out = transform(emb, np.ones((3, 5))).data
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])

    def test_transform_gradient_flows(self):
        transform = make_cutoff_transform("span", 0.3, rng(6))
        emb = Tensor(np.ones((1, 6, 4)), requires_grad=True)
        out = transform(emb, np.ones((1, 6)))
        out.sum().backward()
        assert emb.grad is not None
        # Gradient zero at cut positions, one elsewhere.
        assert set(np.unique(emb.grad)) <= {0.0, 1.0}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    operator=st.sampled_from(sorted(EM_OPERATORS)),
)
def test_property_operators_preserve_structure(seed, operator):
    """Every operator keeps at least one [COL] marker and returns non-empty
    text with no leaked attribute-name deletions."""
    out = augment(ITEM, np.random.default_rng(seed), operator=operator)
    assert out.strip()
    assert "[COL]" in out
    # [VAL] markers never exceed [COL] markers for EM items.
    assert out.count("[VAL]") <= out.count("[COL]") + 1
