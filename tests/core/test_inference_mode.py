"""Inference never writes module state.

``embed_items`` and ``PairwiseMatcher.predict_proba`` run under the
thread-local ``no_grad()``, where dropout is off, so they leave the
shared module tree's ``training`` flags as they found them: during the
forward, after it, and when the forward raises.  (Flipping the tree to
eval and back let one thread's restore switch dropout on under another
thread's forward.)"""

import numpy as np
import pytest

from repro.core import (
    PairwiseMatcher,
    SudowoodoConfig,
    SudowoodoEncoder,
    build_tokenizer,
)
from repro.nn import no_grad
from repro.nn.layers import Dropout
from repro.nn.tensor import Tensor, set_op_hook

CORPUS = [
    "[COL] name [VAL] instant immersion spanish deluxe [COL] price [VAL] 36.11",
    "[COL] name [VAL] encore software learn spanish [COL] price [VAL] 29.99",
    "[COL] name [VAL] adobe photoshop elements [COL] price [VAL] 89.0",
    "[COL] name [VAL] sibelius instrumental teacher [COL] price [VAL] 159.95",
]


def make_encoder() -> SudowoodoEncoder:
    config = SudowoodoConfig(
        dim=16, num_layers=1, num_heads=2, ffn_dim=32, max_seq_len=24,
        pair_max_seq_len=40, vocab_size=300, seed=0,
    )
    encoder = SudowoodoEncoder(config, build_tokenizer(CORPUS, config))
    for module in encoder.modules():
        if isinstance(module, Dropout):
            module.p = 0.3  # loud enough that a leak would show
    return encoder


def modes_seen_during(module, call):
    """Run ``call()`` and return every module's ``training`` flag as read
    at each primitive call it makes."""
    seen = []

    def hook(name, run, *args):
        seen.extend(m.training for m in module.modules())
        return run(*args)

    previous = set_op_hook(hook)
    try:
        call()
    finally:
        set_op_hook(previous)
    assert seen, "the call ran no primitive"
    return seen


def test_embed_items_keeps_train_mode_during_the_forward():
    encoder = make_encoder()
    assert encoder.encoder.training
    seen = modes_seen_during(encoder, lambda: encoder.embed_items(CORPUS))
    assert all(seen)
    assert all(m.training for m in encoder.modules())


def test_predict_proba_keeps_train_mode_during_the_forward():
    matcher = PairwiseMatcher(make_encoder())
    pairs = list(zip(CORPUS, reversed(CORPUS)))
    seen = modes_seen_during(matcher, lambda: matcher.predict_proba(pairs))
    assert all(seen)
    assert all(m.training for m in matcher.modules())


def test_predict_proba_leaves_mode_as_it_was_when_the_forward_raises():
    matcher = PairwiseMatcher(make_encoder())

    def broken(pairs):
        raise RuntimeError("forward failed")

    matcher.forward = broken
    with pytest.raises(RuntimeError, match="forward failed"):
        matcher.predict_proba([(CORPUS[0], CORPUS[1])])
    assert all(m.training for m in matcher.modules())


def test_predict_proba_on_a_train_mode_matcher_equals_eval_mode():
    matcher = PairwiseMatcher(make_encoder())
    pairs = list(zip(CORPUS, reversed(CORPUS)))
    trained_mode = matcher.predict_proba(pairs)
    matcher.eval()
    np.testing.assert_array_equal(trained_mode, matcher.predict_proba(pairs))


def test_dropout_is_off_under_no_grad_only():
    layer = Dropout(0.5, np.random.default_rng(0))
    x = Tensor(np.ones((4, 8)))
    with no_grad():
        assert layer(x) is x
    assert layer(x) is not x
    layer.eval()
    assert layer(x) is x
