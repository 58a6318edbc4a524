"""Pre-training applies the configured DA operator to every batch
(Algorithm 1, line 7) and no other operator."""

import importlib

import pytest

from repro.augment.operators import ALL_OPERATORS
from repro.core import SudowoodoConfig, pretrain

# ``repro.core.pretrain`` the attribute is the function; this is the module.
pretrain_module = importlib.import_module("repro.core.pretrain")

CORPUS = [
    f"[COL] name [VAL] gadget {i} beta [COL] brand [VAL] zenith "
    f"[COL] price [VAL] {i}.49"
    for i in range(24)
]

TINY = dict(
    dim=16,
    num_layers=1,
    num_heads=2,
    ffn_dim=32,
    max_seq_len=24,
    pair_max_seq_len=40,
    vocab_size=400,
    pretrain_epochs=1,
    pretrain_batch_size=8,
    num_clusters=3,
    corpus_cap=24,
    mlm_warm_start_epochs=0,
    seed=0,
)


def applied_operators(monkeypatch, config):
    """Run ``pretrain`` and return the operator of every augmented batch."""
    seen = []
    original = pretrain_module.augment_batch

    def recording(texts, rng, operator="token_del"):
        seen.append(operator)
        return original(texts, rng, operator=operator)

    monkeypatch.setattr(pretrain_module, "augment_batch", recording)
    result = pretrain(list(CORPUS), config)
    assert len(result.epoch_losses) == config.pretrain_epochs
    return seen


@pytest.mark.parametrize("operator", sorted(ALL_OPERATORS))
def test_every_batch_uses_the_configured_operator(monkeypatch, operator):
    config = SudowoodoConfig(da_operator=operator, **TINY)
    seen = applied_operators(monkeypatch, config)
    assert len(seen) == len(CORPUS) // config.pretrain_batch_size
    assert set(seen) == {operator}


@pytest.mark.parametrize(
    "task, operator",
    [
        ("match", "token_del"),
        ("clean", "span_shuffle"),
        ("column_match", "cell_shuffle"),
    ],
)
def test_task_preset_operator_is_applied(monkeypatch, task, operator):
    config = SudowoodoConfig.for_task(task, **TINY)
    assert config.da_operator == operator
    assert set(applied_operators(monkeypatch, config)) == {operator}
