"""Shared CPU-scale profiles for the benchmark harness.

Set ``REPRO_BENCH=full`` to run every row of every table at larger scale
(slow: tens of minutes on one CPU); the default ``quick`` profile keeps
the whole suite to a few minutes while preserving the paper's shapes
(method orderings, ablation ordering, blocking frontier).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List

from repro import SudowoodoConfig, SudowoodoSession
from repro.cleaning import cleaning_corpus

PROFILE = os.environ.get("REPRO_BENCH", "quick")
FULL = PROFILE == "full"


@dataclass(frozen=True)
class Scale:
    em_scale: float
    em_max_table: int
    em_label_budget: int
    em_datasets: List[str]
    cleaning_scale: float
    cleaning_labeled_rows: int
    num_columns: int
    column_labels: int


SCALE = (
    Scale(
        em_scale=0.12,
        em_max_table=240,
        em_label_budget=160,
        em_datasets=["AB", "AG", "DA", "DS", "WA"],
        cleaning_scale=0.12,
        cleaning_labeled_rows=20,
        num_columns=400,
        column_labels=400,
    )
    if FULL
    else Scale(
        em_scale=0.08,
        em_max_table=160,
        # The paper's 500 labels are ~5% of its labeled pools; 60 of ~600
        # pairs reproduces that label-scarce regime, where pseudo-labeling
        # pays off (with abundant labels PL adds little — also true in the
        # paper's fully-supervised Table XVIII, which drops PL entirely).
        em_label_budget=60,
        em_datasets=["AB", "DA", "WA"],
        cleaning_scale=0.08,
        cleaning_labeled_rows=20,
        num_columns=220,
        column_labels=240,
    )
)


def em_config(seed: int = 0, **overrides) -> SudowoodoConfig:
    """The calibrated CPU-scale EM configuration."""
    defaults = dict(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        max_seq_len=40,
        pair_max_seq_len=72,
        vocab_size=2000,
        pretrain_epochs=3,
        pretrain_batch_size=16,
        finetune_epochs=15,
        finetune_batch_size=16,
        num_clusters=8,
        corpus_cap=256,
        multiplier=3,
        positive_ratio=0.10,
        pseudo_positive_fraction=0.5,
        seed=seed,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def ec_config(seed: int = 0, **overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        max_seq_len=40,
        pair_max_seq_len=80,
        vocab_size=1500,
        pretrain_epochs=2,
        pretrain_batch_size=16,
        finetune_epochs=10,
        num_clusters=8,
        corpus_cap=256,
        seed=seed,
    )
    defaults.update(overrides)
    return SudowoodoConfig.for_task("clean", **defaults)


def col_config(seed: int = 0, **overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=32,
        num_layers=2,
        num_heads=4,
        ffn_dim=64,
        vocab_size=2000,
        pretrain_epochs=3,
        pretrain_batch_size=16,
        finetune_epochs=15,
        finetune_batch_size=16,
        num_clusters=8,
        corpus_cap=256,
        seed=seed,
    )
    defaults.update(overrides)
    return SudowoodoConfig.for_task("column_match", **defaults)


def fit_match(config: SudowoodoConfig, dataset, label_budget: int):
    """One standalone EM job — pre-train a session on ``dataset`` and fit
    its ``match`` task; returns ``(session, task)``."""
    session = SudowoodoSession(config)
    session.pretrain(dataset.all_items())
    return session, session.task("match").fit(dataset, label_budget=label_budget)


def fit_clean(
    config: SudowoodoConfig, dataset, generator, labeled_rows: int,
    contrastive: bool = True,
):
    """One standalone EC job — pre-train a session on the cleaning corpus
    and fit its ``clean`` task; returns ``(session, task)``.

    ``contrastive=False`` keeps only the MLM warm start
    (``pretrain_epochs=0``) — the paper's "RoBERTa-base" ablation row.
    """
    if not contrastive:
        config = replace(config, pretrain_epochs=0)
    session = SudowoodoSession(config)
    session.pretrain(cleaning_corpus(dataset, generator))
    task = session.task("clean").fit(dataset, generator, labeled_rows=labeled_rows)
    return session, task


def once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
