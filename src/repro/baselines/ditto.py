"""Ditto baseline (Li et al., PVLDB 2021).

Ditto fine-tunes a pre-trained LM on concatenated serialized pairs with a
[CLS]-head classifier — no contrastive pre-training, no pseudo labels, no
similarity-aware head.  Here the "pre-trained LM" is the masked-LM
warm-started encoder (see DESIGN.md substitutions); everything downstream
follows Ditto: serialization, pair concatenation, concat-only head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from ..core.matcher import (
    PairwiseMatcher,
    TrainingExample,
    _apply_class_balance,
    evaluate_f1,
    finetune_matcher,
)
from ..core.pretrain import prepare_corpus
from ..data import EMDataset
from ..text import MLMConfig, mlm_warm_start
from ..utils import RngStream, Timer


@dataclass
class BaselineReport:
    name: str
    dataset: str
    test_metrics: Dict[str, float]
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def f1(self) -> float:
        return self.test_metrics.get("f1", 0.0)


def build_warm_encoder(
    dataset: EMDataset, config: SudowoodoConfig
) -> SudowoodoEncoder:
    """Tokenizer + encoder with MLM warm start but NO contrastive step —
    the shared starting point of the Ditto / Rotom / RoBERTa-base rows."""
    rngs = RngStream(config.seed)
    corpus = prepare_corpus(dataset.all_items(), config, rngs.get("corpus"))
    tokenizer = build_tokenizer(corpus, config)
    encoder = SudowoodoEncoder(config, tokenizer)
    if config.mlm_warm_start_epochs > 0:
        warm_rng = rngs.get("warm-pairs")
        pair_lines = [
            corpus[int(warm_rng.integers(len(corpus)))]
            + " [SEP] "
            + corpus[int(warm_rng.integers(len(corpus)))]
            for _ in range(len(corpus) // 2)
        ]
        mlm_warm_start(
            encoder.encoder,
            tokenizer,
            corpus + pair_lines,
            MLMConfig(
                epochs=config.mlm_warm_start_epochs,
                batch_size=config.pretrain_batch_size,
                max_seq_len=config.pair_max_seq_len,
                seed=config.seed,
            ),
        )
    return encoder


def manual_examples(
    dataset: EMDataset, label_budget: int, config: SudowoodoConfig
) -> List[TrainingExample]:
    rngs = RngStream(config.seed)
    pairs = dataset.sample_labeled(label_budget, rngs.get("labels"))
    examples = [
        TrainingExample(*dataset.serialize_pair(p), p.label, 1.0) for p in pairs
    ]
    _apply_class_balance(examples)
    return examples


def train_ditto(
    dataset: EMDataset,
    label_budget: int,
    config: Optional[SudowoodoConfig] = None,
) -> BaselineReport:
    """Train and evaluate the Ditto baseline at a label budget."""
    config = config or SudowoodoConfig()
    timer = Timer()
    with timer.section("warm_start"):
        encoder = build_warm_encoder(dataset, config)
    matcher = PairwiseMatcher(encoder, head="concat")
    examples = manual_examples(dataset, label_budget, config)
    with timer.section("finetune"):
        finetune_matcher(matcher, examples, examples, config)
    test_pairs = [dataset.serialize_pair(p) for p in dataset.pairs.test]
    test_labels = [p.label for p in dataset.pairs.test]
    with timer.section("evaluate"):
        metrics = evaluate_f1(matcher, test_pairs, test_labels)
    return BaselineReport(
        name=f"Ditto ({label_budget})",
        dataset=dataset.name,
        test_metrics=metrics,
        timings=timer.summary(),
    )
