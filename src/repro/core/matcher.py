"""Pairwise matcher with Sudowoodo's similarity-aware fine-tuning head.

Figure 4 of the paper: for a pair (x, y) the model encodes x, y, and the
concatenation xy, then classifies from ``Z_xy ⊕ |Z_x − Z_y|`` — combining
cross-item attention (the concat encoding) with an explicit representation
difference.  The baseline Ditto head (concat-only) is available via
``head="concat"`` for ablations and the Ditto baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import (
    AdamW,
    Linear,
    LinearWarmupDecay,
    Module,
    Tensor,
    concat,
    no_grad,
    weighted_cross_entropy,
)
from ..train import StepProgram, Trainer, permutation_batches, shard_bounds
from ..utils import spawn_rng
from .config import SudowoodoConfig
from .encoder import SudowoodoEncoder

#: AdamW step size of the task head.  The head is a fresh linear layer
#: over frozen-quality features, so it trains at a much larger step than
#: the encoder's ``config.finetune_lr``.
HEAD_LR = 5e-2


@dataclass
class TrainingExample:
    """A labeled (serialized) pair with a loss weight.

    Manual labels carry weight 1.0; pseudo labels are down-weighted by
    ``api.tasks.PSEUDO_LABEL_WEIGHT``.
    """

    left: str
    right: str
    label: int
    weight: float = 1.0


def _apply_class_balance(examples: List[TrainingExample]) -> None:
    """Scale example weights so both classes contribute equally in
    expectation (EM training sets are ~90% negative)."""
    num_pos = sum(1 for e in examples if e.label == 1)
    num_neg = len(examples) - num_pos
    if num_pos == 0 or num_neg == 0:
        return
    weight_of = {
        1: len(examples) / (2.0 * num_pos),
        0: len(examples) / (2.0 * num_neg),
    }
    for example in examples:
        example.weight *= weight_of[example.label]


@dataclass
class FinetuneResult:
    """Fine-tuning trace: per-epoch losses and the best validation F1."""

    epoch_losses: List[float] = field(default_factory=list)
    best_valid_f1: float = 0.0
    best_epoch: int = -1


class PairwiseMatcher(Module):
    """``M_pm``: the fine-tuned binary classifier over item pairs."""

    def __init__(
        self, encoder: SudowoodoEncoder, head: str = "sudowoodo"
    ) -> None:
        super().__init__()
        if head not in ("sudowoodo", "concat"):
            raise ValueError(f"unknown head {head!r}; use 'sudowoodo' or 'concat'")
        self.encoder = encoder
        self.head = head
        dim = encoder.config.dim
        input_dim = 2 * dim if head == "sudowoodo" else dim
        self.classifier = Linear(
            input_dim, 2, spawn_rng(encoder.config.seed, "matcher-head")
        )

    # ------------------------------------------------------------------
    def forward(self, pairs: Sequence[Tuple[str, str]]) -> Tensor:
        """(B, 2) logits for a batch of serialized pairs (Equation 3)."""
        z_xy = self.encoder.encode_pairs_training(pairs)
        if self.head == "concat":
            return self.classifier(z_xy)
        # Encode x and y separately in one batch of 2B rows.
        singles = [p[0] for p in pairs] + [p[1] for p in pairs]
        z_singles = self.encoder.encode_training(singles)
        n = len(pairs)
        z_x = z_singles[:n]
        z_y = z_singles[n:]
        features = concat([z_xy, (z_x - z_y).abs()], axis=1)
        return self.classifier(features)

    # ------------------------------------------------------------------
    def predict_proba(
        self, pairs: Sequence[Tuple[str, str]], batch_size: int = 32
    ) -> np.ndarray:
        """(N, 2) match probabilities, no gradients."""
        outputs: List[np.ndarray] = []
        with no_grad():  # dropout is off under no_grad
            for start in range(0, len(pairs), batch_size):
                logits = self.forward(list(pairs[start : start + batch_size]))
                outputs.append(logits.softmax(axis=-1).data.astype(np.float64))
        if not outputs:
            return np.zeros((0, 2))
        return np.vstack(outputs)

    def predict(
        self, pairs: Sequence[Tuple[str, str]], batch_size: int = 32
    ) -> np.ndarray:
        """Hard 0/1 match decisions (argmax over :meth:`predict_proba`)."""
        return self.predict_proba(pairs, batch_size=batch_size).argmax(axis=1)


class FinetuneProgram(StepProgram):
    """Matcher fine-tuning as a :class:`~repro.train.StepProgram`.

    Epoch permutations come from the dedicated ``finetune`` stream; batch
    preparation consumes no randomness, so gradient workers are safe.
    Validation (a few times across training — it costs as much as several
    training steps at this scale) and best-F1 model selection run at epoch
    boundaries, matching the paper's per-epoch protocol.
    """

    def __init__(
        self,
        matcher: PairwiseMatcher,
        train_examples: Sequence[TrainingExample],
        valid_examples: Sequence[TrainingExample],
        config: SudowoodoConfig,
        rng: np.random.Generator,
        validate_every: int,
    ) -> None:
        self.matcher = matcher
        self.train_examples = list(train_examples)
        self.valid_examples = list(valid_examples)
        self.config = config
        self.rng = rng
        self.validate_every = validate_every
        self.result = FinetuneResult()
        self._best_state: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    def epoch_batches(self, epoch: int) -> Sequence[np.ndarray]:
        return permutation_batches(
            self.rng, len(self.train_examples), self.config.finetune_batch_size
        )

    def prepare(
        self, batch_idx: np.ndarray
    ) -> Optional[List[TrainingExample]]:
        batch = [self.train_examples[int(i)] for i in batch_idx]
        if len(batch) < 2:
            return None
        return batch

    def loss(self, model: PairwiseMatcher, batch: List[TrainingExample]):
        logits = model.forward([(e.left, e.right) for e in batch])
        return weighted_cross_entropy(
            logits,
            np.array([e.label for e in batch]),
            np.array([e.weight for e in batch]),
        )

    def shard(
        self, batch: List[TrainingExample], num_shards: int
    ) -> Optional[List[Tuple[List[TrainingExample], int]]]:
        bounds = shard_bounds(len(batch), num_shards, min_per_shard=2)
        if bounds is None:
            return None
        return [(batch[lo:hi], hi - lo) for lo, hi in bounds]

    def on_epoch_end(
        self, trainer: Trainer, epoch: int, epoch_loss: float, is_last: bool
    ) -> None:
        if not self.valid_examples:
            return
        if epoch % self.validate_every != 0 and not is_last:
            return
        valid_f1 = evaluate_f1(
            self.matcher,
            [(e.left, e.right) for e in self.valid_examples],
            [e.label for e in self.valid_examples],
        )["f1"]
        if valid_f1 >= self.result.best_valid_f1:
            self.result.best_valid_f1 = valid_f1
            self.result.best_epoch = epoch
            self._best_state = self.matcher.state_dict()

    def on_fit_end(self, trainer: Trainer) -> None:
        if self._best_state is not None:
            self.matcher.load_state_dict(self._best_state)
        self.result.epoch_losses = list(trainer.state.epoch_losses)


def finetune_matcher(
    matcher: PairwiseMatcher,
    train_examples: Sequence[TrainingExample],
    valid_examples: Sequence[TrainingExample] = (),
    config: Optional[SudowoodoConfig] = None,
    fixed_steps: Optional[int] = None,
    num_validations: int = 4,
) -> FinetuneResult:
    """Fine-tune ``M_pm`` with AdamW + linear warmup/decay.

    Two parameter groups train at different rates: the fresh task head at
    :data:`HEAD_LR` and the pre-trained encoder at ``config.finetune_lr``
    (so a handful of imbalanced steps cannot wreck the contrastive
    representations).  The best-validation-F1 weights are kept, matching
    the paper's per-epoch model selection.  ``fixed_steps`` caps total
    optimizer steps — the paper fixes the step count when pseudo labels
    enlarge the training set, so extra labels don't buy extra compute.

    The step loop runs on the shared training engine, so
    ``config.train_workers`` applies here as it does to pre-training.
    """
    config = config or matcher.encoder.config
    if not train_examples:
        raise ValueError("cannot fine-tune without training examples")
    rng = spawn_rng(config.seed, "finetune")
    head_params = matcher.classifier.parameters()
    encoder_params = matcher.encoder.parameters()
    head_optimizer = AdamW(head_params, lr=HEAD_LR, weight_decay=0.0)
    encoder_optimizer = AdamW(encoder_params, lr=config.finetune_lr)
    steps_per_epoch = max(
        1, int(np.ceil(len(train_examples) / config.finetune_batch_size))
    )
    total_steps = (
        fixed_steps
        if fixed_steps is not None
        else steps_per_epoch * config.finetune_epochs
    )
    encoder_schedule = LinearWarmupDecay(
        encoder_optimizer, config.finetune_lr, total_steps
    )
    epochs_planned = max(1, int(np.ceil(total_steps / steps_per_epoch)))
    validate_every = max(1, epochs_planned // max(1, num_validations))

    program = FinetuneProgram(
        matcher, train_examples, valid_examples, config, rng, validate_every
    )
    trainer = Trainer(
        matcher,
        program,
        [head_optimizer, encoder_optimizer],
        schedules=[encoder_schedule],
        workers=config.train_workers,
    )
    trainer.fit(max_steps=total_steps)
    return program.result


def evaluate_f1(
    matcher: PairwiseMatcher,
    pairs: Sequence[Tuple[str, str]],
    labels: Sequence[int],
    batch_size: int = 32,
) -> dict:
    """Precision / recall / F1 of the matcher on labeled pairs."""
    predictions = matcher.predict(pairs, batch_size=batch_size)
    return f1_from_predictions(np.asarray(labels), predictions)


def f1_from_predictions(labels: np.ndarray, predictions: np.ndarray) -> dict:
    """Precision / recall / F1 from already-computed hard predictions."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    true_pos = int(((predictions == 1) & (labels == 1)).sum())
    false_pos = int(((predictions == 1) & (labels == 0)).sum())
    false_neg = int(((predictions == 0) & (labels == 1)).sum())
    precision = true_pos / (true_pos + false_pos) if true_pos + false_pos else 0.0
    recall = true_pos / (true_pos + false_neg) if true_pos + false_neg else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}
