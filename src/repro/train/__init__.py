"""Unified training engine: one step-loop runtime for every training path.

Contrastive pre-training, MLM warm starting, and matcher fine-tuning all
used to carry hand-rolled epoch/step loops; they now run on one
:class:`Trainer` driving a task-specific :class:`StepProgram`.  The
engine owns optimizer/schedule stepping, full-state checkpoint/resume
(byte-identical continuation), a fingerprint-keyed :class:`TokenCache`,
and data-parallel gradient workers.  See ``docs/training.md``.
"""

from .checkpoint import (
    TRAINER_STATE_FILE,
    load_trainer_state,
    module_rng_states,
    restore_module_rng_states,
    save_trainer_state,
)
from .data import TokenCache, permutation_batches
from .engine import StepProgram, Trainer, TrainState
from .parallel import GradientWorkerPool, shard_bounds

__all__ = [
    "GradientWorkerPool",
    "StepProgram",
    "TRAINER_STATE_FILE",
    "TokenCache",
    "Trainer",
    "TrainState",
    "load_trainer_state",
    "module_rng_states",
    "permutation_batches",
    "restore_module_rng_states",
    "save_trainer_state",
    "shard_bounds",
]
