"""The step-loop runtime every Sudowoodo training path runs on.

One :class:`Trainer` owns the epoch/step loop for contrastive
pre-training, MLM warm starting, and matcher fine-tuning alike; the
task-specific parts (how batches are drawn, prepared, and turned into a
loss) live in a :class:`StepProgram` adapter.  The engine contributes the
cross-cutting machinery exactly once:

* optimizer + LR-schedule stepping, one optimizer step per batch;
* full-state checkpoint/resume — model weights, optimizer moments, and
  RNG stream states, so a resumed run reproduces the uninterrupted run's
  weights byte-identically;
* data-parallel gradient workers
  (:class:`repro.train.parallel.GradientWorkerPool`).

Batches are prepared inline, in order, on the training thread: a
program's ``prepare(batch)`` for step ``i + 1`` runs after
``on_batch_end`` of step ``i``, so preparation may observe per-step
feedback (the adaptive DA-operator scheduler does).

Equivalence contract: with one worker the engine executes the exact
operation sequence of the pre-engine hand-rolled loops — existing seeded
tests pass unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.module import Module
from ..nn.optim import LRSchedule, Optimizer
from ..utils import RngStream
from .checkpoint import (
    TRAINER_STATE_FILE,
    load_trainer_state,
    module_rng_states,
    restore_module_rng_states,
    save_trainer_state,
)
from .parallel import GradientWorkerPool

PathLike = Union[str, Path]


@dataclass
class TrainState:
    """Progress counters the engine owns (and checkpoints)."""

    #: Completed epochs.
    epoch: int = 0
    #: Optimizer steps taken.
    step: int = 0
    #: Mean loss per completed epoch (NaN for empty epochs).
    epoch_losses: List[float] = field(default_factory=list)
    #: Why the loop ended (None while running).
    stop_reason: Optional[str] = None

    def values(self) -> Dict[str, Any]:
        """JSON-serializable snapshot for checkpoints."""
        return {
            "epoch": self.epoch,
            "step": self.step,
            "epoch_losses": list(self.epoch_losses),
            "stop_reason": self.stop_reason,
        }

    def restore(self, values: Dict[str, Any]) -> None:
        """Restore a :meth:`values` snapshot in place."""
        self.epoch = int(values.get("epoch", 0))
        self.step = int(values.get("step", 0))
        self.epoch_losses = [float(x) for x in values.get("epoch_losses", [])]
        self.stop_reason = values.get("stop_reason")


class StepProgram:
    """Task adapter the :class:`Trainer` drives.

    Subclasses define how an epoch's batches are drawn, how a batch is
    prepared (tokenization, augmentation, masking), and how a prepared
    batch becomes a loss tensor on a given model (the main model in
    serial mode, a replica inside a gradient worker).
    """

    def epoch_batches(self, epoch: int) -> Sequence[Any]:
        """Draw the epoch's batch descriptors (may consume RNG)."""
        raise NotImplementedError

    def prepare(self, batch: Any) -> Optional[Any]:
        """Turn a batch descriptor into step inputs; None skips the batch."""
        return batch

    def loss(self, model: Module, prepared: Any) -> Any:
        """Forward pass returning the loss :class:`~repro.nn.Tensor`."""
        raise NotImplementedError

    def shard(
        self, prepared: Any, num_shards: int
    ) -> Optional[List[Tuple[Any, int]]]:
        """Split a prepared batch into ``(shard, num_items)`` pieces for
        the gradient workers; None falls back to the serial step."""
        return None

    def on_batch_end(self, prepared: Any, loss: float) -> None:
        """Per-step feedback hook (runs on the main thread, in order)."""

    def on_epoch_end(
        self, trainer: "Trainer", epoch: int, epoch_loss: float, is_last: bool
    ) -> None:
        """Epoch-boundary hook (validation, model selection, ...)."""

    def on_fit_end(self, trainer: "Trainer") -> None:
        """Final hook before the engine switches the model to eval."""

    # -- checkpoint participation --------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable program state for checkpoints."""
        return {}

    def load_state_dict(self, values: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output."""


class Trainer:
    """Step-based training engine over a model + :class:`StepProgram`.

    Parameters
    ----------
    model:
        The module being trained (the engine toggles train/eval mode and
        checkpoints its weights and internal RNG states).
    program:
        The task adapter supplying batches and the loss.
    optimizers:
        One or more optimizers over disjoint parameter groups; all are
        zeroed before each batch and stepped together after it.
    schedules:
        LR schedules stepped (in order) before the optimizers each step.
    workers:
        Data-parallel gradient workers; 1 is the serial (byte-identical)
        loop (``config.train_workers`` on the training paths).
    rngs:
        The run's :class:`~repro.utils.RngStream`, checkpointed so a
        resume continues every named stream mid-sequence.
    checkpoint_dir:
        When set, the full training state is written to
        ``checkpoint_dir / TRAINER_STATE_FILE`` after every epoch.
    """

    def __init__(
        self,
        model: Module,
        program: StepProgram,
        optimizers: Union[Optimizer, Sequence[Optimizer]],
        schedules: Sequence[LRSchedule] = (),
        workers: int = 1,
        rngs: Optional[RngStream] = None,
        checkpoint_dir: Optional[PathLike] = None,
    ) -> None:
        self.model = model
        self.program = program
        self.optimizers: List[Optimizer] = (
            [optimizers] if isinstance(optimizers, Optimizer) else list(optimizers)
        )
        if not self.optimizers:
            raise ValueError("Trainer needs at least one optimizer")
        if workers < 1:
            raise ValueError("train_workers must be >= 1")
        self.schedules: List[LRSchedule] = list(schedules)
        self.workers = workers
        self.rngs = rngs
        self.state = TrainState()
        self.checkpoint_path: Optional[Path] = (
            None
            if checkpoint_dir is None
            else Path(checkpoint_dir) / TRAINER_STATE_FILE
        )
        self._pool: Optional[GradientWorkerPool] = None
        self._restored_replica_rngs: Optional[List[Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_state(self, path: PathLike) -> None:
        """Write the full training state (see ``train.checkpoint``)."""
        save_trainer_state(
            path,
            model=self.model,
            optimizers=self.optimizers,
            schedules=self.schedules,
            state_values=self.state.values(),
            rngs=self.rngs,
            program_values=self.program.state_dict(),
            # Worker replicas carry their own dropout generators, which
            # advance across epochs; capture them so a multi-worker resume
            # replays the identical noise streams.
            metadata=(
                {
                    "replica_rngs": [
                        module_rng_states(replica)
                        for replica in self._pool.replicas
                    ]
                }
                if self._pool is not None
                else None
            ),
        )

    def load_state(self, path: PathLike) -> None:
        """Restore a :meth:`save_state` archive into this trainer."""
        restored = load_trainer_state(
            path,
            model=self.model,
            optimizers=self.optimizers,
            schedules=self.schedules,
            rngs=self.rngs,
        )
        self.state.restore(restored["state"])
        self.program.load_state_dict(restored["program"])
        # Replica RNG states apply once the worker pool exists (in fit);
        # a run resumed with a different worker count starts the replicas
        # fresh instead of misassigning snapshots.
        self._restored_replica_rngs = restored["metadata"].get("replica_rngs")

    def try_resume(self) -> bool:
        """Restore the checkpoint under ``checkpoint_dir`` when present.

        Returns whether a checkpoint was restored.  A missing file means
        a fresh start; a *corrupt* file raises ``ValueError`` (silently
        restarting an interrupted run would discard paid-for epochs).
        """
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return False
        self.load_state(self.checkpoint_path)
        return True

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def fit(
        self,
        max_epochs: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> TrainState:
        """Run the step loop until an epoch or step limit.

        ``max_epochs`` counts *total* completed epochs (a resumed trainer
        continues from ``state.epoch``); ``max_steps`` caps optimizer
        steps, matching the fixed-step budget of matcher fine-tuning.
        """
        if max_epochs is None and max_steps is None:
            raise ValueError("fit needs max_epochs and/or max_steps")
        self.model.train()
        if self.workers > 1 and self._pool is None:
            self._pool = GradientWorkerPool(self.model, self.workers)
            if self._restored_replica_rngs is not None and len(
                self._restored_replica_rngs
            ) == len(self._pool.replicas):
                for replica, states in zip(
                    self._pool.replicas, self._restored_replica_rngs
                ):
                    restore_module_rng_states(replica, states)
        self._restored_replica_rngs = None
        try:
            while not self._done(max_epochs, max_steps):
                epoch = self.state.epoch
                losses: List[float] = []
                for batch in self.program.epoch_batches(epoch):
                    prepared = self.program.prepare(batch)
                    if prepared is None:
                        continue
                    for optimizer in self.optimizers:
                        optimizer.zero_grad()
                    loss_value = self._backward(prepared)
                    losses.append(loss_value)
                    for schedule in self.schedules:
                        schedule.step()
                    for optimizer in self.optimizers:
                        optimizer.step()
                    self.state.step += 1
                    self.program.on_batch_end(prepared, loss_value)
                    if max_steps is not None and self.state.step >= max_steps:
                        break
                epoch_loss = float(np.mean(losses)) if losses else float("nan")
                self.state.epoch_losses.append(epoch_loss)
                self.state.epoch += 1
                is_last = self._done(max_epochs, max_steps)
                self.program.on_epoch_end(self, epoch, epoch_loss, is_last)
                # After the program hook, so the archive holds this
                # epoch's validation / model-selection state too.
                if self.checkpoint_path is not None:
                    self.save_state(self.checkpoint_path)
            self.state.stop_reason = (
                "max_steps"
                if max_steps is not None and self.state.step >= max_steps
                else "max_epochs"
            )
            self.program.on_fit_end(self)
        finally:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
        self.model.eval()
        return self.state

    def _done(
        self, max_epochs: Optional[int], max_steps: Optional[int]
    ) -> bool:
        if max_epochs is not None and self.state.epoch >= max_epochs:
            return True
        return max_steps is not None and self.state.step >= max_steps

    def _backward(self, prepared: Any) -> float:
        """Forward/backward for one batch; returns the loss value."""
        if self._pool is not None:
            shards = self.program.shard(prepared, self.workers)
            if shards and len(shards) >= 2:
                return self._pool.run_step(self.program.loss, shards)
        loss = self.program.loss(self.model, prepared)
        loss.backward()
        return float(loss.item())
