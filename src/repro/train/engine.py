"""The step-loop runtime every Sudowoodo training path runs on.

One :class:`Trainer` owns the epoch/step loop for contrastive
pre-training, MLM warm starting, and matcher fine-tuning alike; the
task-specific parts (how batches are drawn, prepared, and turned into a
loss) live in a :class:`StepProgram` adapter.  The engine contributes the
cross-cutting machinery exactly once:

* optimizer + LR-schedule stepping, gradient accumulation and clipping;
* a callback protocol (loss trace, early stopping, periodic checkpoints);
* full-state checkpoint/resume — model weights, optimizer moments, and
  RNG stream states, so a resumed run reproduces the uninterrupted run's
  weights byte-identically;
* data-parallel gradient workers
  (:class:`repro.train.parallel.GradientWorkerPool`).

Batches are prepared inline, in order, on the training thread: a
program's ``prepare(batch)`` for step ``i + 1`` runs after
``on_batch_end`` of step ``i``, so preparation may observe per-step
feedback (the adaptive DA-operator scheduler does).

Equivalence contract: with ``TrainConfig()`` defaults (one worker, no
accumulation, no clipping) the engine executes the exact operation
sequence of the pre-engine hand-rolled loops — existing seeded tests pass
unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.module import Module
from ..nn.optim import LRSchedule, Optimizer
from ..utils import RngStream
from .callbacks import Callback, Checkpointer, EarlyStopping
from .checkpoint import (
    load_trainer_state,
    module_rng_states,
    restore_module_rng_states,
    save_trainer_state,
)
from .parallel import GradientWorkerPool

PathLike = Union[str, Path]


@dataclass
class TrainConfig:
    """Engine knobs shared by every training path.

    Field names are flat (``train_``-prefixed where ambiguous) because
    they are also fields of :class:`~repro.core.config.SudowoodoConfig`,
    whose ``train`` property builds this object.  The defaults reproduce
    the pre-engine loops exactly; every speed/robustness feature is
    opt-in.
    """

    #: Data-parallel gradient workers; 1 = the serial (byte-identical) loop.
    train_workers: int = 1
    #: Micro-batches whose gradients accumulate into one optimizer step.
    grad_accum_steps: int = 1
    #: Global L2 gradient-norm clip per optimizer (None = off, the
    #: pre-engine behaviour).
    grad_clip: Optional[float] = None
    #: Stop after this many epochs without loss improvement (None = off).
    early_stop_patience: Optional[int] = None
    #: Checkpoint cadence in epochs (active only with a checkpoint dir).
    checkpoint_every: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range engine knobs."""
        if self.train_workers < 1:
            raise ValueError("train_workers must be >= 1")
        if self.grad_accum_steps < 1:
            raise ValueError("grad_accum_steps must be >= 1")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive or None")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 or None")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


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

    def array_state(self) -> Dict[str, np.ndarray]:
        """Array-valued program state (e.g. best-validation weights)."""
        return {}

    def load_array_state(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`array_state` output."""


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
        zeroed before each accumulation group and stepped together.
    schedules:
        LR schedules stepped (in order) before the optimizers each step.
    config:
        Engine knobs; defaults reproduce the pre-engine serial loops.
    rngs:
        The run's :class:`~repro.utils.RngStream`, checkpointed so a
        resume continues every named stream mid-sequence.
    callbacks:
        Extra observers; early-stop / checkpoint callbacks implied by
        ``config`` and ``checkpoint_dir`` are appended automatically.
    checkpoint_dir:
        Directory for periodic full-state checkpoints (None = off).
    """

    def __init__(
        self,
        model: Module,
        program: StepProgram,
        optimizers: Union[Optimizer, Sequence[Optimizer]],
        schedules: Sequence[LRSchedule] = (),
        config: Optional[TrainConfig] = None,
        rngs: Optional[RngStream] = None,
        callbacks: Sequence[Callback] = (),
        checkpoint_dir: Optional[PathLike] = None,
    ) -> None:
        self.model = model
        self.program = program
        self.optimizers: List[Optimizer] = (
            [optimizers] if isinstance(optimizers, Optimizer) else list(optimizers)
        )
        if not self.optimizers:
            raise ValueError("Trainer needs at least one optimizer")
        self.schedules: List[LRSchedule] = list(schedules)
        self.config = config or TrainConfig()
        self.config.validate()
        self.rngs = rngs
        self.state = TrainState()
        self.callbacks: List[Callback] = list(callbacks)
        if self.config.early_stop_patience is not None:
            self.callbacks.append(EarlyStopping(self.config.early_stop_patience))
        self.checkpoint_path: Optional[Path] = None
        if checkpoint_dir is not None:
            checkpointer = Checkpointer(
                checkpoint_dir, every=self.config.checkpoint_every
            )
            self.checkpoint_path = checkpointer.path
            self.callbacks.append(checkpointer)
        self._stop_requested = False
        self._pool: Optional[GradientWorkerPool] = None
        self._restored_replica_rngs: Optional[List[Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def request_stop(self, reason: str) -> None:
        """End training at the next epoch boundary (callback-safe)."""
        self._stop_requested = True
        if self.state.stop_reason is None:
            self.state.stop_reason = reason

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
            program_arrays=self.program.array_state(),
            callback_values=[
                callback.state_dict() for callback in self.callbacks
            ],
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
        if restored["program_arrays"]:
            self.program.load_array_state(restored["program_arrays"])
        # Callback state (e.g. early-stop counters) restores positionally;
        # a config change that alters the callback list falls back to
        # fresh callback state rather than misassigning snapshots.
        callback_values = restored.get("callbacks", [])
        if len(callback_values) == len(self.callbacks):
            for callback, values in zip(self.callbacks, callback_values):
                callback.load_state_dict(values)
        # Replica RNG states apply once the worker pool exists (in fit);
        # a run resumed with a different worker count starts the replicas
        # fresh instead of misassigning snapshots.
        self._restored_replica_rngs = restored.get("metadata", {}).get(
            "replica_rngs"
        )

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
        """Run the step loop until an epoch/step limit or requested stop.

        ``max_epochs`` counts *total* completed epochs (a resumed trainer
        continues from ``state.epoch``); ``max_steps`` caps optimizer
        steps, matching the fixed-step budget of matcher fine-tuning.
        """
        if max_epochs is None and max_steps is None:
            raise ValueError("fit needs max_epochs and/or max_steps")
        self.model.train()
        use_workers = self.config.train_workers > 1
        if use_workers and self._pool is None:
            self._pool = GradientWorkerPool(self.model, self.config.train_workers)
            if self._restored_replica_rngs is not None and len(
                self._restored_replica_rngs
            ) == len(self._pool.replicas):
                for replica, states in zip(
                    self._pool.replicas, self._restored_replica_rngs
                ):
                    restore_module_rng_states(replica, states)
        self._restored_replica_rngs = None
        for callback in self.callbacks:
            callback.on_fit_begin(self, self.state)
        try:
            while not self._done(max_epochs, max_steps):
                epoch = self.state.epoch
                batches = self.program.epoch_batches(epoch)
                losses: List[float] = []
                pending = 0  # micro-batches since the last optimizer step
                for batch in batches:
                    prepared = self.program.prepare(batch)
                    if prepared is None:
                        continue
                    if pending == 0:
                        for optimizer in self.optimizers:
                            optimizer.zero_grad()
                    loss_value = self._backward(prepared)
                    pending += 1
                    losses.append(loss_value)
                    if pending >= self.config.grad_accum_steps:
                        self._optimizer_step(loss_value)
                        pending = 0
                    self.program.on_batch_end(prepared, loss_value)
                    if max_steps is not None and self.state.step >= max_steps:
                        break
                if pending:
                    # Flush a trailing partial accumulation group.  Micro
                    # losses were scaled by 1/grad_accum_steps, so rescale
                    # the accumulated gradient to a true group mean.
                    if pending < self.config.grad_accum_steps:
                        rescale = self.config.grad_accum_steps / pending
                        for optimizer in self.optimizers:
                            for param in optimizer.params:
                                if param.grad is not None:
                                    param.grad *= rescale
                    self._optimizer_step(losses[-1])
                epoch_loss = float(np.mean(losses)) if losses else float("nan")
                self.state.epoch_losses.append(epoch_loss)
                self.state.epoch += 1
                # Ordering at the epoch boundary: stop-deciding callbacks
                # (early stopping) run before the program hook so
                # `is_last` already reflects their verdict and a finetune
                # program still gets its final validation pass on the
                # stopping epoch; checkpointers run last so the archive
                # snapshots the program state *including* this epoch's
                # validation/model-selection results.
                for callback in self.callbacks:
                    if not isinstance(callback, Checkpointer):
                        callback.on_epoch_end(self, self.state, epoch, epoch_loss)
                is_last = self._done(max_epochs, max_steps)
                self.program.on_epoch_end(self, epoch, epoch_loss, is_last)
                for callback in self.callbacks:
                    if isinstance(callback, Checkpointer):
                        callback.on_epoch_end(self, self.state, epoch, epoch_loss)
            if self.state.stop_reason is None:
                self.state.stop_reason = (
                    "max_steps"
                    if max_steps is not None and self.state.step >= max_steps
                    else "max_epochs"
                )
            self.program.on_fit_end(self)
            for callback in self.callbacks:
                callback.on_fit_end(self, self.state)
        finally:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
        self.model.eval()
        return self.state

    def _done(
        self, max_epochs: Optional[int], max_steps: Optional[int]
    ) -> bool:
        if self._stop_requested:
            return True
        if max_epochs is not None and self.state.epoch >= max_epochs:
            return True
        if max_steps is not None and self.state.step >= max_steps:
            return True
        return False

    # ------------------------------------------------------------------
    # One step
    # ------------------------------------------------------------------
    def _backward(self, prepared: Any) -> float:
        """Forward/backward for one micro-batch; returns the loss value."""
        scale = 1.0 / self.config.grad_accum_steps
        if self._pool is not None:
            shards = self.program.shard(prepared, self.config.train_workers)
            if shards and len(shards) >= 2:
                return self._pool.run_step(
                    lambda model, shard: self.program.loss(model, shard)
                    * scale,
                    shards,
                ) / scale
        loss = self.program.loss(self.model, prepared)
        if scale != 1.0:
            (loss * scale).backward()
        else:
            loss.backward()
        return float(loss.item())

    def _optimizer_step(self, loss_value: float) -> None:
        for schedule in self.schedules:
            schedule.step()
        if self.config.grad_clip is not None:
            for optimizer in self.optimizers:
                optimizer.clip_grad_norm(self.config.grad_clip)
        for optimizer in self.optimizers:
            optimizer.step()
        self.state.step += 1
        for callback in self.callbacks:
            callback.on_step(self, self.state, loss_value)
