"""The paper's optimizer (AdamW) and learning-rate schedules.

Weight decay in :class:`AdamW` is decoupled, following Loshchilov & Hutter,
which matches the HuggingFace AdamW used by the original system.
:class:`Optimizer` and :class:`LRSchedule` are the base types trainer
checkpoints name.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from .module import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization (full-state checkpoint/resume support)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Optimizer state as ``{"values": {...}, "arrays": {...}}``.

        ``values`` holds JSON-serializable scalars, ``arrays`` holds the
        per-parameter moment buffers keyed by slot name and parameter
        index.  Restoring via :meth:`load_state_dict` into an optimizer
        built over the *same* parameter list reproduces the optimizer's
        future updates exactly — the invariant trainer checkpoint/resume
        relies on.
        """
        return {"values": {"lr": float(self.lr)}, "arrays": {}}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state produced by :meth:`state_dict` (same param list)."""
        self.lr = float(state["values"]["lr"])


class AdamW(Optimizer):
    """Adam with bias correction and decoupled weight decay (the paper's
    optimizer)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 5e-5,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        if self.weight_decay > 0:
            for param in self.params:
                if param.grad is not None and param.data.ndim > 1:
                    # Decay matrices only (skip biases / layernorm gains).
                    param.data -= self.lr * self.weight_decay * param.data
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * param.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * param.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _slots(self):
        return (("m", self._m), ("v", self._v))

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state["values"]["step_count"] = int(self._step_count)
        state["arrays"] = {
            f"{name}.{i}": buffer
            for name, buffers in self._slots()
            for i, buffer in enumerate(buffers)
        }
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._step_count = int(state["values"]["step_count"])
        arrays = state.get("arrays", {})
        for name, buffers in self._slots():
            for i, buffer in enumerate(buffers):
                key = f"{name}.{i}"
                if key not in arrays:
                    raise ValueError(
                        f"optimizer checkpoint missing buffer {key!r}"
                    )
                value = arrays[key]
                if value.shape != buffer.shape:
                    raise ValueError(
                        f"optimizer buffer {key!r} shape mismatch: "
                        f"saved {value.shape}, expected {buffer.shape}"
                    )
                buffer[...] = value


class LRSchedule:
    """Base learning-rate schedule driving an optimizer in place."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.step_count = 0

    def step(self) -> float:
        self.step_count += 1
        lr = self.compute_lr(self.step_count)
        self.optimizer.lr = lr
        return lr

    def compute_lr(self, step: int) -> float:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """Schedule position (the optimizer's lr is restored separately)."""
        return {"step_count": int(self.step_count)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.step_count = int(state["step_count"])


class LinearWarmupDecay(LRSchedule):
    """Linear warmup to ``peak_lr`` then linear decay to zero — the schedule
    HuggingFace uses for fine-tuning, reproduced for parity."""

    def __init__(
        self,
        optimizer: Optimizer,
        peak_lr: float,
        total_steps: int,
        warmup_fraction: float = 0.1,
    ) -> None:
        super().__init__(optimizer)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.peak_lr = peak_lr
        self.total_steps = total_steps
        self.warmup_steps = max(1, int(total_steps * warmup_fraction))

    def compute_lr(self, step: int) -> float:
        if step <= self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        remaining = max(0, self.total_steps - step)
        span = max(1, self.total_steps - self.warmup_steps)
        return self.peak_lr * remaining / span
