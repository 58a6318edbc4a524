"""Module base class: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a module."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural network modules.

    Submodules and parameters assigned as attributes are discovered
    automatically, mirroring the familiar ``torch.nn.Module`` contract:

    * :meth:`parameters` yields every trainable :class:`Parameter`;
    * :meth:`state_dict` / :meth:`load_state_dict` (de)serialize weights by
      dotted path;
    * :meth:`train` / :meth:`eval` toggle behaviours such as dropout.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, element in enumerate(value):
                    if isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{path}.{i}.")
                    elif isinstance(element, Parameter):
                        yield f"{path}.{i}", element

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for element in value:
                    if isinstance(element, Module):
                        yield from element.modules()

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = state[name]
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: saved {value.shape}, "
                    f"expected {param.shape}"
                )
            param.data = np.array(value, dtype=param.data.dtype)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
