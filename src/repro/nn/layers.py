"""Core neural network layers: Linear, Embedding, LayerNorm, Dropout, MLP."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import init
from . import tensor as _tensor_ops
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine transform ``y = x W + b`` over the last axis.

    Runs through the fused :func:`repro.nn.tensor.linear` kernel (one
    graph node instead of matmul + broadcast add).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return _tensor_ops.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        padding_idx: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        table = init.normal((num_embeddings, embedding_dim), rng)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table)

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight.embedding(
            np.asarray(indices, dtype=np.int64), padding_idx=self.padding_idx
        )


class LayerNorm(Module):
    """Layer normalization over the last axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout driven by an explicit, seedable generator.

    Active only in train mode *and* while gradients are traced: under the
    thread-local :func:`~repro.nn.no_grad` it is the identity, so
    inference never has to flip the shared module mode.
    """

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        active = self.training and _tensor_ops._GRAD_MODE.enabled
        return x.dropout(self.p, self.rng, active)


class MLP(Module):
    """A feed-forward block: Linear -> activation -> (dropout) -> Linear."""

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: str = "gelu",
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(in_features, hidden_features, rng)
        self.fc2 = Linear(hidden_features, out_features, rng)
        self.activation = activation
        self.drop = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        if self.activation == "gelu":
            # Fused expansion: matmul then one bias+gelu node (the
            # composition the op profiler shows dominating the FFN).
            hidden = _tensor_ops.bias_gelu(x @ self.fc1.weight, self.fc1.bias)
        elif self.activation == "relu":
            hidden = self.fc1(x).relu()
        else:
            raise ValueError(f"unknown activation: {self.activation}")
        if self.drop is not None:
            hidden = self.drop(hidden)
        return self.fc2(hidden)
