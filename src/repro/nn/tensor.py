"""A small, vectorized reverse-mode autodiff engine on top of numpy.

This module is the computational substrate standing in for PyTorch in the
Sudowoodo reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and
records the operations applied to it; calling :meth:`Tensor.backward` on a
scalar result propagates gradients to every tensor created with
``requires_grad=True``.

Design notes
------------
* Operations are *vectorized*: a single graph node covers a whole batch, so
  the Python-level graph stays tiny (a few hundred nodes for a full
  Transformer forward pass).
* Broadcasting follows numpy semantics; gradients are summed back over
  broadcast axes by :func:`_unbroadcast`.
* Hot composite operations (softmax, log-softmax, layer-norm, embedding
  lookup) are implemented as single primitives with hand-derived backward
  passes, which keeps both graph size and numerical error down.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

Arrayish = Union["Tensor", np.ndarray, float, int]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Default floating dtype for all tensors.  float32 halves both memory and
# CPU time vs float64 with no effect on training quality; tests that use
# finite-difference gradient checks switch to float64 via `autograd_dtype`.
_DEFAULT_DTYPE = np.float32


def get_default_dtype():
    """Return the dtype new tensors are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are created with (float32 or float64)."""
    global _DEFAULT_DTYPE
    if dtype not in (np.float32, np.float64):
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dtype


@contextmanager
def autograd_dtype(dtype) -> Iterator[None]:
    """Temporarily change the default tensor dtype (used by grad checks)."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


# Per-thread switch for graph construction.  Inside `no_grad()` no backward
# closures are created, which makes pure inference (e.g. encoding a corpus
# for blocking) allocation-free beyond the forward activations.
#
# The switch is thread-local (torch semantics): serving threads encode
# under `no_grad()` concurrently, and with one process-global flag two
# nested save/restore pairs racing across threads can restore a stale
# "previous" value and leave autograd off for the whole process.
class _GradMode(threading.local):
    def __init__(self) -> None:
        self.enabled = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable autograd graph construction (this thread) within the block."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


# Global switch for the fused composite kernels (`linear`, `bias_gelu`,
# `attention_scores`).  When off, the fused entry points fall back to the
# unfused op compositions — the reference implementations the equivalence
# tests (and the fused-vs-unfused benchmark) compare against.
_FUSED_KERNELS = True


def fused_kernels_enabled() -> bool:
    """Whether the fused composite kernels are active."""
    return _FUSED_KERNELS


def set_fused_kernels(enabled: bool) -> None:
    """Globally enable/disable the fused composite kernels."""
    global _FUSED_KERNELS
    _FUSED_KERNELS = bool(enabled)


@contextmanager
def fused_kernels(enabled: bool) -> Iterator[None]:
    """Temporarily toggle the fused kernels (equivalence tests, benchmarks)."""
    previous = _FUSED_KERNELS
    set_fused_kernels(enabled)
    try:
        yield
    finally:
        set_fused_kernels(previous)


class _ScratchPool(threading.local):
    """Per-thread reusable forward buffers for the ``no_grad`` encode path.

    Fused kernels ask the pool for *internal* temporaries (attention score
    matrices, layer-norm centering buffers) instead of allocating fresh
    arrays on every call.  The pool keeps ONE flat grow-only buffer per
    ``(dtype, slot)`` and hands out reshaped prefixes of it, so its
    footprint is bounded by the largest request per slot no matter how
    many distinct batch shapes the process encodes.  Buffers never escape
    the op that borrowed them, and the pool is thread-local, so reuse is
    safe even under concurrent serving traffic.
    """

    def __init__(self) -> None:
        self.buffers: dict = {}

    def take(self, shape: Tuple[int, ...], dtype, slot: int = 0) -> np.ndarray:
        """Borrow a ``shape``-shaped view of the ``(dtype, slot)`` buffer.

        Two takes on the same slot alias each other *whatever their
        shapes*: buffers an op holds simultaneously must use distinct
        slots.
        """
        key = (np.dtype(dtype), slot)
        size = math.prod(shape)
        buffer = self.buffers.get(key)
        if buffer is None or buffer.size < size:
            buffer = np.empty(size, dtype=dtype)
            self.buffers[key] = buffer
        return buffer[:size].reshape(shape)


_SCRATCH = _ScratchPool()


def _as_array(value: Arrayish, dtype=None) -> np.ndarray:
    """Coerce a scalar / ndarray / Tensor payload into a float ndarray."""
    if dtype is None:
        dtype = _DEFAULT_DTYPE
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were introduced or expanded by broadcasting
    so that the result has exactly ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that do not exist in the target shape.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where the target dimension is 1 but grad's is larger.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: Arrayish,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        dtype=None,
    ) -> None:
        # ``dtype`` overrides the ambient default — the way to build a
        # constant that matches an existing tensor's precision instead of
        # whatever ``autograd_dtype`` context happens to be active.
        self.data = _as_array(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward: Optional[Callable[[], None]] = None
        # A tensor that does not participate in a gradient computation must
        # not pin its inputs in memory (important under `no_grad`).
        self._parents = _parents if requires_grad else ()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph.

        The result aliases this tensor's buffer and keeps its dtype even
        when the current default dtype differs (constructing via
        ``Tensor(self.data)`` would silently re-coerce — and therefore
        copy — a float64 tensor under a float32 default).
        """
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        return out

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _init_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        # Copy-on-first-write: most nodes receive exactly one gradient, so a
        # single copy is cheaper than zero-fill + add.  The copy is required
        # because `grad` may alias another node's buffer (e.g. the pass-through
        # gradient of an addition).
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to 1.0, which requires ``self`` to be scalar.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        self._init_grad()
        self.grad += grad

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS topological sort (graphs can exceed recursion depth).
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None:
                node._backward()

        # The backward closures capture their output tensor, forming
        # reference cycles that would otherwise wait for the cyclic GC.
        # Break them eagerly so graph memory is reclaimed immediately.
        for node in topo:
            node._backward = None
            node._parents = ()

    @staticmethod
    def _needs_grad(*tensors: "Tensor") -> bool:
        return _GRAD_MODE.enabled and any(t.requires_grad or t._parents for t in tensors)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(
            self.data + other_t.data,
            requires_grad=self._needs_grad(self, other_t),
            _parents=(self, other_t),
        )

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other_t.requires_grad or other_t._parents:
                other_t._accumulate(_unbroadcast(out.grad, other_t.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other_t)

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(
            self.data * other_t.data,
            requires_grad=self._needs_grad(self, other_t),
            _parents=(self, other_t),
        )

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(out.grad * other_t.data, self.shape))
            if other_t.requires_grad or other_t._parents:
                other_t._accumulate(_unbroadcast(out.grad * self.data, other_t.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(
            self.data / other_t.data,
            requires_grad=self._needs_grad(self, other_t),
            _parents=(self, other_t),
        )

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(out.grad / other_t.data, self.shape))
            if other_t.requires_grad or other_t._parents:
                other_t._accumulate(
                    _unbroadcast(
                        -out.grad * self.data / (other_t.data**2), other_t.shape
                    )
                )

        if out.requires_grad:
            out._backward = _backward
        return out

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(
            self.data**exponent,
            requires_grad=self._needs_grad(self),
            _parents=(self,),
        )

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = Tensor(
            np.exp(self.data), requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            self._accumulate(out.grad * out.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(
            np.log(self.data), requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            self._accumulate(out.grad / self.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        out = Tensor(
            np.sqrt(self.data), requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            self._accumulate(out.grad * 0.5 / out.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = Tensor(
            np.abs(self.data), requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            self._accumulate(out.grad * np.sign(self.data))

        if out.requires_grad:
            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        out = Tensor(
            np.tanh(self.data), requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            self._accumulate(out.grad * (1.0 - out.data**2))

        if out.requires_grad:
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(value, requires_grad=self._needs_grad(self), _parents=(self,))

        def _backward() -> None:
            self._accumulate(out.grad * out.data * (1.0 - out.data))

        if out.requires_grad:
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor(
            np.maximum(self.data, 0.0),
            requires_grad=self._needs_grad(self),
            _parents=(self,),
        )

        def _backward() -> None:
            self._accumulate(out.grad * (self.data > 0.0))

        if out.requires_grad:
            out._backward = _backward
        return out

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT).

        The cube is computed as ``x * x * x``: ``np.power`` with an
        integer exponent takes a libm path that is ~70x slower and
        dominated the whole encode profile.
        """
        x = self.data
        inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
        tanh_inner = np.tanh(inner)
        out = Tensor(
            0.5 * x * (1.0 + tanh_inner),
            requires_grad=self._needs_grad(self),
            _parents=(self,),
        )

        def _backward() -> None:
            sech2 = 1.0 - tanh_inner * tanh_inner
            d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * (x * x))
            grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
            self._accumulate(out.grad * grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            requires_grad=self._needs_grad(self),
            _parents=(self,),
        )

        def _backward() -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                expand = [slice(None)] * self.ndim
                for ax in sorted(a % self.ndim for a in axes):
                    expand[ax] = np.newaxis
                grad = grad[tuple(expand)]
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        if out.requires_grad:
            out._backward = _backward
        return out

    def mean(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max along a single axis; gradient flows to the argmax positions."""
        indices = self.data.argmax(axis=axis)
        out_data = np.take_along_axis(
            self.data, np.expand_dims(indices, axis), axis=axis
        )
        if not keepdims:
            out_data = out_data.squeeze(axis)
        out = Tensor(out_data, requires_grad=self._needs_grad(self), _parents=(self,))

        def _backward() -> None:
            grad = out.grad if keepdims else np.expand_dims(out.grad, axis)
            full = np.zeros_like(self.data)
            np.put_along_axis(full, np.expand_dims(indices, axis), grad, axis=axis)
            self._accumulate(full)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(
            self.data.reshape(shape),
            requires_grad=self._needs_grad(self),
            _parents=(self,),
        )

        def _backward() -> None:
            self._accumulate(out.grad.reshape(self.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        out = Tensor(
            self.data.transpose(axes_tuple),
            requires_grad=self._needs_grad(self),
            _parents=(self,),
        )
        inverse = np.argsort(axes_tuple)

        def _backward() -> None:
            self._accumulate(out.grad.transpose(inverse))

        if out.requires_grad:
            out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(
            self.data[key], requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, out.grad)
            self._accumulate(full)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(
            np.matmul(self.data, other_t.data),
            requires_grad=self._needs_grad(self, other_t),
            _parents=(self, other_t),
        )

        def _backward() -> None:
            a, b = self.data, other_t.data
            if self.requires_grad or self._parents:
                if b.ndim == 1:
                    grad_a = np.multiply.outer(out.grad, b) if a.ndim > 1 else out.grad * b
                else:
                    grad_b_t = np.swapaxes(b, -1, -2)
                    grad_a = np.matmul(out.grad, grad_b_t) if a.ndim > 1 else np.matmul(
                        out.grad[..., np.newaxis, :], grad_b_t
                    ).squeeze(-2)
                self._accumulate(_unbroadcast(grad_a, a.shape))
            if other_t.requires_grad or other_t._parents:
                if a.ndim == 1:
                    grad_b = np.multiply.outer(a, out.grad)
                else:
                    a_t = np.swapaxes(a, -1, -2)
                    if b.ndim == 1:
                        grad_b = np.matmul(a_t, out.grad[..., np.newaxis]).squeeze(-1)
                        # Sum over any batch dimensions.
                        while grad_b.ndim > 1:
                            grad_b = grad_b.sum(axis=0)
                    else:
                        grad_b = np.matmul(a_t, out.grad)
                other_t._accumulate(_unbroadcast(grad_b, b.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Composite primitives with hand-written backward passes
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        value = exp / exp.sum(axis=axis, keepdims=True)
        out = Tensor(value, requires_grad=self._needs_grad(self), _parents=(self,))

        def _backward() -> None:
            dot = (out.grad * value).sum(axis=axis, keepdims=True)
            self._accumulate(value * (out.grad - dot))

        if out.requires_grad:
            out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        value = shifted - log_z
        out = Tensor(value, requires_grad=self._needs_grad(self), _parents=(self,))
        softmax = np.exp(value)

        def _backward() -> None:
            total = out.grad.sum(axis=axis, keepdims=True)
            self._accumulate(out.grad - softmax * total)

        if out.requires_grad:
            out._backward = _backward
        return out

    def layer_norm(
        self, weight: "Tensor", bias: "Tensor", eps: float = 1e-5
    ) -> "Tensor":
        """Layer normalization over the last axis with affine parameters."""
        if not _GRAD_MODE.enabled and _FUSED_KERNELS:
            # Inference fast path: centering/normalizing happens in one
            # pooled scratch buffer and the affine transform lands in the
            # output in place — same operations in the same order as the
            # training path (bit-identical), minus four temporaries.
            centered = _SCRATCH.take(self.shape, self.data.dtype)
            mu = self.data.mean(axis=-1, keepdims=True)
            np.subtract(self.data, mu, out=centered)
            squared = _SCRATCH.take(self.shape, self.data.dtype, slot=1)
            np.square(centered, out=squared)  # == centered**2 bit for bit
            var = squared.mean(axis=-1, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + eps)
            np.multiply(centered, inv_std, out=centered)
            value = centered * weight.data
            np.add(value, bias.data, out=value)
            return Tensor(value)
        mu = self.data.mean(axis=-1, keepdims=True)
        centered = self.data - mu
        var = (centered**2).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        normalized = centered * inv_std
        out = Tensor(
            normalized * weight.data + bias.data,
            requires_grad=self._needs_grad(self, weight, bias),
            _parents=(self, weight, bias),
        )

        def _backward() -> None:
            g = out.grad
            if weight.requires_grad or weight._parents:
                weight._accumulate(
                    _unbroadcast(g * normalized, weight.shape)
                )
            if bias.requires_grad or bias._parents:
                bias._accumulate(_unbroadcast(g, bias.shape))
            if self.requires_grad or self._parents:
                g_norm = g * weight.data
                mean_g = g_norm.mean(axis=-1, keepdims=True)
                mean_gx = (g_norm * normalized).mean(axis=-1, keepdims=True)
                self._accumulate(inv_std * (g_norm - mean_g - normalized * mean_gx))

        if out.requires_grad:
            out._backward = _backward
        return out

    def embedding(
        self, indices: np.ndarray, padding_idx: Optional[int] = None
    ) -> "Tensor":
        """Row lookup: ``self`` is a (V, D) table, ``indices`` int array.

        With ``padding_idx`` the gradient to that row is zeroed (torch
        parity): a pad embedding initialized to zero stays exactly zero
        through training instead of drifting with every batch.
        """
        idx = np.asarray(indices)
        out = Tensor(
            self.data[idx], requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx.reshape(-1), out.grad.reshape(-1, self.shape[-1]))
            if padding_idx is not None:
                full[padding_idx] = 0.0
            self._accumulate(full)

        if out.requires_grad:
            out._backward = _backward
        return out

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to ``self`` with ``value`` where mask is True."""
        mask_arr = np.asarray(mask, dtype=bool)
        data = np.where(mask_arr, value, self.data)
        out = Tensor(data, requires_grad=self._needs_grad(self), _parents=(self,))

        def _backward() -> None:
            self._accumulate(
                _unbroadcast(np.where(mask_arr, 0.0, out.grad), self.shape)
            )

        if out.requires_grad:
            out._backward = _backward
        return out

    def dropout(self, p: float, rng: np.random.Generator, training: bool) -> "Tensor":
        """Inverted dropout. Identity when not training or p == 0.

        One graph node with the mask in this tensor's dtype; the same
        ``rng.random(shape)`` draws, bit for bit, as the ``self *
        Tensor(mask)`` composition kept as the unfused reference.
        """
        if not training or p <= 0.0:
            return self
        keep = 1.0 - p
        kept = rng.random(self.shape) < keep
        if not _FUSED_KERNELS:
            return self * Tensor(kept / keep)
        mask = np.multiply(kept, 1.0 / keep, dtype=self.data.dtype)
        out = Tensor(
            self.data * mask, requires_grad=self._needs_grad(self), _parents=(self,)
        )

        def _backward() -> None:
            self._accumulate(out.grad * mask)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Norms and similarity helpers (similarity-search hot path)
    # ------------------------------------------------------------------
    def l2_normalize(self, axis: int = -1, eps: float = 1e-12) -> "Tensor":
        norm = (self * self).sum(axis=axis, keepdims=True).sqrt() + eps
        return self / norm


# ----------------------------------------------------------------------
# Fused composite kernels
# ----------------------------------------------------------------------
# Each of these replaces a composition of 2-4 Tensor ops with ONE graph
# node carrying a hand-derived backward pass.  The numpy operations run in
# exactly the same order as the unfused composition, so forward values and
# accumulated gradients are bit-identical — the invariant
# tests/nn/test_fused_kernels.py pins and the byte-identity training
# contracts in tests/train/ rely on.


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused affine transform ``x @ weight + bias`` as a single graph node.

    The unfused composition builds two nodes (matmul, broadcast add) and
    an intermediate activation; the fused kernel adds the bias in place on
    the freshly allocated matmul output and routes all three gradients
    from one closure.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if not _FUSED_KERNELS:
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out
    value = np.matmul(x.data, weight.data)
    if bias is not None:
        np.add(value, bias.data, out=value)
        parents: Tuple[Tensor, ...] = (x, weight, bias)
    else:
        parents = (x, weight)
    out = Tensor(value, requires_grad=Tensor._needs_grad(*parents), _parents=parents)

    def _backward() -> None:
        g = out.grad
        if x.requires_grad or x._parents:
            grad_x = np.matmul(g, np.swapaxes(weight.data, -1, -2))
            x._accumulate(_unbroadcast(grad_x, x.shape))
        if weight.requires_grad or weight._parents:
            if x.data.ndim == 1:
                grad_w = np.multiply.outer(x.data, g)
            else:
                grad_w = np.matmul(np.swapaxes(x.data, -1, -2), g)
            weight._accumulate(_unbroadcast(grad_w, weight.shape))
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(_unbroadcast(g, bias.shape))

    if out.requires_grad:
        out._backward = _backward
    return out


def bias_gelu(x: Tensor, bias: Tensor) -> Tensor:
    """Fused ``gelu(x + bias)`` (the FFN expansion's activation) as one node.

    Saves the broadcast-add node plus one full-width temporary per call;
    the backward pass reuses the forward's pre-activation and tanh buffers
    instead of recomputing them through two closures.
    """
    if not _FUSED_KERNELS:
        return (x + bias).gelu()
    if not _GRAD_MODE.enabled:
        # Inference: run the whole activation through one pooled scratch
        # buffer and finish in place on the pre-activation allocation.
        # Every step mirrors the expression below operation for operation
        # (scalar factors applied on the same side of each binary op is
        # exact for IEEE multiplies/adds), so values stay bit-identical.
        pre = x.data + bias.data
        scratch = _SCRATCH.take(pre.shape, pre.dtype)
        np.multiply(pre, pre, out=scratch)
        np.multiply(scratch, pre, out=scratch)  # pre * pre * pre
        scratch *= 0.044715
        scratch += pre
        scratch *= _SQRT_2_OVER_PI
        np.tanh(scratch, out=scratch)
        scratch += 1.0  # 1.0 + tanh_inner
        pre *= 0.5
        np.multiply(pre, scratch, out=pre)  # (0.5 * pre) * (1 + tanh)
        return Tensor(pre)
    pre = x.data + bias.data
    inner = _SQRT_2_OVER_PI * (pre + 0.044715 * (pre * pre * pre))
    tanh_inner = np.tanh(inner)
    out = Tensor(
        0.5 * pre * (1.0 + tanh_inner),
        requires_grad=Tensor._needs_grad(x, bias),
        _parents=(x, bias),
    )

    def _backward() -> None:
        sech2 = 1.0 - tanh_inner * tanh_inner
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * (pre * pre))
        local = 0.5 * (1.0 + tanh_inner) + 0.5 * pre * sech2 * d_inner
        g = out.grad * local
        if x.requires_grad or x._parents:
            x._accumulate(_unbroadcast(g, x.shape))
        if bias.requires_grad or bias._parents:
            bias._accumulate(_unbroadcast(g, bias.shape))

    if out.requires_grad:
        out._backward = _backward
    return out


def attention_scores(
    q: Tensor,
    k: Tensor,
    scale: float,
    blocking_mask: Optional[np.ndarray] = None,
    mask_value: float = -1e9,
) -> Tensor:
    """Fused ``softmax(mask(q @ k^T * scale))`` — the attention-score path.

    Collapses the four-node composition (matmul, scalar mul, masked_fill,
    softmax) that dominates the profiler's per-layer op counts into one
    node.  Under ``no_grad`` the whole (B, H, T, T) score matrix lives in
    a pooled scratch buffer: scaling, masking, the max-shift, and the
    exponential all happen in place, so inference allocates only the
    final weight matrix.
    """
    if not _FUSED_KERNELS:
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if blocking_mask is not None:
            scores = scores.masked_fill(blocking_mask, mask_value)
        return scores.softmax(axis=-1)
    k_t = np.swapaxes(k.data, -1, -2)
    if _GRAD_MODE.enabled:
        scores = np.matmul(q.data, k_t)
    else:
        shape = np.broadcast_shapes(q.shape[:-2], k.shape[:-2]) + (
            q.shape[-2],
            k.shape[-2],
        )
        scores = np.matmul(q.data, k_t, out=_SCRATCH.take(shape, q.data.dtype))
    scores *= scale
    if blocking_mask is not None:
        mask_arr = np.asarray(blocking_mask, dtype=bool)
        np.copyto(scores, mask_value, where=mask_arr)
    if _GRAD_MODE.enabled:
        scores -= scores.max(axis=-1, keepdims=True)
    else:
        # Row-max via one vectorized np.maximum per key column: exactly
        # the same result (max is associative and commutative), ~3x
        # faster than numpy's small-row axis reduction on this shape.
        flat = scores.reshape(-1, scores.shape[-1])
        row_max = _SCRATCH.take((flat.shape[0],), scores.dtype, slot=1)
        np.copyto(row_max, flat[:, 0])
        for column in range(1, flat.shape[1]):
            np.maximum(row_max, flat[:, column], out=row_max)
        scores -= row_max.reshape(scores.shape[:-1] + (1,))
    np.exp(scores, out=scores)
    value = scores / scores.sum(axis=-1, keepdims=True)
    out = Tensor(value, requires_grad=Tensor._needs_grad(q, k), _parents=(q, k))

    def _backward() -> None:
        g = out.grad
        dot = (g * value).sum(axis=-1, keepdims=True)
        d_scores = value * (g - dot)
        if blocking_mask is not None:
            d_scores = np.where(mask_arr, 0.0, d_scores)
        d_scores *= scale
        if q.requires_grad or q._parents:
            q._accumulate(_unbroadcast(np.matmul(d_scores, k.data), q.shape))
        if k.requires_grad or k._parents:
            grad_k_t = np.matmul(np.swapaxes(q.data, -1, -2), d_scores)
            k._accumulate(_unbroadcast(np.swapaxes(grad_k_t, -1, -2), k.shape))

    if out.requires_grad:
        out._backward = _backward
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    needs = Tensor._needs_grad(*tensors)
    out = Tensor(
        data,
        requires_grad=needs,
        _parents=tuple(tensors) if needs else (),
    )
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward() -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad or tensor._parents:
                index = [slice(None)] * out.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(out.grad[tuple(index)])

    if out.requires_grad:
        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    needs = Tensor._needs_grad(*tensors)
    out = Tensor(
        data,
        requires_grad=needs,
        _parents=tuple(tensors) if needs else (),
    )

    def _backward() -> None:
        grads = np.split(out.grad, len(tensors), axis=axis)
        for tensor, grad in zip(tensors, grads):
            if tensor.requires_grad or tensor._parents:
                tensor._accumulate(grad.squeeze(axis))

    if out.requires_grad:
        out._backward = _backward
    return out


def numerical_gradient(
    func: Callable[[Tensor], Tensor], tensor: Tensor, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function, used in tests."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = func(tensor).item()
        flat[i] = original - eps
        lower = func(tensor).item()
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * eps)
    return grad
