"""A small, vectorized reverse-mode autodiff engine on top of numpy.

This module is the computational substrate standing in for PyTorch in the
Sudowoodo reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and
records the operations applied to it; calling :meth:`Tensor.backward` on a
scalar result propagates gradients to every tensor created with
``requires_grad=True``.

Design notes
------------
* Every graph-building operation is one entry of :data:`PRIMITIVES`: a
  name, a forward on ndarrays and one vector-Jacobian product (VJP) per
  tensor input (the shape of HIPS autograd's ``defvjp``).  ``Tensor``
  methods and the module-level kernels only coerce their arguments and
  call :func:`_apply`, the one place a result is boxed and, when a
  gradient is traced, a graph node recorded.  Compositions (``__sub__``,
  ``mean``, ``l2_normalize``, ...) are plain Python over primitives.
* :func:`set_op_hook` installs one process-wide callable that
  :func:`_apply` runs each primitive call through; the op profiler
  (:class:`repro.eval.perf.OpProfiler`) is that hook.
* Operations are *vectorized*: a single graph node covers a whole batch, so
  the Python-level graph stays tiny (a few hundred nodes for a full
  Transformer forward pass).
* Broadcasting follows numpy semantics; gradients are summed back over
  broadcast axes by :func:`_unbroadcast`.
* Hot composite operations (softmax, log-softmax, layer-norm, embedding
  lookup, the fused kernels) are single primitives with hand-derived
  VJPs, which keeps both graph size and numerical error down.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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


def _as_tensor(value: Arrayish) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


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
        return Tensor(self.data, dtype=self.data.dtype)

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

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        return _apply("add", (self, _as_tensor(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Arrayish) -> "Tensor":
        return self + (-_as_tensor(other))

    def __mul__(self, other: Arrayish) -> "Tensor":
        return _apply("mul", (self, _as_tensor(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        return _apply("div", (self, _as_tensor(other)))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return _apply("pow", (self,), exponent)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def sqrt(self) -> "Tensor":
        return _apply("sqrt", (self,))

    def abs(self) -> "Tensor":
        return _apply("abs", (self,))

    def relu(self) -> "Tensor":
        return _apply("relu", (self,))

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT)."""
        return _apply("gelu", (self,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        return _apply("sum", (self,), axis, keepdims)

    def mean(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply("reshape", (self,), shape)

    def transpose(self, *axes: int) -> "Tensor":
        return _apply("transpose", (self,), axes or tuple(reversed(range(self.ndim))))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        return _apply("getitem", (self,), key)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        return _apply("matmul", (self, _as_tensor(other)))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Composite primitives with hand-written backward passes
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        return _apply("softmax", (self,), axis)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return _apply("log_softmax", (self,), axis)

    def layer_norm(
        self, weight: "Tensor", bias: "Tensor", eps: float = 1e-5
    ) -> "Tensor":
        """Layer normalization over the last axis with affine parameters."""
        return _apply("layer_norm", (self, weight, bias), eps)

    def embedding(
        self, indices: np.ndarray, padding_idx: Optional[int] = None
    ) -> "Tensor":
        """Row lookup: ``self`` is a (V, D) table, ``indices`` int array.

        With ``padding_idx`` the gradient to that row is zeroed (torch
        parity): a pad embedding initialized to zero stays exactly zero
        through training instead of drifting with every batch.
        """
        return _apply("embedding", (self,), indices, padding_idx)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to ``self`` with ``value`` where mask is True."""
        return _apply("masked_fill", (self,), mask, value)

    def dropout(self, p: float, rng: np.random.Generator, training: bool) -> "Tensor":
        """Inverted dropout. Identity when not training or p == 0.

        One graph node with the mask in this tensor's dtype; the same
        ``rng.random(shape)`` draws, bit for bit, as the ``self *
        Tensor(mask)`` composition (the reference the kernel-equivalence
        tests in tests/nn/ keep).
        """
        if not training or p <= 0.0:
            return self
        return _apply("dropout", (self,), p, rng)

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
# accumulated gradients are bit-identical — the invariant the
# kernel-equivalence tests in tests/nn/ pin (their reference compositions
# live there) and the byte-identity training contracts in tests/train/
# rely on.


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused affine transform ``x @ weight + bias`` as a single graph node.

    The unfused composition builds two nodes (matmul, broadcast add) and
    an intermediate activation; the fused kernel adds the bias in place on
    the freshly allocated matmul output and routes all three gradients
    from one node.
    """
    x = _as_tensor(x)
    return _apply("linear", (x, weight) if bias is None else (x, weight, bias))


def bias_gelu(x: Tensor, bias: Tensor) -> Tensor:
    """Fused ``gelu(x + bias)`` (the FFN expansion's activation) as one node.

    Saves the broadcast-add node plus one full-width temporary per call;
    the backward pass reuses the forward's pre-activation and tanh buffers
    instead of recomputing them through two closures.
    """
    return _apply("bias_gelu", (x, bias))


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
    return _apply("attention_scores", (q, k), scale, blocking_mask, mask_value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    return _apply("concat", tuple(tensors), axis)


# ----------------------------------------------------------------------
# The primitive table
# ----------------------------------------------------------------------
class Primitive(NamedTuple):
    """One graph-building operation: a forward on ndarrays plus its VJPs.

    ``forward(*arrays, *params)`` takes the tensor inputs' arrays followed
    by the call's non-tensor parameters and returns ``(value, saved)``:
    the output array and whatever intermediates the backward pass reuses.
    ``vjps[i](g, saved, *arrays, *params)`` is the gradient of input ``i``
    given the output gradient ``g``, already summed to that input's shape.
    ``shared(g, saved, *arrays, *params)``, when set, is backward work
    every VJP of one node needs: it maps ``g`` once, before the VJPs run.
    """

    forward: Callable[..., Tuple[np.ndarray, Any]]
    vjps: Sequence[Callable[..., np.ndarray]]
    shared: Optional[Callable[..., np.ndarray]] = None


#: Every primitive by name — the names the op profiler reports.
PRIMITIVES: Dict[str, Primitive] = {}

# The hook `_apply` runs each primitive call through (see `set_op_hook`).
_OP_HOOK = None


OpHook = Callable[..., Tensor]


def set_op_hook(hook: Optional[OpHook]) -> Optional[OpHook]:
    """Install ``hook`` around every primitive call; return the previous one.

    Each call becomes ``hook(name, run, *run_args)``, and the hook must
    return ``run(*run_args)``: the output tensor.  ``None`` removes it.
    The hook is process-wide, so it sees every thread's calls.
    """
    global _OP_HOOK
    previous, _OP_HOOK = _OP_HOOK, hook
    return previous


def _apply(name: str, inputs: Tuple[Tensor, ...], *params: Any) -> Tensor:
    """Run primitive ``name`` on ``inputs`` (through the hook, if set)."""
    if _OP_HOOK is not None:
        return _OP_HOOK(name, _record, PRIMITIVES[name], inputs, params)
    return _record(PRIMITIVES[name], inputs, params)


def _record(prim: Primitive, inputs: Tuple[Tensor, ...], params: Tuple) -> Tensor:
    """Call the forward, box its value and, while a gradient is traced,
    record the graph node: the parents and a backward that accumulates
    each parent's VJP, in parent order, into every parent that needs one."""
    args = (*[t.data for t in inputs], *params)
    value, saved = prim.forward(*args)
    if not (_GRAD_MODE.enabled and any(t.requires_grad or t._parents for t in inputs)):
        return Tensor(value)
    out = Tensor(value, requires_grad=True, _parents=inputs)

    def _backward() -> None:
        g = out.grad
        if prim.shared is not None:
            g = prim.shared(g, saved, *args)
        for parent, vjp in zip(inputs, prim.vjps):
            if parent.requires_grad or parent._parents:
                parent._accumulate(vjp(g, saved, *args))

    out._backward = _backward
    return out


def _primitive(name: str, forward: Callable, *vjps: Callable, shared=None) -> None:
    PRIMITIVES[name] = Primitive(forward, vjps, shared)


# -- elementwise arithmetic --------------------------------------------
_primitive(
    "add",
    lambda a, b: (a + b, None),
    lambda g, _, a, b: _unbroadcast(g, a.shape),
    lambda g, _, a, b: _unbroadcast(g, b.shape),
)
_primitive(
    "mul",
    lambda a, b: (a * b, None),
    lambda g, _, a, b: _unbroadcast(g * b, a.shape),
    lambda g, _, a, b: _unbroadcast(g * a, b.shape),
)
_primitive(
    "div",
    lambda a, b: (a / b, None),
    lambda g, _, a, b: _unbroadcast(g / b, a.shape),
    lambda g, _, a, b: _unbroadcast(-g * a / (b**2), b.shape),
)
_primitive(
    "pow",
    lambda a, exponent: (a**exponent, None),
    lambda g, _, a, exponent: g * exponent * a ** (exponent - 1),
)


# -- unary math ----------------------------------------------------------
def _sqrt_forward(a):
    value = np.sqrt(a)
    return value, value


def _gelu_forward(x):
    # The cube is computed as ``x * x * x``: ``np.power`` with an integer
    # exponent takes a libm path that is ~70x slower and dominated the
    # whole encode profile.
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    tanh_inner = np.tanh(inner)
    return 0.5 * x * (1.0 + tanh_inner), tanh_inner


def _gelu_vjp(g, tanh_inner, x):
    sech2 = 1.0 - tanh_inner * tanh_inner
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * (x * x))
    return g * (0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner)


_primitive("sqrt", _sqrt_forward, lambda g, value, a: g * 0.5 / value)
_primitive("abs", lambda a: (np.abs(a), None), lambda g, _, a: g * np.sign(a))
_primitive(
    "relu", lambda a: (np.maximum(a, 0.0), None), lambda g, _, a: g * (a > 0.0)
)
_primitive("gelu", _gelu_forward, _gelu_vjp)


# -- reductions and shape --------------------------------------------------
def _sum_vjp(g, _, a, axis, keepdims):
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else axis
        expand = [slice(None)] * a.ndim
        for ax in sorted(ax % a.ndim for ax in axes):
            expand[ax] = np.newaxis
        g = g[tuple(expand)]
    return np.broadcast_to(g, a.shape).copy()


def _getitem_vjp(g, _, a, key):
    full = np.zeros_like(a)
    np.add.at(full, key, g)
    return full


_primitive(
    "sum",
    lambda a, axis, keepdims: (a.sum(axis=axis, keepdims=keepdims), None),
    _sum_vjp,
)
_primitive(
    "reshape",
    lambda a, shape: (a.reshape(shape), None),
    lambda g, _, a, shape: g.reshape(a.shape),
)
_primitive(
    "transpose",
    lambda a, axes: (a.transpose(axes), None),
    lambda g, _, a, axes: g.transpose(np.argsort(axes)),
)
_primitive("getitem", lambda a, key: (a[key], None), _getitem_vjp)


# -- linear algebra --------------------------------------------------------
def _matmul_vjp_a(g, _, a, b):
    if b.ndim == 1:
        grad_a = np.multiply.outer(g, b) if a.ndim > 1 else g * b
    else:
        grad_b_t = np.swapaxes(b, -1, -2)
        grad_a = np.matmul(g, grad_b_t) if a.ndim > 1 else np.matmul(
            g[..., np.newaxis, :], grad_b_t
        ).squeeze(-2)
    return _unbroadcast(grad_a, a.shape)


def _matmul_vjp_b(g, _, a, b):
    if a.ndim == 1:
        grad_b = np.multiply.outer(a, g)
    else:
        a_t = np.swapaxes(a, -1, -2)
        if b.ndim == 1:
            grad_b = np.matmul(a_t, g[..., np.newaxis]).squeeze(-1)
            # Sum over any batch dimensions.
            while grad_b.ndim > 1:
                grad_b = grad_b.sum(axis=0)
        else:
            grad_b = np.matmul(a_t, g)
    return _unbroadcast(grad_b, b.shape)


_primitive("matmul", lambda a, b: (np.matmul(a, b), None), _matmul_vjp_a, _matmul_vjp_b)


# -- composite primitives ----------------------------------------------------
def _softmax_forward(a, axis):
    shifted = a - a.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=axis, keepdims=True)
    return value, value


def _softmax_vjp(g, value, a, axis):
    dot = (g * value).sum(axis=axis, keepdims=True)
    return value * (g - dot)


def _log_softmax_forward(a, axis):
    shifted = a - a.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_z
    return value, np.exp(value)


def _log_softmax_vjp(g, softmax, a, axis):
    total = g.sum(axis=axis, keepdims=True)
    return g - softmax * total


def _layer_norm_forward(x, weight, bias, eps):
    if not _GRAD_MODE.enabled:
        # Inference fast path: centering/normalizing happens in one
        # pooled scratch buffer and the affine transform lands in the
        # output in place — same operations in the same order as the
        # training path (bit-identical), minus four temporaries.
        centered = _SCRATCH.take(x.shape, x.dtype)
        mu = x.mean(axis=-1, keepdims=True)
        np.subtract(x, mu, out=centered)
        squared = _SCRATCH.take(x.shape, x.dtype, slot=1)
        np.square(centered, out=squared)  # == centered**2 bit for bit
        var = squared.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        np.multiply(centered, inv_std, out=centered)
        value = centered * weight
        np.add(value, bias, out=value)
        return value, None
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv_std
    return normalized * weight + bias, (normalized, inv_std)


def _layer_norm_vjp_x(g, saved, x, weight, bias, eps):
    normalized, inv_std = saved
    g_norm = g * weight
    mean_g = g_norm.mean(axis=-1, keepdims=True)
    mean_gx = (g_norm * normalized).mean(axis=-1, keepdims=True)
    return inv_std * (g_norm - mean_g - normalized * mean_gx)


def _embedding_forward(table, indices, padding_idx):
    idx = np.asarray(indices)
    return table[idx], idx


def _embedding_vjp(g, idx, table, indices, padding_idx):
    full = np.zeros_like(table)
    np.add.at(full, idx.reshape(-1), g.reshape(-1, table.shape[-1]))
    if padding_idx is not None:
        full[padding_idx] = 0.0
    return full


def _masked_fill_forward(a, mask, value):
    mask_arr = np.asarray(mask, dtype=bool)
    return np.where(mask_arr, value, a), mask_arr


def _dropout_forward(a, p, rng):
    keep = 1.0 - p
    kept = rng.random(a.shape) < keep
    mask = np.multiply(kept, 1.0 / keep, dtype=a.dtype)
    return a * mask, mask


_primitive("softmax", _softmax_forward, _softmax_vjp)
_primitive("log_softmax", _log_softmax_forward, _log_softmax_vjp)
_primitive(
    "layer_norm",
    _layer_norm_forward,
    _layer_norm_vjp_x,
    lambda g, saved, x, weight, bias, eps: _unbroadcast(g * saved[0], weight.shape),
    lambda g, saved, x, weight, bias, eps: _unbroadcast(g, bias.shape),
)
_primitive("embedding", _embedding_forward, _embedding_vjp)
_primitive(
    "masked_fill",
    _masked_fill_forward,
    lambda g, mask_arr, a, *params: _unbroadcast(np.where(mask_arr, 0.0, g), a.shape),
)
_primitive("dropout", _dropout_forward, lambda g, mask, a, p, rng: g * mask)


# -- fused kernels -----------------------------------------------------------
def _linear_forward(x, weight, bias=None):
    value = np.matmul(x, weight)
    if bias is not None:
        np.add(value, bias, out=value)
    return value, None


def _linear_vjp_x(g, _, x, weight, bias=None):
    return _unbroadcast(np.matmul(g, np.swapaxes(weight, -1, -2)), x.shape)


def _linear_vjp_weight(g, _, x, weight, bias=None):
    if x.ndim == 1:
        grad_w = np.multiply.outer(x, g)
    else:
        grad_w = np.matmul(np.swapaxes(x, -1, -2), g)
    return _unbroadcast(grad_w, weight.shape)


def _bias_gelu_forward(x, bias):
    pre = x + bias
    if not _GRAD_MODE.enabled:
        # Inference: run the whole activation through one pooled scratch
        # buffer and finish in place on the pre-activation allocation.
        # Every step mirrors the expression below operation for operation
        # (scalar factors applied on the same side of each binary op is
        # exact for IEEE multiplies/adds), so values stay bit-identical.
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
        return pre, None
    inner = _SQRT_2_OVER_PI * (pre + 0.044715 * (pre * pre * pre))
    tanh_inner = np.tanh(inner)
    return 0.5 * pre * (1.0 + tanh_inner), (pre, tanh_inner)


def _bias_gelu_shared(g, saved, x, bias):
    pre, tanh_inner = saved
    sech2 = 1.0 - tanh_inner * tanh_inner
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * (pre * pre))
    local = 0.5 * (1.0 + tanh_inner) + 0.5 * pre * sech2 * d_inner
    return g * local


def _attention_scores_forward(q, k, scale, blocking_mask, mask_value):
    k_t = np.swapaxes(k, -1, -2)
    if _GRAD_MODE.enabled:
        scores = np.matmul(q, k_t)
    else:
        shape = np.broadcast_shapes(q.shape[:-2], k.shape[:-2]) + (
            q.shape[-2],
            k.shape[-2],
        )
        scores = np.matmul(q, k_t, out=_SCRATCH.take(shape, q.dtype))
    scores *= scale
    mask_arr = None
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
    return value, (value, mask_arr)


def _attention_scores_shared(g, saved, q, k, scale, blocking_mask, mask_value):
    value, mask_arr = saved
    dot = (g * value).sum(axis=-1, keepdims=True)
    d_scores = value * (g - dot)
    if mask_arr is not None:
        d_scores = np.where(mask_arr, 0.0, d_scores)
    d_scores *= scale
    return d_scores


def _attention_scores_vjp_k(d_scores, _, q, k, *params):
    grad_k_t = np.matmul(np.swapaxes(q, -1, -2), d_scores)
    return _unbroadcast(np.swapaxes(grad_k_t, -1, -2), k.shape)


_primitive(
    "linear",
    _linear_forward,
    _linear_vjp_x,
    _linear_vjp_weight,
    lambda g, _, x, weight, bias: _unbroadcast(g, bias.shape),
)
_primitive(
    "bias_gelu",
    _bias_gelu_forward,
    lambda g, _, x, bias: _unbroadcast(g, x.shape),
    lambda g, _, x, bias: _unbroadcast(g, bias.shape),
    shared=_bias_gelu_shared,
)
_primitive(
    "attention_scores",
    _attention_scores_forward,
    lambda d_scores, _, q, k, *params: _unbroadcast(np.matmul(d_scores, k), q.shape),
    _attention_scores_vjp_k,
    shared=_attention_scores_shared,
)


# -- concat: the one primitive with any number of tensor inputs ---------------
def _concat_forward(*args):
    *arrays, axis = args
    offsets = np.cumsum([0] + [a.shape[axis] for a in arrays])
    return np.concatenate(arrays, axis=axis), offsets


def _concat_vjp(i, g, offsets, *args):
    index = [slice(None)] * g.ndim
    index[args[-1]] = slice(offsets[i], offsets[i + 1])
    return g[tuple(index)]


class _PerInput:
    """The VJPs of a variadic primitive: the ``i``-th is ``vjp`` bound to
    ``i``.  Indexable without end, so ``zip(inputs, vjps)`` pairs each of
    any number of inputs with its own VJP."""

    def __init__(self, vjp: Callable[..., np.ndarray]) -> None:
        self.vjp = vjp

    def __getitem__(self, i: int) -> Callable[..., np.ndarray]:
        return functools.partial(self.vjp, i)


PRIMITIVES["concat"] = Primitive(_concat_forward, _PerInput(_concat_vjp))


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
