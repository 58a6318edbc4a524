"""Op-level performance profiler for the Tensor engine.

The companion to :mod:`repro.eval.profiling` (which profiles *dataset
difficulty*, not runtime): this module answers "where do the encode
milliseconds go" at the granularity of individual Tensor primitives.

:class:`OpProfiler` is an **opt-in** hook — entering the context manager
wraps the Tensor engine's primitive operations (methods on
:class:`~repro.nn.tensor.Tensor` plus the fused module-level kernels)
with timing shims; exiting restores the originals, so the hot path pays
zero overhead while no profiler is active.  Each primitive records call
count, wall seconds, and bytes allocated for its outputs.

:func:`profile_encode` packages the common question — what dominates one
`embed_items` pass over a corpus — into a single call returning an
:class:`EncodeProfile` with a formatted per-op table.  Patching swaps
class/module attributes, so profiling is process-global: profile on a
quiet service, not under concurrent traffic.

>>> profile = profile_encode(encoder, corpus)
>>> print(profile.table())            # per-op calls / ms / MB, sorted
>>> profile.texts_per_second
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..nn import tensor as tensor_ops
from ..nn.tensor import Tensor

#: Tensor methods wrapped by the profiler, mapped to their report names.
#: Only *primitives* appear here — compositions (``__sub__``, ``mean``,
#: ``l2_normalize``) route through these and would double-count.
TENSOR_METHODS: Dict[str, str] = {
    "__add__": "add",
    "__radd__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__pow__": "pow",
    "matmul": "matmul",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "abs": "abs",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "gelu": "gelu",
    "sum": "sum",
    "max": "max",
    "reshape": "reshape",
    "transpose": "transpose",
    "__getitem__": "getitem",
    "softmax": "softmax",
    "log_softmax": "log_softmax",
    "layer_norm": "layer_norm",
    "embedding": "embedding",
    "masked_fill": "masked_fill",
    "dropout": "dropout",
}

#: Module-level functions in ``repro.nn.tensor`` wrapped by the profiler
#: (the fused kernels plus the concatenation helpers).
MODULE_FUNCTIONS: List[str] = [
    "linear",
    "bias_gelu",
    "attention_scores",
    "concat",
    "stack",
]


@dataclass
class OpStat:
    """Aggregated counters for one primitive operation."""

    calls: int = 0
    seconds: float = 0.0
    bytes: int = 0

    def merge(self, seconds: float, nbytes: int) -> None:
        """Fold one call's wall time and output bytes into the stat."""
        self.calls += 1
        self.seconds += seconds
        self.bytes += nbytes


class OpProfiler:
    """Context manager timing every Tensor primitive while active.

    >>> with OpProfiler() as prof:
    ...     encoder.embed_items(corpus)
    >>> prof.stats["matmul"].calls
    """

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        self._saved_methods: Dict[str, object] = {}
        self._saved_functions: Dict[str, object] = {}

    # -- recording ------------------------------------------------------
    def record(self, name: str, seconds: float, nbytes: int) -> None:
        """Fold one timed call into the per-op aggregate."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = OpStat()
        stat.merge(seconds, nbytes)

    @property
    def total_calls(self) -> int:
        """Primitive invocations observed while active."""
        return sum(stat.calls for stat in self.stats.values())

    @property
    def total_seconds(self) -> float:
        """Wall seconds spent inside primitives (nesting not deduped)."""
        return sum(stat.seconds for stat in self.stats.values())

    # -- patching -------------------------------------------------------
    def _wrap(self, func, name: str):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = func(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if args and out is args[0]:
                return out  # identity (dropout off): nothing computed, no row
            nbytes = out.data.nbytes if isinstance(out, Tensor) else 0
            self.record(name, elapsed, nbytes)
            return out

        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def __enter__(self) -> "OpProfiler":
        for method, name in TENSOR_METHODS.items():
            original = getattr(Tensor, method)
            self._saved_methods[method] = original
            setattr(Tensor, method, self._wrap(original, name))
        for function in MODULE_FUNCTIONS:
            original = getattr(tensor_ops, function)
            self._saved_functions[function] = original
            setattr(tensor_ops, function, self._wrap(original, function))
        return self

    def __exit__(self, *exc_info) -> None:
        for method, original in self._saved_methods.items():
            setattr(Tensor, method, original)
        for function, original in self._saved_functions.items():
            setattr(tensor_ops, function, original)
        self._saved_methods.clear()
        self._saved_functions.clear()

    # -- reporting ------------------------------------------------------
    def table(self, limit: Optional[int] = None) -> str:
        """Per-op report sorted by total time (descending)."""
        rows = sorted(
            self.stats.items(), key=lambda item: item[1].seconds, reverse=True
        )
        if limit is not None:
            rows = rows[:limit]
        total = self.total_seconds or 1.0
        lines = [
            f"{'op':<18} {'calls':>8} {'total_ms':>10} {'%':>6} {'alloc_MB':>9}"
        ]
        for name, stat in rows:
            lines.append(
                f"{name:<18} {stat.calls:>8} {stat.seconds * 1e3:>10.2f} "
                f"{100.0 * stat.seconds / total:>6.1f} "
                f"{stat.bytes / 1e6:>9.2f}"
            )
        return "\n".join(lines)

    def publish(self, metrics, prefix: str = "ops") -> None:
        """Mirror the aggregates into a
        :class:`~repro.serve.metrics.MetricsRegistry` (counters
        ``<prefix>.<op>.calls`` / ``.bytes``, histogram ``.seconds``)."""
        for name, stat in self.stats.items():
            metrics.counter(f"{prefix}.{name}.calls").increment(stat.calls)
            metrics.counter(f"{prefix}.{name}.bytes").increment(stat.bytes)
            if stat.calls:
                metrics.histogram(f"{prefix}.{name}.seconds").record(
                    stat.seconds / stat.calls
                )


@dataclass
class EncodeProfile:
    """The result of :func:`profile_encode`: per-op stats plus wall time."""

    stats: Dict[str, OpStat]
    wall_seconds: float
    num_texts: int
    op_seconds: float = 0.0
    op_calls: int = 0
    _table: str = field(default="", repr=False)

    @property
    def texts_per_second(self) -> float:
        """End-to-end encode throughput during the profiled pass."""
        return self.num_texts / self.wall_seconds if self.wall_seconds else 0.0

    def table(self) -> str:
        """The per-op report captured at profile time."""
        return self._table


def profile_encode(
    encoder,
    texts: Sequence[str],
    batch_size: int = 64,
    use_token_cache: bool = True,
) -> EncodeProfile:
    """Profile one ``embed_items`` pass over ``texts`` op by op.

    Returns an :class:`EncodeProfile`; ``print(profile.table())`` shows
    which primitives dominate (the report that motivated the fused
    ``linear`` / ``bias_gelu`` / ``attention_scores`` kernels).
    """
    profiler = OpProfiler()
    start = time.perf_counter()
    with profiler:
        encoder.embed_items(
            texts, batch_size=batch_size, use_token_cache=use_token_cache
        )
    wall = time.perf_counter() - start
    return EncodeProfile(
        stats=profiler.stats,
        wall_seconds=wall,
        num_texts=len(texts),
        op_seconds=profiler.total_seconds,
        op_calls=profiler.total_calls,
        _table=profiler.table(),
    )
