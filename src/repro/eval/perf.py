"""Op-level performance profiler for the Tensor engine.

The companion to :mod:`repro.eval.profiling` (which profiles *dataset
difficulty*, not runtime): this module answers "where do the encode
milliseconds go" at the granularity of individual Tensor primitives.

:class:`OpProfiler` is an **opt-in** hook — entering the context manager
installs it with :func:`repro.nn.tensor.set_op_hook`, so every entry of
the engine's primitive table (:data:`repro.nn.tensor.PRIMITIVES`) runs
through it; exiting removes it, so the hot path pays one ``None`` check
while no profiler is active.  Each primitive records call count, wall
seconds, and bytes allocated for its outputs, under its table name.

:func:`profile_encode` packages the common question — what dominates one
`embed_items` pass over a corpus — into a single call returning an
:class:`EncodeProfile` with a formatted per-op table.  The hook is
process-global, so it records every thread's calls: profile on a quiet
service, not under concurrent traffic.

>>> profile = profile_encode(encoder, corpus)
>>> print(profile.table())            # per-op calls / ms / MB, sorted
>>> profile.texts_per_second
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..nn import tensor as tensor_ops


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

    Profilers do not stack: an inner one takes over the hook until it
    exits, and the outer one records nothing meanwhile.

    >>> with OpProfiler() as prof:
    ...     encoder.embed_items(corpus)
    >>> prof.stats["matmul"].calls
    """

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        self._previous_hook = None

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
        """Wall seconds spent inside primitives."""
        return sum(stat.seconds for stat in self.stats.values())

    # -- the hook -------------------------------------------------------
    def _time(self, name: str, run, *args):
        start = time.perf_counter()
        out = run(*args)
        self.record(name, time.perf_counter() - start, out.data.nbytes)
        return out

    def __enter__(self) -> "OpProfiler":
        self._previous_hook = tensor_ops.set_op_hook(self._time)
        return self

    def __exit__(self, *exc_info) -> None:
        tensor_ops.set_op_hook(self._previous_hook)
        self._previous_hook = None

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
