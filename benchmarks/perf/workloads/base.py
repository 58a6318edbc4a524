"""The interface the worker drives; set-up is the constructor."""

from __future__ import annotations

from typing import Dict, List

from repro.eval.perf import OpProfiler
from repro.serve.sharding import ShardedBackend

from ..common import Measured, ratio
from ..trace import Tracer

NN_OPS = ["matmul", "linear", "attention_scores", "bias_gelu", "softmax", "layer_norm", "embedding"]


def shim_backend_query(tracer: Tracer) -> None:
    """Time ``ShardedBackend.query`` (the class both the service and the
    lake index build) and count the query rows each call carries."""
    tracer.shim(
        ShardedBackend,
        "query",
        "serve.backend.query",
        lambda args, kwargs, result: tracer.count("serve.backend.query.rows", len(args[1])),
    )


def backend_query_metrics(tracer: Tracer) -> Dict[str, float]:
    calls = tracer.calls("serve.backend.query")
    return {
        "serve.backend.query.busy_s": tracer.busy("serve.backend.query"),
        "serve.backend.query.calls": float(calls),
        "serve.backend.query.rows_per_call": ratio(
            tracer.counts["serve.backend.query.rows"], calls
        ),
    }


def op_profile_metrics(profiler: OpProfiler) -> Dict[str, float]:
    """The ``nn.*`` layer metrics out of an ``OpProfiler``."""
    stats = profiler.stats
    metrics = {
        "nn.ops.busy_s": profiler.total_seconds,
        "nn.ops.calls": float(profiler.total_calls),
        "nn.ops.output_mb": sum(stat.bytes for stat in stats.values()) / 1e6,
    }
    for op in NN_OPS:
        metrics[f"nn.{op}.busy_s"] = stats[op].seconds if op in stats else 0.0
    return metrics


class Workload:
    operation = ""
    #: True where one thread does all the work, so an operation's child
    #: spans must account for (nearly) all of its time: the worker then
    #: holds ``trace.coverage_share`` to its floor.
    parts_sum_to_whole = False

    def __init__(self) -> None:
        #: Free-form values for the result file's header.
        self.notes: Dict[str, object] = {}

    def install_shims(self, tracer: Tracer) -> None:
        """Install the timing shims of a traced stretch."""

    def remove_shims(self) -> None:
        """Undo what ``install_shims`` did outside the tracer."""

    def trace_on(self, tracer: Tracer) -> None:
        if not tracer.enabled:
            tracer.enabled = True
            self.install_shims(tracer)

    def trace_off(self, tracer: Tracer) -> None:
        """Back to the program's own path: every shim restored."""
        if tracer.enabled:
            tracer.restore()
            self.remove_shims()
            tracer.enabled = False

    def failed_operation(self, error: Exception) -> None:
        """A refused or raising call is counted, not raised; the first
        one's message goes into the result header."""
        self.notes.setdefault("first_error", repr(error))

    def measure(self, seconds: float, tracer: Tracer, traced: bool) -> Measured:
        """The measured phase.  With ``traced`` the workload switches
        tracing on and off between like pieces of work, so that
        ``trace.overhead_share`` compares neighbours in one process."""
        raise NotImplementedError

    def check(
        self, measured: Measured, layer: Dict[str, float], break_oracle: bool = False
    ) -> List[str]:
        """Correctness failures, empty when the outputs are right.
        ``layer`` holds the traced run's per-layer values (empty on an
        untraced run); ``break_oracle`` corrupts the expectation on
        purpose, so the smoke test can see the command fail."""
        raise NotImplementedError

    def layer_metrics(self, measured: Measured, tracer: Tracer) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created outside the process."""


class OpProfiledWorkload(Workload):
    """A single-threaded workload whose traced stretches also run
    ``repro.eval.perf.OpProfiler`` (process-global, hence never on the
    threaded workloads).  Its stats add up over the stretches."""

    parts_sum_to_whole = True

    def __init__(self) -> None:
        super().__init__()
        self.profiler = OpProfiler()

    def install_shims(self, tracer: Tracer) -> None:
        self.profiler.__enter__()

    def remove_shims(self) -> None:
        self.profiler.__exit__(None, None, None)
