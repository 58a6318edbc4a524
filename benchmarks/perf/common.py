"""Shared declarations of the perf benchmark: paths, the pinned child
environment, the metric declarations (read from ``BENCHMARK.json``, the
one place that names them) and the result of a measured phase."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Environment every workload subprocess runs under.  BLAS is pinned to
#: one thread because multi-threaded OpenBLAS on a shared 2-core box was
#: the dominant run-to-run noise (a 32 s EM sweep spread 31.9-42.9 s
#: unpinned, 30.1-31.7 s pinned); the hash seed is fixed so set/dict
#: iteration order cannot differ between two runs of one commit.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: workloads, metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(declared: List[Dict[str, object]]) -> Dict[str, str]:
    """Metric name -> unit of one ``BENCHMARK.json`` metric list."""
    return {str(metric["name"]): str(metric["unit"]) for metric in declared}


@dataclass
class Measured:
    """What one measured phase produced.

    ``operations`` over ``phase_s`` (wall seconds) is the throughput;
    ``latencies_s`` are the client-side wall times of the operations
    behind p50/p90; a refused or raising call counts in ``failed`` and
    contributes no latency.
    """

    operations: float
    phase_s: float
    latencies_s: Sequence[float]
    attempted: int
    failed: int
    op_counts: Dict[str, float] = field(default_factory=dict)


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """``q``-th percentile in milliseconds (0.0 of no samples: the run
    then reports every operation failed, see ``worker.py``)."""
    return float(np.percentile(seconds, q)) * 1e3 if len(seconds) else 0.0


def phase_metrics(measured: Measured) -> Dict[str, float]:
    """The three end-to-end metrics that come from the measured phase
    (``peak_rss_mb`` and ``setup_s`` come from the process)."""
    return {
        "throughput_per_s": ratio(measured.operations, measured.phase_s),
        "latency_p50_ms": percentile_ms(measured.latencies_s, 50),
        "latency_p90_ms": percentile_ms(measured.latencies_s, 90),
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_turn(number: int) -> bool:
    """Whether piece ``number`` of a traced run's work runs with tracing
    on: on, off, off, on, ... so every traced piece has an untraced
    neighbour and which of the two comes first alternates (a workload
    that slows as its state grows would otherwise bias the ratio)."""
    return number % 4 in (0, 3)


def paired_overhead(pairs: Sequence[Tuple[float, float]]) -> float:
    """Tracing overhead from (traced, untraced) costs of like work done
    next to each other in one process: median ratio - 1.  Pairing inside
    the process cancels the machine's speed, which on a shared box moves
    more between two runs than tracing costs."""
    ratios = [traced / untraced for traced, untraced in pairs if untraced > 0.0]
    return float(np.median(ratios)) - 1.0 if ratios else 0.0
