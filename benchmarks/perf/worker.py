"""One workload, once, in this process: set up, measure, check, report.

Started by ``run.py`` as ``python -m perf.worker`` under the pinned
environment.  Prints a single JSON document on its last stdout line and
exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from typing import Dict, List

import numpy as np

from . import workloads
from .common import OUT_DIR, PINNED_ENV, load_spec, phase_metrics, units
from .trace import Tracer

#: What a traced run must show (ISSUE 13's acceptance criteria): tracing
#: costs at most this share of the untraced time, and where one thread
#: does the work the child spans account for at least this share of it.
OVERHEAD_CEILING = 0.15
COVERAGE_FLOOR = 0.90


def _header(args: argparse.Namespace) -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": args.git_sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "loadavg_start": os.getloadavg(),
    }


def trace_failures(workload, layer: Dict[str, float], smoke: bool) -> List[str]:
    failures = []
    # A smoke run's stretches are too short for the ratio to mean much.
    if not smoke and layer["trace.overhead_share"] > OVERHEAD_CEILING:
        failures.append(
            f"trace.overhead_share {layer['trace.overhead_share']:.3f} > {OVERHEAD_CEILING}"
        )
    if workload.parts_sum_to_whole and layer["trace.coverage_share"] < COVERAGE_FLOOR:
        failures.append(
            f"trace.coverage_share {layer['trace.coverage_share']:.3f} < {COVERAGE_FLOOR}"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--break-oracle", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--git-sha", default="unknown")
    args = parser.parse_args()

    header = _header(args)
    spec = load_spec()
    tracer = Tracer()
    workload = workloads.load(args.workload)(args.seed, args.smoke)
    try:
        # Collect what set-up left behind, then freeze the survivors so
        # the collector (left on) does not rescan them while measuring.
        gc.collect()
        gc.freeze()
        # Process start (as the runner's clock read it) -> first measured
        # operation: interpreter, NumPy, ``import repro`` and set-up.
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        with tracer.installed():
            try:
                measured = workload.measure(args.seconds, tracer, traced=bool(args.trace))
            finally:
                workload.trace_off(tracer)
        # Before the checks: their oracles allocate, the program did not.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layer: Dict[str, float] = {}
        if measured.failed == measured.attempted:
            failures = [f"no operation succeeded ({measured.failed} attempted and failed)"]
        else:
            if args.trace:
                layer = workload.layer_metrics(measured, tracer)
            failures = workload.check(measured, layer, break_oracle=args.break_oracle)
            if args.trace:
                failures += trace_failures(workload, layer, args.smoke)
    finally:
        workload.close()

    values = dict(phase_metrics(measured), peak_rss_mb=peak_rss_mb, setup_s=setup_s)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units(spec["end_to_end"]).items()
    }
    # A layer metric the workload does not exercise reads 0.
    layers = {
        name: {"value": float(layer.get(name, 0.0)), "unit": unit}
        for name, unit in units(spec["per_layer"]).items()
    }
    header.update(
        loadavg_end=os.getloadavg(),
        operation=workload.operation,
        op_counts=measured.op_counts,
        notes=workload.notes,
        measured_s=measured.phase_s,
        latency_samples=len(measured.latencies_s),
        # How late the measured phase started relative to process start.
        measured_started_after_s=setup_s,
    )
    if args.trace:
        tracer.write(OUT_DIR / f"{args.workload}.trace.json", header)
    print(
        json.dumps(
            {
                "header": header,
                "correct": not failures,
                "failures": failures,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": metrics,
                "layers": layers,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
