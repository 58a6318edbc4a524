#!/usr/bin/env python3
"""The repo benchmark: four workloads, five end-to-end metrics, and a
traced run per layer.  See README.md in this directory.

    python3 benchmarks/perf/run.py                      # everything
    python3 benchmarks/perf/run.py --smoke              # ~1/20 size
    python3 benchmarks/perf/run.py --workload serve_hot --seed 3 \\
        --seconds 20 --trace 0                          # one measured run

Each workload runs in a fresh subprocess under a pinned environment (see
``common.PINNED_ENV``).  With ``--trace 0`` a run is the workload measured
with tracing off; with ``--trace 1`` it is the traced run, which switches
tracing on and off between like pieces of work to measure its own
overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
# Import as the package ``perf`` so this directory's ``trace.py`` never
# shadows the standard library's ``trace`` for anything else.
sys.path[0] = str(HERE.parent)

from perf.common import OUT_DIR, PINNED_ENV, ROOT, load_spec  # noqa: E402

SMOKE_SECONDS = 1.0
#: ``setup_s`` is the median over this many set-ups, the measuring
#: process's and ``SETUP_RUNS - 1`` processes that only set up: one
#: set-up of 1-4 s spread up to 25 % run to run on the box this was
#: built on, and the benchmark's contract asks for several per run.
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


class Runner:
    def __init__(self, args: argparse.Namespace, default_seconds: float) -> None:
        self.args = args
        self.seconds = args.seconds or (SMOKE_SECONDS if args.smoke else default_seconds)
        self.git_sha = _git_sha()
        self.results_dir = Path(args.out) if args.out else OUT_DIR / "results"

    def child(self, workload: str, trace: int, setup_only: bool = False) -> Dict[str, object]:
        """Run one worker subprocess to completion; its JSON document."""
        command = [
            sys.executable, "-m", "perf.worker",
            "--workload", workload,
            "--seed", str(self.args.seed),
            "--seconds", repr(self.seconds),
            "--trace", str(trace),
            "--git-sha", self.git_sha,
            "--spawned-at", repr(time.time()),
        ]  # fmt: skip
        command += ["--smoke"] if self.args.smoke else []
        command += ["--setup-only"] if setup_only else []
        command += ["--break-oracle"] if self.args.break_oracle else []
        environment = dict(os.environ, **PINNED_ENV)
        environment["PYTHONPATH"] = os.pathsep.join([str(HERE.parent), str(ROOT / "src")])
        done = subprocess.run(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )  # fmt: skip
        lines = done.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(
                f"{workload}: worker exited {done.returncode} without a result"
            ) from None

    def run(self, workload: str, trace: int) -> Dict[str, object]:
        setups = []
        if not trace and not self.args.smoke:
            setups = [
                float(self.child(workload, 0, setup_only=True)["setup_s"])
                for _ in range(SETUP_RUNS - 1)
            ]
        result = self.child(workload, trace)
        if trace:
            result["metrics"] = result.pop("layers")
        else:
            del result["layers"]
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
            result["header"]["setup_samples_s"] = setups
        result["comparable"] = not self.args.smoke
        self.results_dir.mkdir(parents=True, exist_ok=True)
        name = f"{workload}.seed{self.args.seed}.trace{trace}.json"
        (self.results_dir / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
        return result


def report(workload: str, result: Dict[str, object]) -> None:
    """Every metric by name with its unit, one per line."""
    header = result["header"]
    note = "" if result["comparable"] else "  [smoke: not comparable]"
    print(
        f"== {workload}  seed={header['seed']} trace={int(header['trace'])} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"measured={header['measured_s']:.2f}s ops={header['op_counts']}{note}"
    )
    for name, metric in result["metrics"].items():
        print(f"{workload:<13} {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"{workload:<13} CHECK FAILED: {failure}")


def final_line(result: Dict[str, object]) -> str:
    keys = ["correct", "attempted", "failed", "metrics"]
    if not result["comparable"]:
        keys.append("comparable")
    return json.dumps({key: result[key] for key in keys})


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured phase length")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, choices=[0, 1],
        help="0: end-to-end metrics, 1: per-layer metrics (default: both, in turn)",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="~1/20 size, not comparable")
    parser.add_argument("--out", help="directory for result files (default: out/results)")
    parser.add_argument(
        "--break-oracle", action="store_true",
        help="corrupt the correctness oracle on purpose (the command must then fail)",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    runner = Runner(args, float(spec["run_seconds"]))
    correct = True
    for workload in [args.workload] if args.workload else workloads:
        for trace in [args.trace] if args.trace is not None else [0, 1]:
            result = runner.run(workload, trace)
            report(workload, result)
            print(final_line(result))
            correct = correct and bool(result["correct"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
