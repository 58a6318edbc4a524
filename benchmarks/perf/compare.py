#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A B``.

``A`` (the base) and ``B`` are directories of result files written by
``run.py --out DIR`` — several untraced runs per workload, ideally ten.
Prints one row per workload x end-to-end metric: each side's median,
quartiles and sample count, B's change relative to A's median (positive
= worse), the bound from ``BENCHMARK.json`` and a verdict:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's own spread (quartile distance over
  median) is wider than the bound, so the runs cannot tell;
* ``ok`` — otherwise.

``compare.py A A`` (or two sets of one commit) is the A/A check.  Exits 1
when any row is a regression or unresolved, 0 when every row is ok.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

sys.path[0] = str(Path(__file__).resolve().parents[1])  # as in run.py

from perf.common import load_spec  # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]


def load_bounds() -> Dict[str, Dict[str, object]]:
    return {metric["name"]: metric for metric in load_spec()["end_to_end"]}


def load_runs(directory: Path) -> Samples:
    """(workload, metric) -> values over the directory's untraced,
    comparable, correct runs."""
    samples: Samples = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        header = result["header"]
        if header["trace"] or not result.get("comparable", True) or not result["correct"]:
            continue
        for name, metric in result["metrics"].items():
            samples[(header["workload"], name)].append(float(metric["value"]))
    return samples


def summary(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def spread(values: List[float]) -> float:
    low, median, high = summary(values)
    return (high - low) / abs(median) if median else float("inf")


def compare(base: Samples, other: Samples, bounds) -> List[Dict[str, object]]:
    rows = []
    for key in sorted(set(base) & set(other)):
        workload, name = key
        declared = bounds.get(name)
        if declared is None:
            continue
        a, b = base[key], other[key]
        a_low, a_median, a_high = summary(a)
        b_low, b_median, b_high = summary(b)
        change = (b_median - a_median) / abs(a_median)
        worse = -change if declared["better"] == "higher" else change
        bound = float(declared["bound"])
        noisy = max(spread(a), spread(b)) > bound
        verdict = "regression" if worse > bound else "unresolved" if noisy else "ok"
        rows.append(
            dict(
                workload=workload, metric=name, unit=declared["unit"], n_a=len(a), n_b=len(b),
                a=(a_low, a_median, a_high), b=(b_low, b_median, b_high),
                worse=worse, base=a_median, spread=max(spread(a), spread(b)),
                bound=bound, verdict=verdict,
            )  # fmt: skip
        )
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<17} {'A q1 / median / q3 (n)':<36} "
        f"{'B q1 / median / q3 (n)':<36} {'worse by':>9} {'of base':>10} "
        f"{'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        a = "{:.4g} / {:.4g} / {:.4g}".format(*row["a"]) + f" ({row['n_a']})"
        b = "{:.4g} / {:.4g} / {:.4g}".format(*row["b"]) + f" ({row['n_b']})"
        lines.append(
            f"{row['workload']:<13} {row['metric']:<17} {a:<36} {b:<36} "
            f"{row['worse']:>+8.1%} {row['base']:>10.4g} {row['spread']:>6.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", type=Path, help="result directory of the base (A)")
    parser.add_argument("other", type=Path, help="result directory to judge (B)")
    args = parser.parse_args()
    rows = compare(load_runs(args.base), load_runs(args.other), load_bounds())
    if not rows:
        print("no workload x metric is present in both sets", file=sys.stderr)
        return 2
    print(render(rows))
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
