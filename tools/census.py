#!/usr/bin/env python
"""Census: which ``src/repro`` functions does each kind of entry point reach?

"Keep a second code path only when something sits on each side" needs a
fact: what actually runs.  This script records it with the standard
library alone.  Every entry point runs in a child process whose
``PYTHONPATH`` starts with a temporary directory holding a generated
``sitecustomize.py``; that module installs ``sys.setprofile`` and
``threading.setprofile`` hooks, notes every code object on its first
call, and at exit writes the ``src/repro`` ones to a JSON file.

Entry points, by source:

* ``perf`` — the frozen workloads, ``python -m perf.worker --workload W
  --smoke`` (run directly, because ``run.py`` overwrites its worker's
  ``PYTHONPATH``);
* ``bench`` — every ``benchmarks/bench_*.py`` with a ``--smoke`` script
  mode, run as ``python FILE --smoke``;
* ``bench-pytest`` — every other ``bench_*.py``, under pytest with
  ``REPRO_BENCH=quick`` and ``--benchmark-disable``;
* ``example`` — every ``examples/*.py --smoke``;
* ``tests`` — the tier-1 suite (``python -m pytest -q``).

Every function defined in ``src/repro`` (each ``def``, found by compiling
the files) is then listed in one of two tables: reached **only by
tests**, or reached by **nothing**.  A line reads
``repro/<module>.py:<first line> <qualname>  only tests``.  A failed
entry point is reported and the census goes on.  Needs Python 3.11+
(functions are named by ``co_qualname``)::

    python tools/census.py                      # everything (tens of minutes)
    python tools/census.py --sources perf,tests # a subset
    python tools/census.py --save census.json   # also write the raw reach
    python tools/census.py --check tools/census_allow.txt

``--check`` turns the census into a ratchet: it exits non-zero when a
function reached only by tests, or by nothing, has no line in the allow
list.  An allow line reads ``repro/<module>.py <qualname>  <reason>``;
it names no line number, so unrelated edits do not break it, and a line
without a reason is an error.  Allow lines that name a function the
census no longer flags are printed, so the list can shrink.  Run the
check on every source: a subset reaches less and flags more.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
WORKLOADS = ("train_em", "serve_hot", "stream_mixed", "lake_churn")
SOURCES = ("perf", "bench", "bench-pytest", "example", "tests")
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 3600.0  # per entry point; a hung one counts as failed

Function = Tuple[str, int, str]  # (path relative to src/, first line, qualname)
AllowKey = Tuple[str, str]  # (path relative to src/, qualname)

SITECUSTOMIZE = """\
import atexit, json, os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = set()
_codes = []


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen.add(id(code))
            _codes.append(code)  # keeps the id from being reused


def _dump():
    sys.setprofile(None)
    rows = sorted(
        {{
            (code.co_filename, code.co_firstlineno, code.co_qualname)
            for code in _codes
            if os.path.realpath(code.co_filename).startswith(_PREFIX)
        }}
    )
    with open(os.path.join(_OUT, "%d.json" % os.getpid()), "w") as handle:
        json.dump(rows, handle)


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
"""


def defined_functions() -> Set[Function]:
    """Every ``def`` in ``src/repro``, as the interpreter will name it."""
    found: Set[Function] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            # Functions only: module and class bodies lack CO_OPTIMIZED,
            # and lambdas and comprehensions are named "<...>".
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.add((relative, code.co_firstlineno, code.co_qualname))
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return found


def entry_points(sources: List[str]) -> List[Tuple[str, str, List[str], Dict[str, str]]]:
    """``(source, name, argv, extra environment)`` per entry point."""
    python = sys.executable
    benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    scripted = [path for path in benches if "--smoke" in path.read_text(encoding="utf-8")]
    points = []
    if "perf" in sources:
        for workload in WORKLOADS:
            argv = [
                python, "-m", "perf.worker", "--workload", workload, "--seed", "1",
                "--seconds", "1.0", "--trace", "0", "--spawned-at", repr(time.time()),
                "--smoke",
            ]  # fmt: skip
            # ``benchmarks/`` on the path, as run.py sets it, imports ``perf``.
            extra = {"PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "benchmarks")}
            points.append(("perf", workload, argv, extra))
    if "bench" in sources:
        for path in scripted:
            points.append(("bench", path.name, [python, str(path), "--smoke"], {}))
    if "bench-pytest" in sources:
        for path in benches:
            if path not in scripted:
                # pytest-benchmark pauses profile hooks around timed
                # rounds; disabled, it calls the benchmarked code once.
                argv = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--benchmark-disable", str(path)]  # fmt: skip
                points.append(("bench-pytest", path.name, argv, {"REPRO_BENCH": "quick"}))
    if "example" in sources:
        for path in sorted((ROOT / "examples").glob("*.py")):
            points.append(("example", path.name, [python, str(path), "--smoke"], {}))
    if "tests" in sources:
        argv = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        points.append(("tests", "tier-1", argv, {}))
    return points


def run_point(argv: List[str], extra: Dict[str, str]) -> Tuple[int, Set[Function], float]:
    """Run one entry point under the hooks; its exit code and reach."""
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        hooks = Path(scratch) / "hooks"
        out = Path(scratch) / "out"
        hooks.mkdir()
        out.mkdir()
        (hooks / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=str(PACKAGE.resolve()) + os.sep, out=str(out))
        )
        env = dict(os.environ, **ENV, **extra)
        path = [str(hooks), extra.get("PYTHONPATH"), str(SRC), os.environ.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
        started = time.perf_counter()
        try:
            code = subprocess.run(
                argv, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode  # fmt: skip
        except subprocess.TimeoutExpired:
            code = -1
        wall = time.perf_counter() - started
        reached: Set[Function] = set()
        for dump in out.glob("*.json"):
            for filename, line, qualname in json.loads(dump.read_text()):
                relative = Path(os.path.realpath(filename)).relative_to(SRC.resolve())
                reached.add((relative.as_posix(), line, qualname))
    return code, reached, wall


def parse_allow(text: str) -> Dict[AllowKey, str]:
    """``{(path, qualname): reason}`` from an allow list; blank lines and
    ``#`` comments are skipped.  Raises ``ValueError`` on a line without
    a reason or a repeated function."""
    allowed: Dict[AllowKey, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=2)
        if len(parts) < 3:
            raise ValueError(f"allow line {number} has no reason: {line!r}")
        path, qualname, reason = parts
        if (path, qualname) in allowed:
            raise ValueError(f"allow line {number} repeats {path} {qualname}")
        allowed[(path, qualname)] = reason
    return allowed


def check_allowed(
    flagged: Iterable[Function], allowed: Dict[AllowKey, str]
) -> Tuple[List[Function], List[AllowKey]]:
    """Flagged functions with no allow line, and allow lines that name
    no flagged function (stale)."""
    flagged = sorted(flagged)
    keys = {(path, qualname) for path, _, qualname in flagged}
    missing = [f for f in flagged if (f[0], f[2]) not in allowed]
    stale = sorted(key for key in allowed if key not in keys)
    return missing, stale


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--sources", default=",".join(SOURCES),
        help=f"comma-separated subset of {', '.join(SOURCES)} (default: all)",
    )  # fmt: skip
    parser.add_argument("--save", help="write {function: [sources]} as JSON here")
    parser.add_argument(
        "--check", metavar="ALLOW",
        help="exit 1 when a flagged function has no line in this allow list",
    )  # fmt: skip
    args = parser.parse_args()
    if sys.version_info < (3, 11):
        parser.error("needs Python 3.11+ (code objects gained co_qualname in 3.11)")
    sources = [name for name in args.sources.split(",") if name]
    unknown = sorted(set(sources) - set(SOURCES))
    if unknown:
        parser.error(f"unknown source(s) {unknown}; choose from {', '.join(SOURCES)}")
    allowed: Dict[AllowKey, str] = {}
    if args.check:
        try:
            allowed = parse_allow(Path(args.check).read_text(encoding="utf-8"))
        except ValueError as error:
            parser.error(str(error))

    defined = defined_functions()
    reach: Dict[Function, Set[str]] = {function: set() for function in defined}
    failed = []
    for source, name, argv, extra in entry_points(sources):
        code, reached, wall = run_point(argv, extra)
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"{source:<13} {name:<44} {wall:7.1f}s  {len(reached & defined):5d} functions  {status}",
              flush=True)  # fmt: skip
        if code != 0:
            failed.append(f"{source}:{name}")
        for function in reached & defined:
            reach[function].add(source)

    def label(function: Function) -> str:
        path, line, qualname = function
        return f"{path}:{line} {qualname}"

    only_tests = sorted(f for f, by in reach.items() if by == {"tests"})
    nothing = sorted(f for f, by in reach.items() if not by)
    beyond_tests = sum(1 for by in reach.values() if by - {"tests"})
    print(f"\n{len(defined) - len(nothing)} of {len(defined)} functions reached "
          f"by {', '.join(sources)}; {beyond_tests} by something other than tests")  # fmt: skip
    print(f"\n== reached only by tests ({len(only_tests)})")
    for function in only_tests:
        print(f"{label(function)}  only tests")
    print(f"\n== reached by nothing ({len(nothing)})")
    for function in nothing:
        print(f"{label(function)}  nothing")
    if failed:
        print(f"\nentry points that failed: {', '.join(failed)}")
    if args.save:
        Path(args.save).write_text(
            json.dumps({label(f): sorted(by) for f, by in sorted(reach.items())}, indent=1)
        )
    if args.check:
        missing, stale = check_allowed(only_tests + nothing, allowed)
        for path, qualname in stale:
            print(f"stale allow line (no longer flagged): {path} {qualname}")
        for function in missing:
            print(f"not allowed: {label(function)}")
        print(f"\ncensus check: {len(missing)} flagged function(s) without an allow line")
        return 1 if missing else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
