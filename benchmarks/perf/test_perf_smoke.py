"""Tier-1 smoke test of the perf benchmark: the one command runs, prints
what ``BENCHMARK.json`` declares, restores its shims, and fails when a
correctness oracle is wrong.  Timings are never asserted here."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf.common import ROOT, Measured, load_spec, phase_metrics, units
from perf.trace import Tracer

HERE = Path(__file__).resolve().parent
SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*arguments: str, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def test_spec_is_well_formed_and_every_layer_metric_has_a_prediction():
    assert all("bound" in metric for metric in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert all(NAME.match(name) for name in names) and len(set(names)) == len(names)
    predictions = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    assert set(predictions) == set(units(SPEC["per_layer"]))
    for entry in predictions.values():
        assert set(entry["moves"]) <= set(units(SPEC["end_to_end"]))
        assert set(entry["on"]) | set(entry["flat_on"]) <= set(WORKLOADS)


def test_smoke_command_prints_every_declared_metric(tmp_path):
    done = run(out=tmp_path)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(WORKLOADS)  # untraced then traced, per workload
    for position, result in enumerate(results):
        traced = position % 2
        declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
        assert result["correct"] is True and result["comparable"] is False
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units(declared)
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    for workload in WORKLOADS:
        header = json.loads((tmp_path / f"{workload}.seed1.trace0.json").read_text())["header"]
        assert {"git_sha", "nproc", "python", "numpy", "blas", "loadavg_start", "loadavg_end",
                "seed", "op_counts", "measured_started_after_s"} <= set(header)  # fmt: skip
        assert header["pinned_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert header["pinned_env"]["PYTHONHASHSEED"] == "0"


def test_wrong_oracle_fails_the_command(tmp_path):
    done = run("--workload", "serve_hot", "--trace", "0", "--break-oracle", out=tmp_path)
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    assert "CHECK FAILED" in done.stdout


def test_a_run_where_every_operation_fails_reports_it_and_does_not_crash():
    measured = Measured(operations=0, phase_s=0.0, latencies_s=[], attempted=3, failed=3)
    assert set(phase_metrics(measured).values()) == {0.0}


class Target:
    def method(self, value):
        return value + 1


def test_shims_are_restored_on_exit_and_on_exception():
    original = Target.__dict__["method"]
    instance = Target()
    tracer = Tracer(enabled=True)
    with tracer.installed():
        tracer.shim(Target, "method", "target.method")
        tracer.shim(instance, "method", "instance.method")
        assert Target.__dict__["method"] is not original
        assert instance.method(1) == 2
    assert Target.__dict__["method"] is original and "method" not in vars(instance)
    assert tracer.calls("instance.method") == 1 and tracer.calls("target.method") == 1

    with pytest.raises(RuntimeError):
        with tracer.installed():
            tracer.shim(Target, "method", "target.method")
            raise RuntimeError("workload blew up")
    assert Target.__dict__["method"] is original

    off = Tracer(enabled=False)
    off.shim(Target, "method", "target.method")
    assert Target.__dict__["method"] is original
