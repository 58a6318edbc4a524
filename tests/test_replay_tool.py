"""``tools/replay.py``: the same tree replays to the same digests."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def replay_smoke(cwd):
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "replay.py"),
            str(ROOT),
            "--workload",
            "train_em",
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_train_em_smoke_replays_to_equal_digests(tmp_path):
    first = replay_smoke(tmp_path)
    second = replay_smoke(tmp_path)
    assert first == second
    job, combined = first
    assert re.fullmatch(
        r"train_em seed=0 job=AB-tiny f1=\d\.\d{4} sha256=[0-9a-f]{64}", job
    )
    assert re.fullmatch(r"train_em combined sha256=[0-9a-f]{64}", combined)
