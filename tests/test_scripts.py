"""The scripts under scripts/ run end to end on a small input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args, header", [
    ("run_benchmark.py", ("--seeds", "1", "--variants", "baseline"),
     "variant      seed0   mean"),
    ("precision_vs_contamination.py", ("--seeds", "1", "--bank_size", "500"),
     "in_dist  stage1  stage2   lift"),
])
def test_script_runs(name, args, header):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header


def test_every_bench_record_is_complete():
    """Each BENCH_<label>.json at the repository root parses, names its own
    label and says what was measured, how, where, in sum and run by run."""
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["label"] == path.stem.removeprefix("BENCH_"), path.name
        missing = [key for key in ("what", "command", "host", "summary", "runs")
                   if key not in record]
        assert not missing, (path.name, missing)
