"""The scripts under scripts/ run end to end on a small input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


# Lines each script's output must hold beside its header.
TABLES = {"run_benchmark.py": ["n_confident  seed0   total",
                               "n_clamped    seed0   total"]}


@pytest.mark.parametrize("name, args, header", [
    ("run_benchmark.py", ("--seeds", "1", "--variants", "baseline"),
     "variant      seed0   mean"),
    ("precision_vs_contamination.py", ("--seeds", "1", "--bank_size", "500"),
     "in_dist  stage1  stage2   lift"),
])
def test_script_runs(name, args, header):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == header
    for table in TABLES.get(name, ()):
        at = lines.index(table)
        assert lines[at + 1].split()[0] == args[-1], (table, lines[at + 1])


def test_source_size_counts_each_line_by_the_first_rule_that_holds(tmp_path):
    """Docstring lines, then code (a multi-line string runs through its
    lines), then comment-only lines, then blank ones; and their sums."""
    (tmp_path / "m.py").write_text(
        '"""Doc\nstring."""\n\n# note\nx = (1,\n     2)  # c\ns = """a\nb"""\n\n'
        'def f():\n    """One."""\n    return x\n', encoding="utf-8")
    done = run_script("source_size.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    header, row, total = (line.split() for line in done.stdout.splitlines())
    assert header == ["module", "total", "docstring", "code", "comment", "blank"]
    assert row == ["m.py", "12", "3", "6", "1", "2"]
    assert total == ["all", "12", "3", "6", "1", "2"]


def test_source_size_sums_every_module():
    done = run_script("source_size.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    modules = sorted(p.name for p in (ROOT / "src" / "bankadapt").glob("*.py"))
    assert [r[0] for r in rows] == modules + ["all"]
    counts = np.array([[int(n) for n in r[1:]] for r in rows])
    assert (counts[:-1].sum(axis=0) == counts[-1]).all()
    assert (counts[:, 1:].sum(axis=1) == counts[:, 0]).all()


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
