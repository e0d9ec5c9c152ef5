#!/usr/bin/env python3
"""Self-tests for the benchmark's correctness checks.

Run from the repository root:

    python3 perfbench/selftest.py

Builds one train-full world with the program's own commands, checks that
the real outputs pass, then corrupts them one way at a time and checks that
every corrupted copy is rejected.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import sys

import run  # sets the thread variables before numpy is imported

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().split("\n")]


def _text(rows: list[list[str]]) -> str:
    return "\n".join(",".join(r) for r in rows) + "\n"


def sample_corruptions(ref: checks.SampleRef, samples: str, precision: str,
                       stdout: str):
    """(label, samples.csv, precision.txt, stdout) with one fault each."""
    rows = _rows(samples)
    ids = np.array([int(r[0]) for r in rows[1:]])
    s2 = ref.stage2
    unselected = np.setdiff1d(s2.ids, ids)
    outside = np.setdiff1d(np.arange(ref.latent_class.size), s2.ids)

    def edit(i, col, value):
        out = [list(r) for r in rows]
        out[i + 1][col] = value
        return _text(out)

    yield "id swapped for an unselected record", edit(0, 0, str(unselected[0])), \
        precision, stdout
    yield "duplicate id", edit(1, 0, rows[1][0]), precision, stdout
    yield "id outside the stage-1 label bank", edit(0, 0, str(outside[0])), \
        precision, stdout
    other = (int(rows[1][1]) + 1) % s2.n_columns
    yield "column that is not the argmax", edit(0, 1, str(other)), precision, stdout
    yield "score off by 1e-9", edit(0, 2, repr(float(rows[1][2]) + 1e-9)), \
        precision, stdout
    yield "one row dropped", _text(rows[:-1]), precision, stdout

    # The k-th record of a full column swapped for a lower-ranked one that
    # carries its own correct score: only the "beats" check can see it.
    cols = np.array([int(r[1]) for r in rows[1:]])
    chosen = np.isin(s2.ids, ids)
    for j in range(s2.n_columns):
        rest = np.flatnonzero((s2.assigned == j) & ~chosen)
        if rest.size and np.count_nonzero(cols == j) == s2.k:
            low = rest[np.argmin(s2.best[rest])]
            last = int(np.flatnonzero(cols == j)[-1])
            out = [list(r) for r in rows]
            out[last + 1][0] = str(int(s2.ids[low]))
            out[last + 1][2] = repr(float(s2.best[low]))
            yield "unselected record beats the k-th", _text(out), precision, stdout
            break
    else:
        raise AssertionError("no full column with unselected candidates")

    for stage in ("stage1_precision", "stage2_precision"):
        lines = precision.splitlines()
        n = ref.stage1.selected.size if stage == "stage1_precision" else ids.size
        value = {k: v for k, _, v in (ln.partition(" = ") for ln in lines)}[stage]
        hits = round(float(value) * n)
        changed = precision.replace(f"{stage} = {value}",
                                    f"{stage} = {repr((hits - 1) / n)}")
        yield f"{stage} off by one hit", samples, changed, stdout
    yield "printed counts changed", samples, precision, \
        stdout.replace("stage 2 kept ", "stage 2 kept 1")


def train_corruptions(metrics: str, stdout: str, checkpoint, n_eval: int, work):
    """(label, metrics.csv, stdout, checkpoint path) with one fault each."""
    rows = _rows(metrics)

    def edit(i, col, value):
        out = [list(r) for r in rows]
        out[i + 1][col] = value
        return _text(out)

    total = float(rows[5][5])
    yield "loss_total != loss_x + eta*loss_u + lambda*loss_con", \
        edit(4, 5, repr(total + 1e-6 * max(1.0, abs(total)))), stdout, checkpoint
    yield "one row dropped", _text(rows[:-1]), stdout, checkpoint
    yield "non-finite loss", edit(3, 3, "nan"), stdout, checkpoint
    yield "step out of order", edit(2, 0, "7"), stdout, checkpoint
    last = len(rows) - 2
    hits = round(float(rows[-1][8]) * n_eval)
    yield "accuracy off by one hit", edit(last, 8, repr((hits - 1) / n_eval)), \
        stdout, checkpoint
    yield "accuracy missing at epoch end", edit(last, 8, ""), stdout, checkpoint
    yield "printed accuracy changed", metrics, \
        stdout.replace("eval acc 0.", "eval acc 1."), checkpoint
    data = bytearray(open(checkpoint, "rb").read())
    head_b_at = len(data) - 4 - 8 * 10  # head_b: the last C values before the crc
    data[head_b_at:head_b_at + 8] = np.float64(1e6).tobytes()
    bad = work / "corrupt.datc"
    bad.write_bytes(bytes(data))
    yield "checkpoint that scores differently", metrics, stdout, bad


def declared_metrics_match() -> bool:
    """BENCHMARK.json names the workloads and metrics that run.py prints."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [{m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")]
    return (declared == [run.END_TO_END_UNITS, run.PER_LAYER_UNITS]
            and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workload = dataclasses.replace(run.WORKLOADS["train-full"], n_worlds=1)
    work = run.WORK_ROOT / f"selftest-{os.getpid()}"
    failures = 0 if declared_metrics_match() else 1
    print(f"BENCHMARK.json {'matches' if not failures else 'DIFFERS FROM'} run.py")
    try:
        runner = run.Runner(work)
        world = run.build_worlds(workload, 0, work)[0]
        outcomes = {cmd: runner.cli(cmd) for cmd in world.setup + world.timed}
        verdict = run.Verdict()
        run.check_world(verdict, workload, world, outcomes)
        print(f"real outputs: {'accepted' if verdict.correct else verdict.errors}")
        failures += not verdict.correct

        ref = checks.sample_reference(world.bank, world.train_set, world.seed)
        sample_dir, train_dir = world.setup[1].out_dir, world.timed[0].out_dir
        sample_stdout = outcomes[world.setup[1]].stdout
        train_stdout = outcomes[world.timed[0]].stdout
        cases = [(label, checks.check_sample_outputs, (ref, *texts))
                 for label, *texts in sample_corruptions(
                     ref, (sample_dir / "samples.csv").read_text(),
                     (sample_dir / "precision.txt").read_text(), sample_stdout)]
        recipe = run.RECIPE_TRAIN
        for label, metrics, stdout, ckpt in train_corruptions(
                (train_dir / "metrics.csv").read_text(), train_stdout,
                train_dir / "encoder.datc",
                checks.read_dataset(world.eval_set).labels.size, work):
            cases.append((label, lambda m, s, c: checks.check_train_outputs(
                m, s, c, world.eval_set, n_train=200, n_classes=10,
                batch_size=recipe["batch_size"], epochs=recipe["epochs"],
                eta=recipe["eta"], lambda_=recipe["lambda"]),
                (metrics, stdout, ckpt)))
        for label, fn, args in cases:
            try:
                fn(*args)
            except CheckError as exc:
                print(f"rejected  {label}: {exc}")
            else:
                print(f"ACCEPTED  {label}")
                failures += 1
        same = run.Verdict()
        same.same("rerun", "a" * 32, "b" * 32)
        print(f"{'rejected' if not same.correct else 'ACCEPTED'}  outputs that "
              "differ between runs")
        failures += same.correct
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()
    print(f"{failures} check(s) failed the self-test" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
