#!/usr/bin/env python3
"""Benchmark of the bankadapt `sample` and `train` commands.

Run from the repository root:

    python3 perfbench/run.py --workload sample-1m --seed 0 --seconds 12 --trace 0

Workloads: sample-1m, rerank-wide, train-full (see perfbench/README.md).
With --trace 0 every program command runs as a fresh child process, one at
a time, with one BLAS/OpenMP thread, and the end-to-end metrics are printed.
With --trace 1 the same commands also run inside this process with every
layer wrapped, and the per-layer metrics are printed instead.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

# Before numpy is imported here or in any child: one BLAS/OpenMP thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = Path(".perfbench-work")
DEADLINE_S = 170.0
SETUP_ROUNDS = 3
IMPORT_SAMPLES = 5
MIB = float(1 << 20)

# The frozen benchmark recipe of src/bankadapt/benchmark.py, full variant.
RECIPE_WORLD = {"n_classes": 10, "n_per_class": 20, "eval_n_per_class": 50,
                "bank_size": 8000, "image_dim": 32, "feat_dim": 16,
                "class_sep": 4.0, "in_dist_fraction": 0.5,
                "weak_pair_rate": 0.3, "noise_sigma": 0.8}
RECIPE_TRAIN = {"batch_size": 32, "mu": 4, "t_thresh": 0.95, "eta": 1.0,
                "lambda": 1.0, "tau": 0.07, "anchor_reduction": "sum",
                "epochs": 12, "lr": 0.0025, "momentum": 0.9, "hidden_dim": 32,
                "warm_start": "false", "sigma_weak": 0.1, "sigma_strong": 0.3,
                "mask_frac": 0.1}
TRAIN_WORLDS = 4


def _world(**changes) -> dict:
    base = {"n_classes": 10, "n_per_class": 20, "eval_n_per_class": 50,
            "bank_size": 4000, "image_dim": 32, "feat_dim": 16,
            "class_sep": 4.0, "in_dist_fraction": 0.5, "weak_pair_rate": 0.3,
            "noise_sigma": 1.0}
    base.update(changes)
    return base


@dataclass(frozen=True)
class Workload:
    name: str
    world: dict           # synth-gen flags
    n_worlds: int         # worlds per run, seeds n_worlds*seed + i
    trains: bool          # timed command is train (else sample)


WORKLOADS = {
    # 20 is the smallest image_dim at which all 10 class and 10 distractor
    # prototypes stay orthogonal; it keeps synth-gen near 1.3 GiB.
    "sample-1m": Workload("sample-1m", _world(bank_size=1_000_000, image_dim=20),
                          1, False),
    "rerank-wide": Workload("rerank-wide",
                            _world(bank_size=200_000, n_classes=50, n_per_class=40),
                            1, False),
    "train-full": Workload("train-full", RECIPE_WORLD, TRAIN_WORLDS, True),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mib": "MiB", "quality": "ratio"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "synth.generate_bank_s": "s",
    "embank.encode_bank_s": "s",
    "embank.decode_bank_s": "s",
    "embank.decode_bank_mib_per_s": "MiB/s",
    "embank.decode_bank_peak_mib": "MiB",
    "sampler.stage1_s": "s",
    "sampler.stage1_mscores_per_s": "Mscores/s",
    "sampler.stage1_peak_mib": "MiB",
    "sampler.stage2_s": "s",
    "sampler.stage2_mscores_per_s": "Mscores/s",
    "sampler.stage2_peak_mib": "MiB",
    "sampler.stage1_precision": "ratio",
    "sampler.stage2_precision": "ratio",
    "trainer.steps": "count",
    "trainer.steps_per_s": "steps/s",
    "trainer.compose_batch_s": "s",
    "augment.augment_s": "s",
    "augment.view_calls": "count",
    "objective.batch_objective_s": "s",
    "pseudo_triplets.pseudo_label_s": "s",
    "pseudo_triplets.pseudo_label_rows": "count",
    "pseudo_triplets.build_triplets_s": "s",
    "losses.contrastive_s": "s",
    "encoder.forward_s": "s",
    "encoder.backward_s": "s",
    "trainer.sgd_update_s": "s",
    "trainer.evaluate_s": "s",
    "objective.n_confident": "count",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")


def _on_term(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


# ---------------------------------------------------------------- commands


@dataclass(frozen=True)
class Command:
    name: str             # synth-gen, sample or train
    args: tuple           # CLI arguments after the subcommand
    out_dir: Path
    outputs: tuple        # files the command writes into out_dir

    def argv(self) -> list[str]:
        return [self.name, *self.args]


@dataclass
class World:
    seed: int
    dir: Path
    setup: list = field(default_factory=list)
    timed: list = field(default_factory=list)

    @property
    def bank(self) -> Path:
        return self.dir / "world" / "bank.datb"

    @property
    def train_set(self) -> Path:
        return self.dir / "world" / "train.datd"

    @property
    def eval_set(self) -> Path:
        return self.dir / "world" / "eval.datd"


def _flags(values: dict) -> tuple:
    out = []
    for key, value in values.items():
        out += [f"--{key}", str(value)]
    return tuple(out)


def build_worlds(workload: Workload, seed: int, work: Path) -> list[World]:
    worlds = []
    for i in range(workload.n_worlds):
        w = World(seed=workload.n_worlds * seed + i, dir=work / f"w{i}")
        s = ("--seed", str(w.seed))
        gen = Command("synth-gen", s + _flags(workload.world)
                      + ("--out_dir", str(w.dir / "world")),
                      w.dir / "world",
                      ("bank.datb", "train.datd", "eval.datd",
                       "resolved-synth-gen.cfg"))
        sample = Command("sample", s + ("--bank", str(w.bank), "--dataset",
                                        str(w.train_set),
                                        "--out_dir", str(w.dir / "sample")),
                         w.dir / "sample",
                         ("samples.csv", "precision.txt", "resolved-sample.cfg"))
        w.setup.append(gen)
        if workload.trains:
            w.setup.append(sample)
            w.timed.append(Command(
                "train", s + _flags(RECIPE_TRAIN)
                + ("--bank", str(w.bank), "--dataset", str(w.train_set),
                   "--eval_dataset", str(w.eval_set),
                   "--samples", str(w.dir / "sample" / "samples.csv"),
                   "--out_dir", str(w.dir / "train")),
                w.dir / "train",
                ("metrics.csv", "encoder.datc", "resolved-train.cfg")))
        else:
            w.timed.append(sample)
        worlds.append(w)
    return worlds


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mib: float
    stdout: str
    digest: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The same string hashes, and so the same set and dict layouts, every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, object]:
    """Run one child to completion; return (exit code, wall s, own rusage).

    os.wait4 gives the rusage of this child alone, where RUSAGE_CHILDREN
    would keep the largest peak RSS over every earlier child."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage


def digest(paths, stdout: str) -> str:
    h = hashlib.blake2b(stdout.encode("utf-8"), digest_size=16)
    for path in paths:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


class Runner:
    """Runs program commands, counts them, and keeps their logs."""

    def __init__(self, work: Path):
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0

    def _attempt(self, label: str) -> tuple[Path, Path]:
        """Count one invocation; return its stdout and stderr log paths."""
        self.attempted += 1
        stem = self.logs / f"{self.attempted:04d}-{label}"
        return stem.with_suffix(".out"), stem.with_suffix(".err")

    def _check_exit(self, label: str, code, err_path: Path) -> None:
        if code != 0:
            self.failed += 1
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{label} exited with {code}:\n{tail}")

    @staticmethod
    def _clear(cmd: Command) -> None:
        cmd.out_dir.mkdir(parents=True, exist_ok=True)
        for name in cmd.outputs:
            (cmd.out_dir / name).unlink(missing_ok=True)

    @staticmethod
    def _outcome(cmd: Command, out: Path, wall: float, cpu: float,
                 rss_mib: float) -> Outcome:
        text = out.read_text(encoding="utf-8")
        return Outcome(wall, cpu, rss_mib, text,
                       digest([cmd.out_dir / n for n in cmd.outputs], text))

    def cli(self, cmd: Command) -> Outcome:
        """One fresh child process running `bankadapt <cmd>`."""
        self._clear(cmd)
        out, err = self._attempt(cmd.name)
        code, wall, usage = spawn(["-m", "bankadapt.cli", *cmd.argv()], out, err)
        self._check_exit(" ".join(cmd.argv()), code, err)
        return self._outcome(cmd, out, wall, usage.ru_utime + usage.ru_stime,
                             usage.ru_maxrss / 1024.0)

    def in_process(self, cmd: Command, main) -> Outcome:
        """`bankadapt <cmd>` inside this process, through main(argv)."""
        self._clear(cmd)
        out, err = self._attempt("traced-" + cmd.name)
        with open(out, "w", encoding="utf-8") as fo, open(err, "w", encoding="utf-8") as fe, \
                contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
            start = time.perf_counter()
            code = main(cmd.argv())
            wall = time.perf_counter() - start
        self._check_exit("traced " + " ".join(cmd.argv()), code, err)
        return self._outcome(cmd, out, wall, 0.0, 0.0)

    def python(self, label: str, code: str) -> str:
        """A fresh interpreter running `code`; returns its stdout."""
        out, err = self._attempt(label)
        status, _, _ = spawn(["-c", code], out, err)
        self._check_exit(label, status, err)
        return out.read_text(encoding="utf-8")


def fsync_outputs(commands) -> None:
    """Write set-up outputs to disk before timing, so that their writeback
    does not fall inside a timed command."""
    for cmd in commands:
        for name in cmd.outputs:
            fd = os.open(cmd.out_dir / name, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


# ---------------------------------------------------------------- checks


class Verdict:
    """Collects check failures; the run stays correct while it has none."""

    def __init__(self):
        self.errors: list[str] = []

    def check(self, label: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except checks.CheckError as exc:
            self.errors.append(f"{label}: {exc}")
            return None

    def same(self, label: str, first: str, again: str) -> None:
        if first != again:
            self.errors.append(f"{label}: outputs differ between runs of the same code")

    @property
    def correct(self) -> bool:
        return not self.errors


def check_world(verdict: Verdict, workload: Workload, world: World,
                outcomes: dict) -> tuple[float, float, object]:
    """Check one world's sample (and train) outputs.

    Returns (stage-2 precision, quality, sample reference); quality is the
    stage-2 precision, or the held-out accuracy when the workload trains.
    """
    sample_cmd = next(c for c in world.setup + world.timed if c.name == "sample")
    ref = checks.sample_reference(world.bank, world.train_set, world.seed)
    precision = verdict.check(
        f"sample w{world.seed}", checks.check_sample_outputs, ref,
        (sample_cmd.out_dir / "samples.csv").read_text(encoding="utf-8"),
        (sample_cmd.out_dir / "precision.txt").read_text(encoding="utf-8"),
        outcomes[sample_cmd].stdout) or 0.0
    if not workload.trains:
        return precision, precision, ref
    train_cmd = world.timed[0]
    n_classes = workload.world["n_classes"]
    accuracy = verdict.check(
        f"train w{world.seed}", checks.check_train_outputs,
        (train_cmd.out_dir / "metrics.csv").read_text(encoding="utf-8"),
        outcomes[train_cmd].stdout, train_cmd.out_dir / "encoder.datc",
        world.eval_set, n_train=n_classes * workload.world["n_per_class"],
        n_classes=n_classes, batch_size=RECIPE_TRAIN["batch_size"],
        epochs=RECIPE_TRAIN["epochs"], eta=RECIPE_TRAIN["eta"],
        lambda_=RECIPE_TRAIN["lambda"]) or 0.0
    return precision, accuracy, ref


# ---------------------------------------------------------------- runs


def warm_up(runner: Runner) -> None:
    """Import the program once, untimed, so byte-code caches exist before
    the first timed command of every run alike."""
    runner.python("warm-up", "import bankadapt.cli")


def measure(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    worlds = build_worlds(workload, seed, runner.work)
    verdict = Verdict()
    warm_up(runner)

    # Set-up rounds and timed rounds alternate, so that the samples behind
    # every median are spread over the whole run rather than bunched into
    # one stretch of it: on a shared machine the speed drifts over seconds.
    setup_cmds = [c for w in worlds for c in w.setup]
    timed_cmds = [c for w in worlds for c in w.timed]
    setup_walls, timed, first = [], [], {}

    def run_all(commands, label):
        outcomes = []
        for cmd in commands:
            got = runner.cli(cmd)
            outcomes.append(got)
            verdict.same(f"{label} {cmd.name} {cmd.out_dir}",
                         first.setdefault(cmd, got).digest, got.digest)
        return outcomes

    for r in range(SETUP_ROUNDS):
        for cmd in setup_cmds:
            shutil.rmtree(cmd.out_dir, ignore_errors=True)
        setup_walls.append(sum(o.wall for o in run_all(setup_cmds, "set-up")))
        fsync_outputs(setup_cmds)
        target = seconds * (r + 1) / SETUP_ROUNDS
        while sum(o.wall for o in timed) < target:
            timed += run_all(timed_cmds, "timed")

    qualities = [check_world(verdict, workload, w, first)[1] for w in worlds]
    for message in verdict.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"set-up rounds {[round(s, 3) for s in setup_walls]} s; timed "
          f"{[round(o.wall, 3) for o in timed]} s", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(o.wall for o in timed),
        "cpu_s": statistics.median(o.cpu for o in timed),
        "peak_rss_mib": statistics.median(o.rss_mib for o in timed),
        "quality": statistics.fmean(qualities),
    }
    return result(verdict.correct, runner, values, END_TO_END_UNITS)


def measure_traced(workload: Workload, seed: int, runner: Runner) -> dict:
    """The first world of the workload, run once untraced as children and
    once traced in this process; outputs must match byte for byte."""
    import bankadapt.cli

    if not Path(bankadapt.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported bankadapt from {bankadapt.cli.__file__}, not {SRC}")
    world = build_worlds(workload, seed, runner.work)[0]
    commands = world.setup + world.timed
    verdict = Verdict()
    warm_up(runner)

    probe = ("import time; t = time.perf_counter(); import bankadapt.cli; "
             "print(repr(time.perf_counter() - t))")
    import_s = statistics.median(float(runner.python("import", probe))
                                 for _ in range(IMPORT_SAMPLES))

    untraced = {cmd: runner.cli(cmd) for cmd in commands}
    precision2, _, ref = check_world(verdict, workload, world, untraced)
    bank_mib = world.bank.stat().st_size / MIB
    reference = world.dir.with_name(world.dir.name + "-untraced")
    world.dir.rename(reference)

    tracer = Tracer()
    tracer.install()
    try:
        traced = {cmd: runner.in_process(cmd, bankadapt.cli.main) for cmd in commands}
    finally:
        tracer.uninstall()
    peaks = tracer.replay_peaks()
    for cmd in commands:
        verdict.same(f"traced {cmd.name}", untraced[cmd].digest, traced[cmd].digest)
        overhead = traced[cmd].wall + import_s - untraced[cmd].wall
        print(f"{cmd.name}: untraced {untraced[cmd].wall:.3f} s, traced in-process "
              f"{traced[cmd].wall:.3f} s + import {import_s:.3f} s, "
              f"tracing overhead {overhead:+.3f} s", file=sys.stderr)
    for message in verdict.errors:
        print(f"check failed: {message}", file=sys.stderr)
    for missing in tracer.missing:
        print(f"not traced: {missing} does not exist", file=sys.stderr)
    for name, calls, inclusive, own in sorted(tracer.summary()):
        print(f"  {name:34s} {calls:7d} calls {inclusive:9.4f} s incl "
              f"{own:9.4f} s self", file=sys.stderr)

    sec, count = tracer.seconds, tracer.counts
    steps = count["trainer.steps"]
    values = {
        "cli.import_s": import_s,
        "synth.generate_bank_s": sec("synth.generate_bank"),
        "embank.encode_bank_s": sec("embank.encode_bank"),
        "embank.decode_bank_s": sec("embank.decode_bank"),
        "embank.decode_bank_mib_per_s": _rate(
            tracer.calls("embank.decode_bank") * bank_mib, sec("embank.decode_bank")),
        "embank.decode_bank_peak_mib": peaks.get("embank.decode_bank", 0.0),
        "sampler.stage1_s": sec("sampler.stage1"),
        "sampler.stage1_mscores_per_s": _rate(
            tracer.calls("sampler.stage1") * ref.stage1.scores.size / 1e6,
            sec("sampler.stage1")),
        "sampler.stage1_peak_mib": peaks.get("sampler.stage1", 0.0),
        "sampler.stage2_s": sec("sampler.stage2"),
        "sampler.stage2_mscores_per_s": _rate(
            tracer.calls("sampler.stage2") * ref.stage2.scores.size / 1e6,
            sec("sampler.stage2")),
        "sampler.stage2_peak_mib": peaks.get("sampler.stage2", 0.0),
        "sampler.stage1_precision": ref.stage1_precision(),
        "sampler.stage2_precision": precision2,
        "trainer.steps": steps,
        "trainer.steps_per_s": _rate(steps, sec("trainer.fit")),
        "trainer.compose_batch_s": sec("trainer.compose_batch"),
        "augment.augment_s": sec("augment.augment"),
        "augment.view_calls": count["augment.view_calls"],
        "objective.batch_objective_s": sec("objective.batch_objective"),
        "pseudo_triplets.pseudo_label_s": sec("pseudo_triplets.pseudo_label"),
        "pseudo_triplets.pseudo_label_rows": count["pseudo_triplets.pseudo_label_rows"],
        "pseudo_triplets.build_triplets_s": sec("pseudo_triplets.build_triplets"),
        "losses.contrastive_s": sec("losses.contrastive"),
        "encoder.forward_s": sec("encoder.forward"),
        "encoder.backward_s": sec("encoder.backward"),
        "trainer.sgd_update_s": sec("trainer.sgd_update"),
        "trainer.evaluate_s": sec("trainer.evaluate"),
        "objective.n_confident": count["objective.n_confident"],
    }
    return result(verdict.correct, runner, values, PER_LAYER_UNITS)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def result(correct: bool, runner: Runner, values: dict, units: dict) -> dict:
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "bankadapt" / "cli.py").is_file():
        print(f"error: no bankadapt source under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(work)
        workload = WORKLOADS[args.workload]
        if args.trace:
            out = measure_traced(workload, args.seed, runner)
        else:
            out = measure(workload, args.seed, args.seconds, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
