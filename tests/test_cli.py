"""Command line pipeline: subcommands, exit codes, and reproducibility."""

import ast
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bankadapt import benchmark, cli, embank
from bankadapt.benchmark import BENCH
from bankadapt.cli import main
from bankadapt.config import (
    RunConfig,
    config_help,
    config_values,
    format_value,
    write_config,
)
from bankadapt.embank import (
    decode_bank_file,
    decode_dataset_file,
    encode_bank_file,
    encode_dataset_file,
)
from bankadapt.encoder import init_params, save_params
from bankadapt.trainer import write_metrics_csv
from bankadapt.sampler import (
    default_k1,
    sampler_precision,
    stage1_sample,
    stage2_sample,
)

from conftest import random_bank, random_dataset, with_latent_class

PERFBENCH_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

TINY = ["--n_classes", "3", "--n_per_class", "6", "--eval_n_per_class", "8",
        "--bank_size", "300", "--image_dim", "8", "--feat_dim", "4",
        "--noise_sigma", "0.5", "--hidden_dim", "8", "--batch_size", "6",
        "--epochs", "2", "--lr", "0.005", "--sigma_strong", "0.3",
        "--mask_frac", "0.1"]


def run(args):
    return main(args)


def test_synth_gen_and_inspect(tmp_path, capsys):
    out = tmp_path / "world"
    assert run(["synth-gen", *TINY, "--out_dir", str(out)]) == 0
    for name, magic in (("bank.datb", "DATB"), ("train.datd", "DATD"),
                        ("eval.datd", "DATD")):
        assert (out / name).exists()
        capsys.readouterr()
        assert run(["inspect", str(out / name)]) == 0
        assert f"format = {magic}" in capsys.readouterr().out
    assert (out / "resolved-synth-gen.cfg").exists()


def test_inspect_rejects_unknown_magic(tmp_path, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    assert run(["inspect", str(bad)]) == 1
    assert run(["inspect", str(tmp_path / "missing.bin")]) == 2


def test_inspect_refuses_unknown_header_flags(tmp_path, capsys):
    out = tmp_path / "world"
    assert run(["synth-gen", *TINY, "--out_dir", str(out)]) == 0
    path = out / "train.datd"
    data = bytearray(path.read_bytes())
    data[6] = 1
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert run(["inspect", str(path)]) == 1
    assert "flags 0x0001" in capsys.readouterr().err


def test_inspect_prints_five_lines_and_keeps_no_payload_field(tmp_path, monkeypatch,
                                                              capsys):
    m = 200_000
    bank = random_bank(seed=16, m=m, d_img=20, d=16)
    bank.latent_class[:] = -1
    bank.latent_class[m - 1] = 0  # with_latent rests on the last block alone
    ds = random_dataset(seed=16, n=9, n_classes=3, d_img=20, d=16)
    bank_path, ds_path = tmp_path / "bank.datb", tmp_path / "train.datd"
    encode_bank_file(bank, bank_path)
    encode_dataset_file(ds, ds_path)
    block = 1 << 14
    monkeypatch.setattr(embank, "_BLOCK_BYTES", block)
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(["inspect", str(bank_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == (f"format = DATB\nrecords = {m}\nimage_dim = 20\n"
                                       "feat_dim = 16\nwith_latent = True\n")
    # Beyond the captions' continuation bitmap, the reader's block and the
    # temporaries of the checks on it (four blocks), less than half of the
    # smallest field (latent_class, 800,000 bytes).
    bitmap = sum(len(c.encode("utf-8")) for c in bank.captions) / 8
    assert peak <= bitmap + 5 * block + bank.latent_class.nbytes / 2, peak
    assert run(["inspect", str(ds_path)]) == 0
    assert capsys.readouterr().out == ("format = DATD\nimages = 9\nclasses = 3\n"
                                       "image_dim = 20\nfeat_dim = 16\n")

    bank.latent_class[m - 1] = -1
    encode_bank_file(bank, bank_path)
    assert run(["inspect", str(bank_path)]) == 0
    assert capsys.readouterr().out.endswith("with_latent = False\n")
    for path in (bank_path, ds_path):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert run(["inspect", str(path)]) == 1
        assert "crc32" in capsys.readouterr().err


# A child's ru_maxrss starts at the RSS of the process that spawned it, so
# the child is spawned from a bare interpreter, not from the test process.
SPAWN_AND_REPORT_MAXRSS = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(usage.ru_maxrss)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n")


def import_peak_rss(*modules) -> int:
    """Peak RSS in bytes of a child that only imports bankadapt.cli and
    modules.  bankadapt.cli imports a command's modules when the command
    runs, so the baseline of a command's peak may name those of its
    modules that an import of bankadapt.cli once held: the baseline then
    holds no code that the whole import did not, and a bound beyond it is
    no looser."""
    return child_peak_rss(["-c", "import " + ", ".join(["bankadapt.cli", *modules])])


def child_peak_rss(args) -> int:
    """Peak RSS in bytes of `python args`, from its own rusage (Linux KiB)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", SPAWN_AND_REPORT_MAXRSS,
                           sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)
    return int(done.stdout.split()[-1]) * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_sample_stays_within_its_budget_end_to_end(tmp_path):
    """sample on a 200,000-record bank (57 MiB) peaks, beyond a child that
    imports bankadapt.cli and the code an import of it held before it
    loaded a command's modules lazily (the scorer, the samples.csv writer
    and hashlib), at no more than what it keeps (the stored feats of up to
    2*k1*C label-bank candidates, and the ids and latent classes of the
    k1*C records of the label bank), the scorer's memory budget, and what
    the reader holds: its block buffer, a block's float32 sums of squares,
    which the scorer takes on, and the float64 copy of a block the float32
    screen cannot certify (twice its bytes); the scorer copies to float64
    only the rows its own screen keeps, inside its budget.  The captions
    are ASCII, so no page of their continuation bitmap (0.56 MiB) is
    written.
    A slack of one more block covers what a trace of ru_maxrss shows
    besides: the checks' masks and the scorer's gathers, and numpy.random,
    which stage 2 imports once the reader has freed its buffers.  feats
    itself is scored while it is read and never held whole: a sample that
    decodes it first (12.8 MiB here), keeps latent_class whole (0.8 MiB),
    writes the whole bitmap or reads through a 4 MiB block breaks the
    bound (about 4.0 MiB now, 6.0 allowed)."""
    m, d = 200_000, 16
    bank = random_bank(seed=17, m=m, d_img=32, d=d)
    bank_path, ds_path = tmp_path / "bank.datb", tmp_path / "train.datd"
    encode_bank_file(bank, bank_path)
    encode_dataset_file(random_dataset(seed=17, n=12, n_classes=3, d_img=32, d=d),
                        ds_path)
    budget = 4 << 20
    base = import_peak_rss("bankadapt.sampler", "bankadapt.sample_csv", "hashlib")
    peak = child_peak_rss(["-m", "bankadapt.cli", "sample", "--bank", str(bank_path),
                           "--dataset", str(ds_path), "--memory_budget_bytes",
                           str(budget), "--out_dir", str(tmp_path / "out")])
    k1 = default_k1(12, 3, RunConfig().stage1_multiplier)
    kept = 2 * k1 * 3 * d * 4 + k1 * 3 * (8 + 4)
    allowed = kept + budget + 4 * embank._BLOCK_BYTES
    assert peak - base <= allowed, (peak - base, allowed)
    assert allowed < bank_path.stat().st_size


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_synth_gen_stays_within_the_arrays_it_must_hold(tmp_path, monkeypatch):
    """synth-gen of a 200,000-record bank (D_img 32, d 16), with one BLAS
    thread, peaks beyond a child that imports bankadapt.cli, the generator
    and hashlib when it writes the bank.  It then holds the float32
    images, feats and caption_feats (4m(D + 2d) bytes), the latent classes
    (4m), the bank's caption table, whose entries point into its
    vocabulary (16m), and the one block of the caption table the writer
    packs at a time: its bytes (at most w x 8,192, with w = 25 bytes,
    "a photo of distractor-49."), its int64 byte indices and the offsets
    added to them (16w x 8,192).  That is 276m bytes and 3.3 MiB (56.0
    MiB).  A slack of 8 MiB covers the downstream sets, numpy.random
    (2 MiB beyond the hashlib it loads), the BLAS buffers and the pages
    the allocator keeps.  About 62.7 MiB now, against 64.0 allowed.  The
    images are made a block of rows at a time: drawing their noise in one
    float64 array, as once, breaks the bound, and so do laying out the
    whole packed table and blob before writing them (68.9) and packing
    every caption by one gather (139.7)."""
    m, d_img, d = 200_000, 32, 16
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    base = import_peak_rss("bankadapt.synth", "hashlib")
    peak = child_peak_rss(["-m", "bankadapt.cli", "synth-gen", "--bank_size", str(m),
                           "--n_classes", "50", "--n_per_class", "40",
                           "--image_dim", str(d_img), "--feat_dim", str(d),
                           "--out_dir", str(tmp_path)])
    widest = len("a photo of distractor-49.")
    held = 4 * m * (d_img + 2 * d) + 20 * m + widest * 17 * embank._GATHER_ROWS
    allowed = held + (8 << 20)
    assert peak - base <= allowed, (peak - base, allowed)
    assert embank.read_bank(tmp_path / "bank.datb", ())[1] == {
        "records": m, "image_dim": d_img, "feat_dim": d}


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_train_on_samples_stays_within_what_it_holds(tmp_path, monkeypatch):
    """train --samples on a world of the frozen recipe (8,000 records, the
    full variant's 84 steps), with one BLAS thread, peaks beyond a child
    that imports bankadapt.cli, numpy.random (which train's first draw
    imports) and what the run loads of the code bankadapt.cli once held
    (the trainer, the samples.csv reader and hashlib; this world's fit
    clamps once, and counts it) at no more than what the bank read and a
    step hold, as if both were alive at once: the images and caption_feats
    of the records the csv names, the reader's block buffer and a
    caption_feats block's float64 copy (three blocks), the downstream
    images, and two n x n float64 arrays of the largest contrastive batch
    (n = b + 2u = 288): the loss's buffer, and as much again for the
    step's forward and backward arrays.  A slack of two blocks covers the
    checks' temporaries and the pages the allocator keeps.  About 3.1 MiB
    now against 4.0 allowed; logging, imported to warn of the clamp, took
    3.8.  Keeping images and caption_feats of every record (1.5 MiB here)
    took 3.6-3.8, within this bound: the next test bounds that on a larger
    bank.  A 4 MiB reader block and the n x n matrices of the matrix-form
    loss took 6.3 (with logging)."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    recipe, world, sampled = tmp_path / "bench.cfg", tmp_path / "w", tmp_path / "s"
    write_config(BENCH, recipe)
    assert run(["synth-gen", "--config", str(recipe), "--out_dir", str(world)]) == 0
    files = ["--bank", str(world / "bank.datb"), "--dataset", str(world / "train.datd")]
    assert run(["sample", "--config", str(recipe), *files,
                "--out_dir", str(sampled)]) == 0
    base = import_peak_rss("numpy.random", "bankadapt.trainer", "bankadapt.sample_csv",
                           "hashlib")
    peak = child_peak_rss(["-m", "bankadapt.cli", "train", "--config", str(recipe),
                           *files, "--eval_dataset", str(world / "eval.datd"),
                           "--samples", str(sampled / "samples.csv"),
                           "--out_dir", str(tmp_path / "t")])
    cfg = BENCH
    n = cfg.batch_size * (1 + 2 * cfg.mu)
    images = (cfg.n_per_class + cfg.eval_n_per_class) * cfg.n_classes * cfg.image_dim * 4
    selected = len((sampled / "samples.csv").read_text().splitlines()) - 1
    held = selected * (cfg.image_dim + cfg.feat_dim) * 4 + images + 2 * 8 * n * n
    allowed = held + 5 * embank._BLOCK_BYTES
    assert peak - base <= allowed, (peak - base, allowed)


def test_the_benchmark_trains_as_train_does(tmp_path):
    """Seed 0's full fit of the frozen benchmark writes, byte for byte, the
    metrics.csv and encoder.datc of train with BENCH's keys: on the
    synthetic world, and with --samples on that world's synth-gen and
    sample files, the path perfbench times as train-full."""
    result = benchmark.run_variant(benchmark.build_world(0), "full")
    assert (result.final_acc, sum(m.n_confident for m in result.metrics)) == (
        0.692, 5215)
    fitted = tmp_path / "fit"
    fitted.mkdir()
    write_metrics_csv(result.metrics, fitted / "metrics.csv")
    save_params(result.params, fitted / "encoder.datc")
    recipe, world, sampled = tmp_path / "bench.cfg", tmp_path / "w", tmp_path / "s"
    write_config(BENCH, recipe)
    config = ["--config", str(recipe)]
    assert run(["train", *config, "--out_dir", str(tmp_path / "synthetic")]) == 0
    assert run(["synth-gen", *config, "--out_dir", str(world)]) == 0
    files = ["--bank", str(world / "bank.datb"), "--dataset", str(world / "train.datd")]
    assert run(["sample", *config, *files, "--out_dir", str(sampled)]) == 0
    assert run(["train", *config, *files, "--eval_dataset", str(world / "eval.datd"),
                "--samples", str(sampled / "samples.csv"),
                "--out_dir", str(tmp_path / "files")]) == 0
    for name in ("metrics.csv", "encoder.datc"):
        want = (fitted / name).read_bytes()
        assert (tmp_path / "synthetic" / name).read_bytes() == want, name
        assert (tmp_path / "files" / name).read_bytes() == want, name


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("with_samples", [True, False])
def test_train_on_a_bank_file_holds_only_the_rows_it_trains_on(tmp_path, monkeypatch,
                                                               with_samples):
    """train on a 200,000-record bank (57 MiB), with one BLAS thread, peaks
    beyond a child that imports bankadapt.cli and numpy.random at no more
    than the model of test_train_on_samples_stays_within_what_it_holds,
    with the selected rows of images and caption_feats in place of whole
    fields, and, for a selection made by the run itself, what sample holds
    beside it (the label bank's stored feats, ids and latent classes, and
    the scorer's memory budget).  Keeping images and caption_feats of every
    record (36.6 MiB here) breaks the bound, and so does keeping feats as
    well (48.8 MiB); about 2.9 MiB with samples and 4.4 without, against
    3.8 and 7.8 allowed."""
    m, d_img, d = 200_000, 32, 16
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    bank_path, ds_path = tmp_path / "bank.datb", tmp_path / "train.datd"
    encode_bank_file(random_bank(seed=17, m=m, d_img=d_img, d=d), bank_path)
    ds = random_dataset(seed=17, n=12, n_classes=3, d_img=d_img, d=d)
    encode_dataset_file(ds, ds_path)
    files = ["--bank", str(bank_path), "--dataset", str(ds_path)]
    assert run(["sample", *files, "--out_dir", str(tmp_path / "s")]) == 0
    samples = tmp_path / "s" / "samples.csv"
    selected = len(samples.read_text().splitlines()) - 1
    extra = ["--samples", str(samples)] if with_samples else []
    base = child_peak_rss(["-c", "import bankadapt.cli, numpy.random"])
    peak = child_peak_rss(["-m", "bankadapt.cli", "train", *files, *extra,
                           "--out_dir", str(tmp_path / "t")])
    cfg = RunConfig()
    n = cfg.batch_size * (1 + 2 * cfg.mu)
    held = selected * (d_img + d) * 4 + ds.images.nbytes + 2 * 8 * n * n
    if not with_samples:
        k1 = default_k1(ds.size, ds.n_classes, cfg.stage1_multiplier)
        held += (2 * k1 * ds.n_classes * d * 4 + k1 * ds.n_classes * (8 + 4)
                 + cfg.memory_budget_bytes)
    allowed = held + 5 * embank._BLOCK_BYTES
    assert peak - base <= allowed, (peak - base, allowed)


def test_sample_reports_precision_above_in_dist_rate(tmp_path, capsys):
    out = tmp_path / "s"
    code = run(["sample", *TINY, "--in_dist_fraction", "0.25",
                "--out_dir", str(out)])
    assert code == 0
    text = (out / "precision.txt").read_text()
    p2 = float(text.splitlines()[1].split("=")[1])
    assert p2 > 0.25
    assert (out / "samples.csv").exists()


def test_sample_removes_the_precision_of_an_earlier_bank(tmp_path, capsys):
    """A bank file's latent classes are kept only at the label bank's ids,
    and the precisions reported from them are those of the decoded bank.  A
    bank with no latent class reports none, and removes the precision.txt
    an earlier run wrote into the same out_dir."""
    world, out = tmp_path / "world", tmp_path / "out"
    assert run(["synth-gen", *TINY, "--out_dir", str(world)]) == 0
    bank_path, ds_path = world / "bank.datb", world / "train.datd"
    bank, ds = decode_bank_file(bank_path), decode_dataset_file(ds_path)
    s1 = stage1_sample(bank, ds, RunConfig())
    s2 = stage2_sample(s1, ds, RunConfig())
    p1, p2 = (sampler_precision(with_latent_class(s, bank), ds) for s in (s1, s2))
    args = ["sample", "--dataset", str(ds_path), "--out_dir", str(out)]
    assert run([*args, "--bank", str(bank_path)]) == 0
    assert (out / "precision.txt").read_text() == (
        f"stage1_precision = {p1!r}\nstage2_precision = {p2!r}\n")
    bank.latent_class[:] = -1
    encode_bank_file(bank, tmp_path / "unknown.datb")
    capsys.readouterr()
    assert run([*args, "--bank", str(tmp_path / "unknown.datb")]) == 0
    assert "precision not reported" in capsys.readouterr().out
    assert not (out / "precision.txt").exists()


def test_latent_classes_change_only_the_precision(tmp_path):
    """Only the precision report reads latent_class: a bank file whose
    latent classes are all -1, or permuted, gives the samples and deficits
    of the original, and the metrics and checkpoint of train, with its
    samples and with its own selection."""
    world = tmp_path / "world"
    assert run(["synth-gen", *TINY, "--out_dir", str(world)]) == 0
    bank = decode_bank_file(world / "bank.datb")
    variants = {"original": bank.latent_class,
                "unknown": np.full_like(bank.latent_class, -1),
                "permuted": np.random.default_rng(0).permutation(bank.latent_class)}
    outputs, precision = {}, {}
    for name, classes in variants.items():
        path, out = tmp_path / f"{name}.datb", tmp_path / name
        encode_bank_file(replace(bank, latent_class=classes), path)
        files = [*TINY, "--bank", str(path), "--dataset", str(world / "train.datd")]
        assert run(["sample", *files, "--out_dir", str(out / "s")]) == 0
        assert run(["train", *files, "--samples", str(out / "s" / "samples.csv"),
                    "--out_dir", str(out / "t")]) == 0
        assert run(["train", *files, "--out_dir", str(out / "u")]) == 0
        outputs[name] = {f: (out / f).read_bytes() for f in (
            "s/samples.csv", "s/deficits.csv", "t/metrics.csv", "t/encoder.datc",
            "u/metrics.csv", "u/encoder.datc")}
        report = out / "s" / "precision.txt"
        precision[name] = report.read_text() if report.exists() else None
    assert outputs["unknown"] == outputs["original"] == outputs["permuted"]
    # the variants do reach the report
    assert precision["unknown"] is None
    assert precision["original"] is not None
    assert precision["permuted"] not in (None, precision["original"])


def test_sample_writes_deficits_that_sum_to_the_reported_shortfall(tmp_path, capsys):
    out = tmp_path / "s"
    assert run(["sample", *TINY, "--out_dir", str(out)]) == 0
    short = int(re.search(r"stage 2 kept \d+ \((\d+) short\)",
                          capsys.readouterr().out).group(1))
    rows = (out / "deficits.csv").read_text().splitlines()
    assert rows[0] == "column,deficit"
    columns, deficits = zip(*(map(int, row.split(",")) for row in rows[1:]))
    assert list(columns) == list(range(3 * 6))  # one per downstream image
    assert short > 0
    assert sum(deficits) == short


def test_sample_rejects_a_non_positive_budget_before_decoding(tmp_path, capsys):
    # the files do not exist: decoding them would exit 2, not 1
    for budget in ("0", "-1"):
        code = run(["sample", "--bank", str(tmp_path / "missing.datb"),
                    "--dataset", str(tmp_path / "missing.datd"),
                    "--memory_budget_bytes", budget, "--out_dir", str(tmp_path)])
        assert code == 1
        assert "memory_budget_bytes" in capsys.readouterr().err
    assert run(["sample", *TINY, "--memory_budget_bytes", "1",
                "--out_dir", str(tmp_path / "s")]) == 0


def test_sample_rejects_a_non_positive_stage2_keep_before_decoding(tmp_path, capsys):
    # the files do not exist: decoding them would exit 2, not 1
    code = run(["sample", "--bank", str(tmp_path / "missing.datb"),
                "--dataset", str(tmp_path / "missing.datd"),
                "--stage2_keep", "-1", "--out_dir", str(tmp_path / "o")])
    assert code == 1
    assert "'stage2_keep'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sample_rejects_a_negative_seed_before_decoding(tmp_path, capsys):
    # the files do not exist: decoding them would exit 2, not 1
    code = run(["sample", "--bank", str(tmp_path / "missing.datb"),
                "--dataset", str(tmp_path / "missing.datd"),
                "--seed", "-1", "--out_dir", str(tmp_path / "o")])
    assert code == 1
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_flag_makes_a_config_file_value_valid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_weak = 0.6\n")
    tiny = TINY[:TINY.index("--sigma_strong")]
    assert run(["sample", *tiny, "--config", str(cfg),
                "--out_dir", str(tmp_path / "a")]) == 1
    assert "'sigma_weak'" in capsys.readouterr().err
    out = tmp_path / "b"
    assert run(["sample", *tiny, "--config", str(cfg), "--sigma_strong", "0.8",
                "--out_dir", str(out)]) == 0
    lines = (out / "resolved-sample.cfg").read_text().splitlines()
    assert "sigma_weak = 0.6" in lines and "sigma_strong = 0.8" in lines


def test_train_writes_outputs(tmp_path, capsys):
    out = tmp_path / "t"
    assert run(["train", *TINY, "--out_dir", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "encoder.datc").exists()
    assert (out / "resolved-train.cfg").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == ("step,epoch,loss_x,loss_u,loss_con,loss_total,"
                      "n_confident,grad_norm,acc_eval")


def test_train_rerun_from_resolved_config_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["train", *TINY, "--out_dir", str(a)]) == 0
    assert run(["train", "--config", str(a / "resolved-train.cfg"),
                "--out_dir", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "encoder.datc").read_bytes() == (b / "encoder.datc").read_bytes()


def test_train_help_shows_every_key_with_its_declared_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a help text
    with pytest.raises(SystemExit) as done:
        main(["train", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = config_values(RunConfig())
    assert len(config_help()) == len(defaults) == 38
    for key, help_text in config_help().items():
        assert (f"--{key} V {help_text} (default: {format_value(defaults[key])})"
                in text), key


def test_only_the_command_run_takes_the_config_flags(capsys):
    # the top-level help still lists every subcommand, and a subcommand's
    # help its flags; a parser built for train gives sample none of them
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    listed = capsys.readouterr().out
    for command in cli.COMMANDS:
        assert f"    {command} " in listed, command
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    assert "--mu V" in capsys.readouterr().out
    parser = cli.build_parser("train")
    assert parser.parse_args(["train", "--mu", "1"]).mu == "1"
    with pytest.raises(SystemExit):
        parser.parse_args(["sample", "--mu", "1"])
    assert "unrecognized arguments: --mu 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--no-unlabeled", "--no-contrastive"])
def test_ablation_alias_flags_are_gone(flag, capsys):
    # --eta 0 and --lambda 0 are the one spelling of each ablation
    with pytest.raises(SystemExit) as done:
        main(["train", flag])
    assert done.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "train", "sweep"])
@pytest.mark.parametrize("given, named", [
    (("bank",), "'dataset'"),
    (("dataset",), "'bank'"),
    (("eval_dataset",), "'bank' and 'dataset'"),
    (("bank", "eval_dataset"), "'dataset'"),
    (("dataset", "eval_dataset"), "'bank'"),
])
def test_a_lone_data_path_exits_one_before_reading(tmp_path, capsys, command,
                                                   given, named):
    # the files do not exist: reading them would exit 2, not 1
    paths = [arg for key in given
             for arg in (f"--{key}", str(tmp_path / f"missing-{key}"))]
    out = tmp_path / "o"
    assert run([command, *paths, "--out_dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"key {given[0]!r} is set without {named}" in err
    assert not out.exists()


def test_synth_gen_writes_a_lone_bank_path(tmp_path):
    bank = tmp_path / "only.datb"
    assert run(["synth-gen", *TINY, "--bank", str(bank),
                "--out_dir", str(tmp_path / "w")]) == 0
    assert bank.exists() and (tmp_path / "w" / "train.datd").exists()


def test_full_file_pipeline(tmp_path, capsys):
    world = tmp_path / "w"
    assert run(["synth-gen", *TINY, "--out_dir", str(world)]) == 0
    sdir = tmp_path / "s"
    assert run(["sample", *TINY, "--bank", str(world / "bank.datb"),
                "--dataset", str(world / "train.datd"),
                "--out_dir", str(sdir)]) == 0
    tdir = tmp_path / "t"
    assert run(["train", *TINY, "--bank", str(world / "bank.datb"),
                "--dataset", str(world / "train.datd"),
                "--eval_dataset", str(world / "eval.datd"),
                "--samples", str(sdir / "samples.csv"),
                "--out_dir", str(tdir)]) == 0
    capsys.readouterr()
    edir = tmp_path / "e"
    assert run(["eval", "--checkpoint", str(tdir / "encoder.datc"),
                "--dataset", str(world / "eval.datd"),
                "--out_dir", str(edir)]) == 0
    out = capsys.readouterr().out
    assert "accuracy = " in out
    assert (edir / "eval.txt").exists()


def test_eval_requires_paths():
    assert run(["eval"]) == 1


@pytest.mark.parametrize("command, flag", [
    ("sample", "--dataset"), ("train", "--dataset"),
    ("train --samples", "--dataset"), ("train", "--eval_dataset"),
    ("eval", "--dataset")])
def test_a_dataset_of_no_image_is_refused(tmp_path, capsys, command, flag):
    paths = {n: tmp_path / n for n in ("b.datb", "t.datd", "s.csv", "e.datc")}
    encode_bank_file(random_bank(), paths["b.datb"])
    encode_dataset_file(random_dataset(), paths["t.datd"])
    empty = tmp_path / "empty.datd"
    encode_dataset_file(random_dataset(n=0, n_classes=50), empty)
    paths["s.csv"].write_text("record_id,assigned_column,score\n0,0,0.5\n")
    save_params(init_params(0, 6, 5, 4, 50), paths["e.datc"])
    name, *extra = command.split()
    args = {"--bank": paths["b.datb"], "--dataset": paths["t.datd"]}
    if name == "eval":
        args = {"--checkpoint": paths["e.datc"], "--dataset": paths["t.datd"]}
    if extra:
        args["--samples"] = paths["s.csv"]
    args[flag] = empty
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([name, *(str(v) for kv in args.items() for v in kv),
                "--epochs", "1", "--out_dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dataset {empty} holds no image\n"
    assert not out.exists()


DATASET_SIZES = {"classes": 3, "image_dim": 6, "feat_dim": 4}


def _write_artifacts(tmp_path, sizes: dict, m: int) -> dict:
    """Write a dataset of DATASET_SIZES, a bank of m records, an eval
    dataset and a checkpoint, and return their paths by _AGREE row name;
    sizes maps a row name to the sizes its artifact takes in place of the
    dataset's."""
    paths = {"dataset": tmp_path / "t.datd", "bank": tmp_path / "b.datb",
             "eval dataset": tmp_path / "e.datd", "checkpoint": tmp_path / "c.datc"}
    of = {name: {**DATASET_SIZES, **sizes.get(name, {})} for name in paths}
    encode_dataset_file(random_dataset(), paths["dataset"])
    encode_bank_file(random_bank(m=m, d_img=of["bank"]["image_dim"],
                                 d=of["bank"]["feat_dim"]), paths["bank"])
    ev = of["eval dataset"]
    encode_dataset_file(random_dataset(n_classes=ev["classes"], d_img=ev["image_dim"],
                                       d=ev["feat_dim"]), paths["eval dataset"])
    ck = of["checkpoint"]
    save_params(init_params(0, ck["image_dim"], 5, ck["feat_dim"], ck["classes"]),
                paths["checkpoint"])
    return paths


@pytest.mark.parametrize("command, artifact, size, value, m", [
    ("eval", "checkpoint", "classes", 2, 17),
    ("eval", "checkpoint", "classes", 5, 17),
    ("eval", "checkpoint", "image_dim", 9, 17),
    ("eval", "checkpoint", "feat_dim", 7, 17),
    *((command, "eval dataset", size, value, 17)
      for command in ("train", "sweep --mu_list 2 --t_list 0.9")
      for size, value in (("classes", 4), ("image_dim", 9), ("feat_dim", 5))),
    *((command, "bank", size, value, 17)
      for command in ("train", "train --samples", "train --mu 0",
                      "sweep --mu_list 2 --t_list 0.9", "sweep --mu_list 0")
      for size, value in (("image_dim", 9), ("feat_dim", 5))),
    ("sample", "bank", "image_dim", 9, 30),
    ("sample", "bank", "feat_dim", 5, 30),
    ("sample", "bank", "feat_dim", 5, 0)])
def test_an_artifact_of_other_sizes_than_the_dataset_is_refused(
        tmp_path, capsys, monkeypatch, command, artifact, size, value, m):
    # Each pair a command opens, with one size of the artifact another than
    # the dataset's, is refused from the two headers: no bank is sampled or
    # read, no checkpoint loaded, nothing fitted or scored.
    paths = _write_artifacts(tmp_path, {artifact: {size: value}}, m)
    samples = tmp_path / "s.csv"
    samples.write_text("record_id,assigned_column,score\n0,0,0.5\n")
    name, *extra = command.split()
    if extra == ["--samples"]:
        extra.append(str(samples))
    opened = ["checkpoint" if name == "eval" else "bank", "dataset"]
    if artifact == "eval dataset":
        opened.append(artifact)
    args = [name, *(v for a in opened for v in (f"--{a.replace(' ', '_')}",
                                                 str(paths[a]))),
            *extra, "--epochs", "1", "--out_dir", str(tmp_path / "out")]
    ran = []
    for spied in ("stage1_sample", "decode_bank_file", "load_params", "fit",
                  "evaluate"):
        monkeypatch.setattr(cli, spied, _counted(getattr(cli, spied), spied, ran))
    capsys.readouterr()
    assert run(args) == 1
    told = "{} classes" if size == "classes" else f"{size} {{}}"
    assert capsys.readouterr().err == (
        f"error: {artifact} {paths[artifact]} has {told.format(value)}, "
        f"dataset {paths['dataset']} has {told.format(DATASET_SIZES[size])}\n")
    assert ran == []
    assert not (tmp_path / "out").exists()
    # the same command on an artifact of the dataset's sizes gets past the
    # check; an empty bank then holds no label bank to re-rank
    _write_artifacts(tmp_path, {}, m)
    assert run(args) == (0 if m else 1)
    if not m:
        assert capsys.readouterr().err == \
            "error: label bank is empty, nothing to re-rank\n"


def test_every_size_of_a_pair_is_in_both_headers():
    for layout, agree in cli._AGREE.values():
        assert set(agree) <= set(layout.sizes)
        assert set(agree.values()) <= set(embank.DATD.sizes)


def _counted(fn, name: str, calls: list):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counted


def test_every_traced_name_resolves(tmp_path, monkeypatch):
    # perfbench/tracer.py wraps these names; a missing one would only be
    # reported as "not traced".  It sets its wrappers on the modules, so a
    # bankadapt.cli name must be the function its command calls, whether
    # bankadapt.cli had resolved it (it imports a command's modules when
    # the command runs) or not.
    tree = ast.parse(PERFBENCH_TRACER.read_text(encoding="utf-8"))
    (points,) = [node.value for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and getattr(node.targets[0], "id", "") == "WRAP_POINTS"]
    names = [(p.elts[0].value, p.elts[1].value) for p in points.elts]
    assert ("bankadapt.objective", "param_gradients") in names
    for module, attr in names:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    traced = {attr for module, attr in names if module == "bankadapt.cli"}
    assert {"stage1_sample", "fit", "decode_bank_file"} <= traced
    calls = []
    for attr in traced:
        monkeypatch.setattr(cli, attr, _counted(getattr(cli, attr), attr, calls))
    world = tmp_path / "w"
    files = ["--bank", str(world / "bank.datb"), "--dataset", str(world / "train.datd")]
    assert run(["synth-gen", *TINY, "--out_dir", str(world)]) == 0
    assert run(["sample", *TINY, *files, "--out_dir", str(tmp_path / "s")]) == 0
    assert run(["train", *TINY, *files, "--samples", str(tmp_path / "s" / "samples.csv"),
                "--out_dir", str(tmp_path / "t")]) == 0
    assert set(calls) == traced


# `python -m bankadapt.cli` with the arguments after -c, which prints, as
# its last line, the modules loaded when it exits.
MODULES_AT_EXIT = ("import runpy, sys\n"
                   "try:\n"
                   "    runpy.run_module('bankadapt.cli', run_name='__main__',\n"
                   "                     alter_sys=True)\n"
                   "finally:\n"
                   "    print(*sorted(sys.modules))\n")


def modules_at_exit(args) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", MODULES_AT_EXIT, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


TRAINER = {"bankadapt.trainer", "bankadapt.objective", "bankadapt.losses",
           "bankadapt.augment", "bankadapt.pseudo_triplets"}


@pytest.fixture(scope="module")
def clamping_worlds(tmp_path_factory):
    """train-full's worlds 0 and 3 (the frozen recipe at seeds 0 and 3),
    each made by synth-gen and sampled: per seed, the arguments of train
    --samples on that world, all but --out_dir.  train's cross-entropy
    terms clamp a probability once over world 0's 84 steps and three times
    over world 3's."""
    root = tmp_path_factory.mktemp("clamping")
    recipe = root / "bench.cfg"
    write_config(BENCH, recipe)
    worlds = {}
    for seed in (0, 3):
        world, sampled = root / f"w{seed}", root / f"s{seed}"
        common = ["--config", str(recipe), "--seed", str(seed),
                  "--bank", str(world / "bank.datb"),
                  "--dataset", str(world / "train.datd")]
        assert run(["synth-gen", *common, "--out_dir", str(world)]) == 0
        assert run(["sample", *common, "--out_dir", str(sampled)]) == 0
        worlds[seed] = ["train", *common, "--eval_dataset", str(world / "eval.datd"),
                        "--samples", str(sampled / "samples.csv")]
    return worlds


def test_each_command_loads_only_the_modules_it_runs(tmp_path, clamping_worlds):
    # a train that clamps counts its clamps and loads no logging; eval and
    # inspect make no draw, so neither numpy.random nor hashlib (for
    # blake2b) is loaded
    world, sampled, trained = tmp_path / "w", tmp_path / "s", tmp_path / "t"
    files = ["--bank", str(world / "bank.datb"), "--dataset", str(world / "train.datd")]
    cases = [
        (["synth-gen", *TINY, "--out_dir", str(world)], {"bankadapt.synth"},
         {"bankadapt.sampler", "bankadapt.trainer", "bankadapt.gradcheck"}),
        (["sample", *TINY, *files, "--out_dir", str(sampled)], {"bankadapt.sampler"},
         TRAINER | {"bankadapt.gradcheck", "bankadapt.synth", "logging"}),
        (["train", *TINY, *files, "--samples", str(sampled / "samples.csv"),
          "--out_dir", str(trained)], TRAINER,
         {"bankadapt.sampler", "bankadapt.synth", "bankadapt.gradcheck", "logging"}),
        ([*clamping_worlds[0], "--out_dir", str(tmp_path / "clamps")], TRAINER,
         {"bankadapt.sampler", "bankadapt.synth", "bankadapt.gradcheck", "logging"}),
        (["eval", "--checkpoint", str(trained / "encoder.datc"),
          "--dataset", str(world / "eval.datd"), "--out_dir", str(tmp_path / "e")],
         {"bankadapt.trainer"}, {"numpy.random", "hashlib"}),
        (["inspect", str(world / "bank.datb")], {"bankadapt.embank"},
         {"numpy.random", "hashlib"}),
    ]
    for args, loads, skips in cases:
        modules = modules_at_exit(args)
        assert loads <= modules, (args[0], loads - modules)
        assert not skips & modules, (args[0], skips & modules)


def test_train_reports_its_clamps_in_one_stderr_line(tmp_path, clamping_worlds, capsys):
    """World 3's fit clamps three probabilities in its 84 steps: one line
    on stderr says so, and stdout is the one line of a fit without a clamp."""
    out = tmp_path / "t"
    capsys.readouterr()
    assert run([*clamping_worlds[3], "--out_dir", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.err == "train: cross_entropy clamped 3 probabilities to 1e-12\n"
    acc = float((out / "metrics.csv").read_text().splitlines()[-1].split(",")[-1])
    assert printed.out == (f"84 steps -> {out / 'metrics.csv'}, {out / 'encoder.datc'}, "
                           f"eval acc {acc:.4f}\n")


def test_bad_flag_value_exits_one(tmp_path, capsys):
    assert run(["train", "--epochs", "twelve",
                "--out_dir", str(tmp_path / "x")]) == 1


def test_missing_data_file_exits_two(tmp_path):
    assert run(["train", "--bank", str(tmp_path / "no.datb"),
                "--dataset", str(tmp_path / "no.datd"),
                "--out_dir", str(tmp_path / "o")]) == 2


def test_train_with_missing_samples_file_exits_two(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["train", *TINY, "--samples", str(tmp_path / "no.csv"),
                "--out_dir", str(out)]) == 2
    assert "no.csv" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("row", ["4,1", "", "4,-1,0.5", "4.0,1,0.5"],
                         ids=["short row", "blank line", "negative column",
                              "non-integer id"])
def test_train_refuses_a_malformed_samples_row(tmp_path, capsys, row):
    samples = tmp_path / "s.csv"
    samples.write_text(f"record_id,assigned_column,score\n3,0,0.5\n{row}\n"
                       "5,1,0.25\n")
    out = tmp_path / "o"
    assert run(["train", *TINY, "--samples", str(samples),
                "--out_dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{samples} line 3:" in err
    assert not (out / "metrics.csv").exists()


def test_train_refuses_a_samples_file_with_no_row(tmp_path, capsys):
    # a header alone leaves no unlabeled row to draw at mu > 0; mu = 0
    # draws none and accepts it
    samples = tmp_path / "s.csv"
    samples.write_text("record_id,assigned_column,score\n")
    out = tmp_path / "o"
    assert run(["train", *TINY, "--samples", str(samples),
                "--out_dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(samples) in err
    assert not (out / "metrics.csv").exists()
    assert run(["train", *TINY, "--mu", "0", "--epochs", "1", "--samples",
                str(samples), "--out_dir", str(out)]) == 0
    assert (out / "metrics.csv").exists()


def test_train_refuses_a_samples_file_that_repeats_an_id(tmp_path, capsys):
    # 05 and 5 name the same record
    samples = tmp_path / "s.csv"
    samples.write_text("record_id,assigned_column,score\n5,0,0.5\n3,1,0.25\n"
                       "05,1,0.125\n")
    out = tmp_path / "o"
    assert run(["train", *TINY, "--samples", str(samples),
                "--out_dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{samples} lines 2 and 4:" in err and "record_id 5 " in err
    assert not (out / "metrics.csv").exists()


def test_train_with_samples_from_a_larger_bank_exits_one(tmp_path, capsys):
    big, small = tmp_path / "big", tmp_path / "small"
    assert run(["synth-gen", *TINY, "--bank_size", "1200",
                "--out_dir", str(big)]) == 0
    assert run(["synth-gen", *TINY, "--out_dir", str(small)]) == 0
    assert run(["sample", *TINY, "--bank", str(big / "bank.datb"),
                "--dataset", str(big / "train.datd"),
                "--out_dir", str(big)]) == 0
    ids = np.loadtxt(big / "samples.csv", delimiter=",", skiprows=1,
                     usecols=0, dtype=np.int64)
    first_bad = int(ids[np.flatnonzero(ids >= 300)[0]])
    capsys.readouterr()
    assert run(["train", *TINY, "--bank", str(small / "bank.datb"),
                "--dataset", str(small / "train.datd"),
                "--samples", str(big / "samples.csv"),
                "--out_dir", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"id {first_bad} is outside" in err


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "overall max relative error" in out


def test_sweep_deterministic_summary(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", *TINY, "--epochs", "1", "--mu_list", "2,3",
            "--t_list", "0.6,0.95"]
    assert run([*args, "--out_dir", str(a)]) == 0
    assert run([*args, "--out_dir", str(b)]) == 0
    sa = (a / "sweep" / "summary.csv").read_bytes()
    assert sa == (b / "sweep" / "summary.csv").read_bytes()
    lines = sa.decode().splitlines()
    assert lines[0] == "mu,t_thresh,final_acc"
    assert len(lines) == 5
    assert (a / "sweep" / "mu2_t0.6" / "metrics.csv").exists()
    assert (a / "sweep" / "mu3_t0.95" / "metrics.csv").exists()


def test_sweep_checks_every_cell_before_training(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["sweep", *TINY, "--epochs", "1", "--mu_list", "2",
                "--t_list", "0.5,1.5", "--out_dir", str(out)]) == 1
    assert "'t_thresh'" in capsys.readouterr().err
    assert not (out / "sweep").exists()


def test_unknown_key_in_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("definitely_not_a_key = 4\n")
    assert run(["train", "--config", str(cfg),
                "--out_dir", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("name", ["w\nx", "v\udc85u"])
def test_an_out_dir_the_echo_cannot_replay_is_refused_first(tmp_path, capsys, name):
    # "v\udc85u" is how argv hands a non-UTF-8 byte (0x85) to Python
    assert run(["synth-gen", *TINY, "--out_dir", str(tmp_path / name)]) == 1
    assert "key 'out_dir': must be one line of UTF-8 text" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_an_out_dir_with_a_trailing_blank_is_refused_first(tmp_path, capsys):
    # "w " names another directory than "w"; neither is made
    assert run(["synth-gen", *TINY, "--out_dir", f"{tmp_path / 'w'} "]) == 1
    assert "key 'out_dir': must be one line of UTF-8 text with no whitespace" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_with_mu_zero_never_samples_the_bank(tmp_path, monkeypatch):
    # no step draws an unlabeled row at mu = 0, even with lambda > 0
    def refuse(*args, **kwargs):
        raise AssertionError("the bank was sampled")

    monkeypatch.setattr(cli, "stage1_sample", refuse)
    assert run(["train", *TINY, "--mu", "0", "--epochs", "1",
                "--out_dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "metrics.csv").exists()


def test_train_with_mu_zero_makes_no_synthetic_bank(tmp_path, monkeypatch):
    # The synthetic streams are keyed per purpose, so skipping the bank
    # moves nothing the fit reads.
    args = [*TINY, "--mu", "0", "--lambda", "1"]
    assert run(["train", *args, "--out_dir", str(tmp_path / "a")]) == 0

    def refuse(*a, **kw):
        raise AssertionError("the bank was generated")

    monkeypatch.setattr(cli, "generate_pretrain_bank", refuse)
    assert run(["train", *args, "--out_dir", str(tmp_path / "b")]) == 0
    for name in ("metrics.csv", "encoder.datc"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_train_with_mu_zero_still_checks_the_bank_file(tmp_path):
    world = tmp_path / "w"
    assert run(["synth-gen", *TINY, "--out_dir", str(world)]) == 0
    bank = world / "bank.datb"
    raw = bytearray(bank.read_bytes())
    raw[-5] ^= 0xFF
    bank.write_bytes(bytes(raw))
    assert run(["train", *TINY, "--mu", "0", "--bank", str(bank),
                "--dataset", str(world / "train.datd"),
                "--out_dir", str(tmp_path / "o")]) == 1


def test_sweep_rerun_from_its_resolved_config(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", *TINY, "--epochs", "1", "--mu_list", "2",
                "--t_list", "0.6", "--out_dir", str(a)]) == 0
    assert run(["sweep", "--config", str(a / "resolved-sweep.cfg"),
                "--out_dir", str(b)]) == 0
    summary = (a / "sweep" / "summary.csv").read_bytes()
    assert summary == (b / "sweep" / "summary.csv").read_bytes()
    assert len(summary.decode().splitlines()) == 2
