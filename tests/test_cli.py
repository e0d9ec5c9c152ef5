"""Command line pipeline: subcommands, exit codes, and reproducibility."""

import ast
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bankadapt import cli, embank
from bankadapt.cli import main
from bankadapt.config import RunConfig, config_help, config_values, format_value
from bankadapt.embank import encode_bank_file, encode_dataset_file
from bankadapt.encoder import init_params, save_params
from bankadapt.sampler import default_k1

from conftest import random_bank, random_dataset

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
    block, piece = 1 << 16, 1 << 14
    monkeypatch.setattr(embank, "_BLOCK_BYTES", block)
    monkeypatch.setattr(embank, "_CHECK_BYTES", piece)
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
    # temporaries of four check pieces, less than half of the smallest field
    # (latent_class, 800,000 bytes).
    bitmap = sum(len(c.encode("utf-8")) for c in bank.captions) / 8
    assert peak <= bitmap + block + 4 * piece + bank.latent_class.nbytes / 2, peak
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
    """sample on a 200,000-record bank (57 MiB) peaks, beyond an import-only
    child, at no more than what it keeps (latent_class, and the stored feats
    of up to 2*k1*C label-bank candidates), the scorer's memory budget, and
    a slack of three reader blocks: the reader's block buffer and the
    temporaries of its checks (four pieces, one block), which also covers
    the captions' 0.6 MiB continuation bitmap and the small downstream set.
    feats itself is scored while it is read and never held whole: a sample
    that decodes it first (12.8 MiB here) breaks the bound."""
    m, d = 200_000, 16
    bank_path, ds_path = tmp_path / "bank.datb", tmp_path / "train.datd"
    encode_bank_file(random_bank(seed=17, m=m, d_img=32, d=d), bank_path)
    encode_dataset_file(random_dataset(seed=17, n=12, n_classes=3, d_img=32, d=d),
                        ds_path)
    budget = 4 << 20
    base = child_peak_rss(["-c", "import bankadapt.cli"])
    peak = child_peak_rss(["-m", "bankadapt.cli", "sample", "--bank", str(bank_path),
                           "--dataset", str(ds_path), "--memory_budget_bytes",
                           str(budget), "--out_dir", str(tmp_path / "out")])
    k1 = default_k1(12, 3, RunConfig().stage1_multiplier)
    kept = m * 4 + 2 * k1 * 3 * d * 4
    allowed = kept + budget + 3 * embank._BLOCK_BYTES
    assert peak - base <= allowed, (peak - base, allowed)
    assert allowed < bank_path.stat().st_size


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_synth_gen_stays_within_the_arrays_it_must_hold(tmp_path, monkeypatch):
    """synth-gen of a 200,000-record bank (D_img 32, d 16), with one BLAS
    thread, peaks beyond an import-only child when it embeds the caption
    subjects.  It then holds the shuffled float32 images and feats
    (4m(D + d) bytes), the float64 subject rows, their projection and its
    squares (8mD + 16md), and four integer arrays of m entries: latent
    class, own concept, caption subject and shuffle order (28m).  That is
    732m bytes (140 MiB).  A slack of eight reader blocks (32 MiB) covers
    the downstream sets, the finite check's mask, the BLAS buffers and the
    pages the allocator keeps.  Making each caption a string, or keeping
    float64 copies of the sources, breaks the bound (326 MiB before the
    captions became arrays)."""
    m, d_img, d = 200_000, 32, 16
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    base = child_peak_rss(["-c", "import bankadapt.cli"])
    peak = child_peak_rss(["-m", "bankadapt.cli", "synth-gen", "--bank_size", str(m),
                           "--n_classes", "50", "--n_per_class", "40",
                           "--image_dim", str(d_img), "--feat_dim", str(d),
                           "--out_dir", str(tmp_path)])
    held = 4 * m * (d_img + d) + 8 * m * d_img + 16 * m * d + 28 * m
    allowed = held + 8 * embank._BLOCK_BYTES
    assert peak - base <= allowed, (peak - base, allowed)
    assert embank.describe_bank_file(tmp_path / "bank.datb")[:3] == (m, d_img, d)


def test_sample_reports_precision_above_in_dist_rate(tmp_path, capsys):
    out = tmp_path / "s"
    code = run(["sample", *TINY, "--in_dist_fraction", "0.25",
                "--out_dir", str(out)])
    assert code == 0
    text = (out / "precision.txt").read_text()
    p2 = float(text.splitlines()[1].split("=")[1])
    assert p2 > 0.25
    assert (out / "samples.csv").exists()


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


@pytest.mark.parametrize("n_classes", [2, 5])
def test_eval_refuses_a_dataset_with_another_class_count(tmp_path, capsys,
                                                         n_classes):
    ckpt, same, other = (tmp_path / n for n in ("e.datc", "s.datd", "o.datd"))
    save_params(init_params(0, 6, 5, 4, 3), ckpt)
    encode_dataset_file(random_dataset(n_classes=3), same)
    encode_dataset_file(random_dataset(n_classes=n_classes), other)
    out = ["--out_dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(ckpt), "--dataset", str(other),
                *out]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt} has 3 classes, dataset {other} has {n_classes}" in err
    assert not (tmp_path / "out" / "eval.txt").exists()
    assert run(["eval", "--checkpoint", str(ckpt), "--dataset", str(same),
                *out]) == 0


def test_train_refuses_an_eval_dataset_with_another_class_count(tmp_path, capsys):
    bank, train, other = (tmp_path / n for n in ("b.datb", "t.datd", "e.datd"))
    encode_bank_file(random_bank(), bank)
    encode_dataset_file(random_dataset(n_classes=3), train)
    encode_dataset_file(random_dataset(n_classes=4), other)
    capsys.readouterr()
    assert run(["train", "--bank", str(bank), "--dataset", str(train),
                "--eval_dataset", str(other), "--image_dim", "6",
                "--feat_dim", "4", "--epochs", "1",
                "--out_dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"dataset {train} has 3 classes, dataset {other} has 4" in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("name, d_img, d", [("image_dim", 9, 4),
                                            ("feat_dim", 6, 5)])
def test_train_refuses_an_eval_dataset_of_other_dims_before_fitting(
        tmp_path, capsys, name, d_img, d):
    bank, train, other = (tmp_path / n for n in ("b.datb", "t.datd", "e.datd"))
    encode_bank_file(random_bank(), bank)
    encode_dataset_file(random_dataset(), train)
    encode_dataset_file(random_dataset(d_img=d_img, d=d), other)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", "--bank", str(bank), "--dataset", str(train),
                "--eval_dataset", str(other), "--epochs", "1",
                "--out_dir", str(out)]) == 1
    own = {"image_dim": 6, "feat_dim": 4}[name]
    theirs = {"image_dim": d_img, "feat_dim": d}[name]
    assert (f"dataset {train} has {name} {own}, dataset {other} has {name} "
            f"{theirs}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("with_samples", [True, False])
@pytest.mark.parametrize("name, d_img, d", [("image_dim", 9, 4),
                                            ("feat_dim", 6, 5)])
def test_train_refuses_a_bank_of_other_dims_before_fitting(
        tmp_path, capsys, name, d_img, d, with_samples):
    bank, train, samples = (tmp_path / n for n in ("b.datb", "t.datd", "s.csv"))
    encode_bank_file(random_bank(d_img=d_img, d=d), bank)
    encode_dataset_file(random_dataset(), train)
    samples.write_text("record_id,assigned_column,score\n0,0,0.5\n")
    extra = ["--samples", str(samples)] if with_samples else []
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", "--bank", str(bank), "--dataset", str(train), *extra,
                "--epochs", "1", "--out_dir", str(out)]) == 1
    err = capsys.readouterr().err
    if with_samples or name == "image_dim":
        own = {"image_dim": d_img, "feat_dim": d}[name]
        theirs = {"image_dim": 6, "feat_dim": 4}[name]
        assert f"bank has {name} {own}, dataset has {theirs}" in err
    else:
        # stage 1 refuses first, before any selection is gathered
        assert "bank feat_dim 5 != dataset 4" in err
    assert not out.exists()


@pytest.mark.parametrize("m, d, message", [
    (30, 5, "bank feat_dim 5 != dataset 4"),
    (0, 5, "bank feat_dim 5 != dataset 4"),
    (0, 4, "label bank is empty, nothing to re-rank")])
def test_sample_refuses_a_bank_of_another_feat_dim(tmp_path, capsys, m, d,
                                                   message):
    # an empty bank has no feats row to score, yet its width is still
    # checked against the dataset's before its emptiness is reported
    bank, train = tmp_path / "b.datb", tmp_path / "t.datd"
    encode_bank_file(random_bank(m=m, d=d), bank)
    encode_dataset_file(random_dataset(), train)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["sample", "--bank", str(bank), "--dataset", str(train),
                "--out_dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "samples.csv").exists()


def test_every_traced_name_resolves():
    # perfbench/tracer.py wraps these names; a missing one would only be
    # reported as "not traced"
    tree = ast.parse(PERFBENCH_TRACER.read_text(encoding="utf-8"))
    (points,) = [node.value for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and getattr(node.targets[0], "id", "") == "WRAP_POINTS"]
    names = [(p.elts[0].value, p.elts[1].value) for p in points.elts]
    assert ("bankadapt.objective", "param_gradients") in names
    for module, attr in names:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


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


def test_train_with_mu_zero_never_samples_the_bank(tmp_path, monkeypatch):
    # no step draws an unlabeled row at mu = 0, even with lambda > 0
    def refuse(*args, **kwargs):
        raise AssertionError("the bank was sampled")

    monkeypatch.setattr(cli, "_sample_bank", refuse)
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
