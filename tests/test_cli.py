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
from bankadapt.embank import encode_bank_file, encode_dataset_file
from bankadapt.encoder import init_params, save_params

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
    child, at no more than the fields it keeps (feats and latent_class), the
    scorer's memory budget, and a slack of four reader blocks: the reader's
    block buffer and the temporaries of its checks, which also covers the
    captions' 0.6 MiB continuation bitmap and the small downstream set."""
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
    kept = m * d * 4 + m * 4
    allowed = kept + budget + 4 * embank._BLOCK_BYTES
    assert peak - base <= allowed, (peak - base, allowed)
    assert allowed < bank_path.stat().st_size


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


def test_ablation_flags_match_explicit_weights(tmp_path):
    a, b = tmp_path / "flags", tmp_path / "explicit"
    assert run(["train", *TINY, "--no-unlabeled", "--no-contrastive",
                "--mu", "0", "--out_dir", str(a)]) == 0
    assert run(["train", *TINY, "--eta", "0.0", "--lambda", "0.0",
                "--mu", "0", "--out_dir", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


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


def test_sweep_rerun_from_its_resolved_config(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", *TINY, "--epochs", "1", "--mu_list", "2",
                "--t_list", "0.6", "--out_dir", str(a)]) == 0
    assert run(["sweep", "--config", str(a / "resolved-sweep.cfg"),
                "--out_dir", str(b)]) == 0
    summary = (a / "sweep" / "summary.csv").read_bytes()
    assert summary == (b / "sweep" / "summary.csv").read_bytes()
    assert len(summary.decode().splitlines()) == 2
