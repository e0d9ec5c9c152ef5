"""Command line front end for the whole pipeline.

Subcommands: synth-gen, sample, train, eval, gradcheck, sweep, inspect.
Every value flag mirrors a config key and arrives as text, so the config
parser is the single place where typing and validation happen.  Each run
echoes its fully resolved configuration into the output directory;
re-running from that file reproduces the outputs byte for byte.

Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    apply_updates,
    config_help,
    config_keys,
    config_values,
    format_value,
    parse_updates,
    write_config,
)
from .embank import (
    DownstreamDataset,
    EmbeddingBank,
    ValidationError,
    decode_bank_file,
    decode_dataset_file,
    describe_bank_file,
    describe_dataset_file,
    encode_bank_file,
    encode_dataset_file,
)
from .encoder import load_params, save_params
from .gradcheck import run_gradient_suite
from .sampler import (
    load_sample_csv,
    sampler_precision,
    save_sample_csv,
    stage1_sample,
    stage2_sample,
)
from .synth import generate_downstream, generate_pretrain_bank
from .trainer import SelectedBank, evaluate, fit, write_metrics_csv

GRADCHECK_TOLERANCE = 1e-4


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="flat key = value file applied before flag overrides")
    key_help = config_help()
    for key, default in config_values(RunConfig()).items():
        sub.add_argument(f"--{key}", metavar="V", dest=key,
                         help=f"{key_help[key]} (default: {format_value(default)})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bankadapt",
        description="Bank-retrieval adaptation pipeline: generate synthetic "
                    "data, sample the bank, train, evaluate, and sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "synth-gen": "write a synthetic bank (DATB) and datasets (DATD)",
        "sample": "run the two-stage sampler and report precision",
        "train": "fit the encoder with the combined objective",
        "eval": "score a checkpoint on a dataset",
        "gradcheck": "verify analytic gradients against finite differences",
        "sweep": "grid over mu and t_thresh, one training run per cell",
        "inspect": "print the parsed header of a DATB/DATD/DATC file",
    }
    parsers = {}
    for name, help_text in specs.items():
        parsers[name] = sub.add_parser(name, help=help_text)
        if name != "inspect":
            _add_config_flags(parsers[name])

    parsers["inspect"].add_argument("path", help="file to inspect")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """File values, then flag values, built and checked as one RunConfig."""
    updates = {}
    if getattr(args, "config", None):
        updates = parse_updates(Path(args.config).read_text(encoding="utf-8"))
    for key in config_keys():
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    return apply_updates(RunConfig(), updates)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: RunConfig, out: Path, command: str) -> None:
    write_config(cfg, out / f"resolved-{command}.cfg")


_SIZES = {"n_classes": "{} classes", "image_dim": "image_dim {}",
          "feat_dim": "feat_dim {}"}


def _check_sizes(what: str, own, ds: DownstreamDataset, path: str,
                 names: tuple[str, ...]) -> None:
    """Refuse ds unless each named size equals own's (a checkpoint's or the
    training dataset's)."""
    for name in names:
        want, got = getattr(own, name), getattr(ds, name)
        if want != got:
            raise ValidationError([f"{what} has {_SIZES[name].format(want)}, "
                                   f"dataset {path} has {_SIZES[name].format(got)}"])


def _from_files(cfg: RunConfig) -> bool:
    """Whether the data comes from files (bank and dataset both set) rather
    than the synthetic world; a data path without both is refused."""
    missing = [key for key in ("bank", "dataset") if not getattr(cfg, key)]
    given = [key for key in ("bank", "dataset", "eval_dataset")
             if getattr(cfg, key)]
    if missing and given:
        raise ConfigError(
            f"key {given[0]!r} is set without "
            f"{' and '.join(repr(key) for key in missing)}: files are read only "
            "with both 'bank' and 'dataset' set; leave every data path unset "
            "for the synthetic world")
    return not missing


def _load_datasets(cfg: RunConfig
                   ) -> tuple[DownstreamDataset, DownstreamDataset | None]:
    """Training and evaluation datasets from files when the bank and dataset
    paths are set, else synthetic."""
    if _from_files(cfg):
        ds = decode_dataset_file(cfg.dataset)
        eval_ds = None
        if cfg.eval_dataset:
            eval_ds = decode_dataset_file(cfg.eval_dataset)
            _check_sizes(f"dataset {cfg.dataset}", ds, eval_ds, cfg.eval_dataset,
                         ("n_classes", "image_dim", "feat_dim"))
        return ds, eval_ds
    return generate_downstream(cfg), generate_downstream(
        cfg, split="test", n_per_class=cfg.eval_n_per_class)


def _bank_source(cfg: RunConfig, ds: DownstreamDataset) -> EmbeddingBank | str:
    """The bank file's path when the bank and dataset paths are set, else
    the synthetic bank for ds."""
    return cfg.bank if _from_files(cfg) else generate_pretrain_bank(cfg, ds)


def _load_bank(cfg: RunConfig, ds: DownstreamDataset,
               fields: tuple[str, ...]) -> EmbeddingBank:
    """The bank of _bank_source; a file is checked whole but keeps only
    fields."""
    source = _bank_source(cfg, ds)
    if isinstance(source, EmbeddingBank):
        return source
    return decode_bank_file(source, fields=fields)


def _sample_bank(cfg: RunConfig, bank: EmbeddingBank, ds: DownstreamDataset):
    s1 = stage1_sample(bank, ds, cfg)
    return s1, stage2_sample(s1, ds, cfg)


def _selected_for_train(cfg: RunConfig, ds: DownstreamDataset) -> SelectedBank:
    """The bank rows training draws unlabeled rows from; the bank is read
    keeping only the fields the selection needs, and dropped on return."""
    if cfg.mu == 0:
        # No step draws an unlabeled row, so no step reads the selection:
        # a bank file is still checked whole, a synthetic one is not made.
        if _from_files(cfg):
            decode_bank_file(cfg.bank, fields=())
        return SelectedBank(ids=np.zeros(0, dtype=np.int64),
                            images=np.zeros((0, ds.image_dim), dtype=np.float32),
                            caption_feats=np.zeros((0, ds.feat_dim),
                                                   dtype=np.float32))
    if cfg.samples:
        ids = load_sample_csv(cfg.samples)
        if ids.size == 0:
            raise ValueError(f"{cfg.samples} holds no record: mu = {cfg.mu} "
                             "needs unlabeled rows to train on")
        bank = _load_bank(cfg, ds, ("images", "caption_feats"))
        return SelectedBank.from_bank(bank, ids, ds)
    bank = _load_bank(cfg, ds, ("images", "feats", "caption_feats"))
    _, s2 = _sample_bank(cfg, bank, ds)
    return SelectedBank.from_bank(bank, s2.selected_ids, ds)


def cmd_synth_gen(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    ds = generate_downstream(cfg)
    eval_ds = generate_downstream(cfg, split="test",
                                  n_per_class=cfg.eval_n_per_class)
    bank = generate_pretrain_bank(cfg, ds)
    bank_path = Path(cfg.bank) if cfg.bank else out / "bank.datb"
    ds_path = Path(cfg.dataset) if cfg.dataset else out / "train.datd"
    eval_path = Path(cfg.eval_dataset) if cfg.eval_dataset else out / "eval.datd"
    encode_bank_file(bank, bank_path)
    encode_dataset_file(ds, ds_path)
    encode_dataset_file(eval_ds, eval_path)
    _echo_config(cfg, out, "synth-gen")
    print(f"bank: {bank_path} ({bank.size} records)")
    print(f"train: {ds_path} ({ds.size} images, {ds.n_classes} classes)")
    print(f"eval: {eval_path} ({eval_ds.size} images)")
    return 0


def cmd_sample(cfg: RunConfig, args) -> int:
    ds, _ = _load_datasets(cfg)
    # a bank file is read once, keeping latent_class; stage 1 scores its
    # feats as they are read
    kept = {}
    s1 = stage1_sample(_bank_source(cfg, ds), ds, cfg, kept)
    bank = kept["bank"]
    s2 = stage2_sample(s1, ds, cfg)
    out = _out_dir(cfg)
    samples_path = Path(cfg.samples) if cfg.samples else out / "samples.csv"
    save_sample_csv(s2, samples_path)
    print(f"stage 1 kept {s1.n_selected} records "
          f"({int(s1.deficits.sum())} short), stage 2 kept {s2.n_selected} "
          f"({int(s2.deficits.sum())} short) -> {samples_path}")
    if bool(np.any(bank.latent_class >= 0)):
        p1 = sampler_precision(s1, bank, ds)
        p2 = sampler_precision(s2, bank, ds)
        report = (f"stage1_precision = {repr(p1)}\n"
                  f"stage2_precision = {repr(p2)}\n")
        (out / "precision.txt").write_text(report, encoding="utf-8")
        print(report, end="")
    else:
        print("no ground-truth latent classes; precision not reported")
    _echo_config(cfg, out, "sample")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    ds, eval_ds = _load_datasets(cfg)
    selected = _selected_for_train(cfg, ds)
    out = _out_dir(cfg)
    result = fit(ds, selected, cfg, eval_ds=eval_ds)
    metrics_path = out / "metrics.csv"
    write_metrics_csv(result.metrics, metrics_path)
    ckpt_path = Path(cfg.checkpoint) if cfg.checkpoint else out / "encoder.datc"
    save_params(result.params, ckpt_path)
    _echo_config(cfg, out, "train")
    tail = "" if result.final_acc is None else f", eval acc {result.final_acc:.4f}"
    print(f"{len(result.metrics)} steps -> {metrics_path}, {ckpt_path}{tail}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    if not cfg.checkpoint:
        raise ConfigError("eval needs --checkpoint")
    if not cfg.dataset:
        raise ConfigError("eval needs --dataset")
    out = _out_dir(cfg)
    params = load_params(cfg.checkpoint)
    ds = decode_dataset_file(cfg.dataset)
    _check_sizes(f"checkpoint {cfg.checkpoint}", params, ds, cfg.dataset,
                 ("n_classes",))
    acc = evaluate(params, ds)
    (out / "eval.txt").write_text(f"accuracy = {repr(acc)}\n", encoding="utf-8")
    _echo_config(cfg, out, "eval")
    print(f"accuracy = {acc:.4f} on {ds.size} images")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    results = run_gradient_suite(20, base_seed=cfg.seed)
    by_kind: dict[str, float] = {}
    for r in results:
        by_kind[r.kind] = max(by_kind.get(r.kind, 0.0), r.max_rel_err)
    for kind, err in by_kind.items():
        print(f"{kind}: max relative error {err:.3e}")
    worst = max(r.max_rel_err for r in results)
    print(f"overall max relative error {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if worst <= GRADCHECK_TOLERANCE else 1


def cmd_sweep(cfg: RunConfig, args) -> int:
    cells = [replace(cfg, mu=mu, t_thresh=t)
             for mu in cfg.mu_list for t in cfg.t_list]
    ds, eval_ds = _load_datasets(cfg)
    selected = _selected_for_train(replace(cfg, mu=max(cfg.mu_list)), ds)
    out = _out_dir(cfg)
    summary = ["mu,t_thresh,final_acc"]
    for cell in cells:
        mu, t = cell.mu, repr(cell.t_thresh)
        cell_dir = out / "sweep" / f"mu{mu}_t{t}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        result = fit(ds, selected, cell, eval_ds=eval_ds)
        write_metrics_csv(result.metrics, cell_dir / "metrics.csv")
        acc = "" if result.final_acc is None else repr(result.final_acc)
        summary.append(f"{mu},{t},{acc}")
    summary_path = out / "sweep" / "summary.csv"
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    _echo_config(cfg, out, "sweep")
    print(f"{(len(summary) - 1)} cells -> {summary_path}")
    return 0


def cmd_inspect(cfg: RunConfig, args) -> int:
    path = Path(args.path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"DATB":
        m, d_img, d, with_latent = describe_bank_file(path)
        print(f"format = DATB\nrecords = {m}\nimage_dim = {d_img}\n"
              f"feat_dim = {d}\nwith_latent = {with_latent}")
    elif magic == b"DATD":
        n, C, d_img, d = describe_dataset_file(path)
        print(f"format = DATD\nimages = {n}\nclasses = {C}\n"
              f"image_dim = {d_img}\nfeat_dim = {d}")
    elif magic == b"DATC":
        params = load_params(path)
        print(f"format = DATC\nimage_dim = {params.image_dim}\n"
              f"hidden_dim = {params.hidden_dim}\nfeat_dim = {params.feat_dim}\n"
              f"n_classes = {params.n_classes}")
    else:
        raise ValidationError([f"unrecognized magic {magic!r} in {path}"])
    return 0


COMMANDS = {
    "synth-gen": cmd_synth_gen,
    "sample": cmd_sample,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            cfg = RunConfig()
        else:
            cfg = resolve_config(args)
        return COMMANDS[args.command](cfg, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
