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
    KEY_HELP,
    ConfigError,
    RunConfig,
    apply_updates,
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
from .encoder import FrozenEmbedder, load_params, save_params
from .gradcheck import run_gradient_suite
from .sampler import (
    default_k1,
    default_k2,
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
    for key, default in config_values(RunConfig()).items():
        sub.add_argument(f"--{key}", metavar="V", dest=key,
                         help=f"{KEY_HELP[key]} (default: {format_value(default)})")


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

    parsers["train"].add_argument("--no-unlabeled", action="store_true",
                                  help="drop the pseudo-label loss (eta = 0)")
    parsers["train"].add_argument("--no-contrastive", action="store_true",
                                  help="drop the contrastive loss (lambda = 0)")
    parsers["inspect"].add_argument("path", help="file to inspect")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """File values, then flag values, then the ablation switches, built and
    checked as one RunConfig."""
    updates = {}
    if getattr(args, "config", None):
        updates = parse_updates(Path(args.config).read_text(encoding="utf-8"))
    for key in config_keys():
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    if getattr(args, "no_unlabeled", False):
        updates["eta"] = "0.0"
    if getattr(args, "no_contrastive", False):
        updates["lambda"] = "0.0"
    return apply_updates(RunConfig(), updates)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: RunConfig, out: Path, command: str) -> None:
    write_config(cfg, out / f"resolved-{command}.cfg")


def _check_classes(what: str, n_classes: int, ds: DownstreamDataset,
                   path: str) -> None:
    """Refuse to score a head of n_classes classes on ds of another count."""
    if n_classes != ds.n_classes:
        raise ValidationError([f"{what} has {n_classes} classes, "
                               f"dataset {path} has {ds.n_classes}"])


def _load_datasets(cfg: RunConfig
                   ) -> tuple[DownstreamDataset, DownstreamDataset | None]:
    """Training and evaluation datasets from files when the bank and dataset
    paths are set, else synthetic."""
    if cfg.bank and cfg.dataset:
        ds = decode_dataset_file(cfg.dataset)
        eval_ds = None
        if cfg.eval_dataset:
            eval_ds = decode_dataset_file(cfg.eval_dataset)
            _check_classes(f"dataset {cfg.dataset}", ds.n_classes, eval_ds,
                           cfg.eval_dataset)
        return ds, eval_ds
    return generate_downstream(cfg), generate_downstream(
        cfg, split="test", n_per_class=cfg.eval_n_per_class)


def _load_bank(cfg: RunConfig, ds: DownstreamDataset,
               fields: tuple[str, ...]) -> EmbeddingBank:
    """The bank file, checked whole but keeping only fields, when the bank
    and dataset paths are set, else the synthetic bank for ds."""
    if cfg.bank and cfg.dataset:
        return decode_bank_file(cfg.bank, fields=fields)
    return generate_pretrain_bank(cfg, ds)


def _sample_bank(cfg: RunConfig, bank: EmbeddingBank, ds: DownstreamDataset):
    embedder = FrozenEmbedder.from_seed("image", cfg.seed, ds.feat_dim,
                                        ds.image_dim)
    k1 = default_k1(ds.size, ds.n_classes, cfg.stage1_multiplier)
    s1 = stage1_sample(bank, ds, k1, cfg.memory_budget_bytes)
    k2 = default_k2(s1.n_selected, ds.size, cfg.stage2_keep)
    s2 = stage2_sample(s1, bank, ds, embedder, k2, cfg.memory_budget_bytes)
    return s1, s2


def _selected_for_train(cfg: RunConfig, ds: DownstreamDataset) -> SelectedBank:
    """The bank rows training draws unlabeled rows from; the bank is read
    keeping only the fields the selection needs, and dropped on return."""
    if cfg.mu == 0:
        # no step draws an unlabeled row, so no step reads the selection
        _load_bank(cfg, ds, ())
        return SelectedBank(ids=np.zeros(0, dtype=np.int64),
                            images=np.zeros((0, ds.image_dim), dtype=np.float32),
                            caption_feats=np.zeros((0, ds.feat_dim),
                                                   dtype=np.float32))
    if cfg.samples:
        bank = _load_bank(cfg, ds, ("images", "caption_feats"))
        return SelectedBank.from_bank(bank, load_sample_csv(cfg.samples))
    bank = _load_bank(cfg, ds, ("images", "feats", "caption_feats"))
    return SelectedBank.from_bank(bank, _sample_bank(cfg, bank, ds)[1])


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
    out = _out_dir(cfg)
    ds, _ = _load_datasets(cfg)
    bank = _load_bank(cfg, ds, ("feats", "latent_class"))
    s1, s2 = _sample_bank(cfg, bank, ds)
    samples_path = Path(cfg.samples) if cfg.samples else out / "samples.csv"
    save_sample_csv(s2, samples_path, samples_path.with_name("deficits.csv"))
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
    out = _out_dir(cfg)
    ds, eval_ds = _load_datasets(cfg)
    selected = _selected_for_train(cfg, ds)
    embedder = FrozenEmbedder.from_seed("image", cfg.seed, ds.feat_dim,
                                        ds.image_dim)
    result = fit(ds, selected, ds.class_text_feats, cfg, eval_ds=eval_ds,
                 embedder=embedder)
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
    _check_classes(f"checkpoint {cfg.checkpoint}", params.n_classes, ds,
                   cfg.dataset)
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
    out = _out_dir(cfg)
    ds, eval_ds = _load_datasets(cfg)
    selected = _selected_for_train(replace(cfg, mu=max(cfg.mu_list)), ds)
    embedder = FrozenEmbedder.from_seed("image", cfg.seed, ds.feat_dim,
                                        ds.image_dim)
    summary = ["mu,t_thresh,final_acc"]
    for cell in cells:
        mu, t = cell.mu, repr(cell.t_thresh)
        cell_dir = out / "sweep" / f"mu{mu}_t{t}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        result = fit(ds, selected, ds.class_text_feats, cell, eval_ds=eval_ds,
                     embedder=embedder)
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
    except (OSError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
