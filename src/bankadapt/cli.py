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
import importlib
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
    DATB,
    DATC,
    DATD,
    DownstreamDataset,
    EmbeddingBank,
    ValidationError,
    decode_bank_file,
    decode_dataset_file,
    encode_bank_file,
    encode_dataset_file,
    read_bank,
    read_fields,
    read_sizes,
)
from .encoder import load_params, save_params

# The names of modules that only some commands run, each with its module.
# They are attributes of this module, which __getattr__ imports when one
# is first looked up, so a command loads only the modules it calls.  The
# commands look them up on the module, through _cli, when they call them,
# so a name set on it (a test's stand-in, or the wrapper of perfbench's
# tracer) is the one called; a bare global name would skip __getattr__.
_LAZY = {
    "run_gradient_suite": "gradcheck",
    "load_sample_csv": "sample_csv",
    "save_sample_csv": "sample_csv",
    "sampler_precision": "sampler",
    "stage1_sample": "sampler",
    "stage2_sample": "sampler",
    "generate_downstream": "synth",
    "generate_pretrain_bank": "synth",
    "evaluate": "trainer",
    "fit": "trainer",
    "write_metrics_csv": "trainer",
}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


GRADCHECK_TOLERANCE = 1e-4


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="flat key = value file applied before flag overrides")
    key_help = config_help()
    for key, default in config_values(RunConfig()).items():
        sub.add_argument(f"--{key}", metavar="V", dest=key,
                         help=f"{key_help[key]} (default: {format_value(default)})")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, where only command's, the one being
    run, takes the config flags: a run never reads another's."""
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
    parsers = {name: sub.add_parser(name, help=help_text)
               for name, help_text in specs.items()}
    if command in parsers and command != "inspect":
        _add_config_flags(parsers[command])
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


# Each artifact used with a dataset: its layout, and which of its header's
# sizes must equal which of the dataset's (DATD) header's.  A later tie
# between artifacts is added as a row.
_AGREE = {
    "eval dataset": (DATD, {"classes": "classes", "image_dim": "image_dim",
                            "feat_dim": "feat_dim"}),
    "checkpoint": (DATC, {"n_classes": "classes", "image_dim": "image_dim",
                          "feat_dim": "feat_dim"}),
    "bank": (DATB, {"image_dim": "image_dim", "feat_dim": "feat_dim"}),
}
_SIZES = {"classes": "{} classes", "image_dim": "image_dim {}",
          "feat_dim": "feat_dim {}"}


def _check_sizes(artifact: str, source, dataset) -> None:
    """Refuse source, the artifact of an _AGREE row, unless each size of its
    row equals dataset's.  Each is a file, named by its path (a config
    value) and of which only the header is read, or a container in memory,
    named as synthetic."""
    layout, agree = _AGREE[artifact]
    own, theirs = read_sizes(layout, source), read_sizes(DATD, dataset)
    named = [f"{what} {src}" if isinstance(src, str) else f"synthetic {what}"
             for what, src in ((artifact, source), ("dataset", dataset))]
    for name, ds_name in agree.items():
        if own[name] != theirs[ds_name]:
            fmt = _SIZES[ds_name].format
            raise ValidationError([f"{named[0]} has {fmt(own[name])}, "
                                   f"{named[1]} has {fmt(theirs[ds_name])}"])


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


def _read_dataset(path: str) -> DownstreamDataset:
    """The dataset file at path, refused when it holds no image: there is
    nothing to sample for, train on or score."""
    ds = decode_dataset_file(path)
    if ds.size == 0:
        raise ValidationError([f"dataset {path} holds no image"])
    return ds


def load_datasets(cfg: RunConfig
                  ) -> tuple[DownstreamDataset, DownstreamDataset | None]:
    """Training and evaluation datasets from files when the bank and dataset
    paths are set, else synthetic."""
    if _from_files(cfg):
        ds = _read_dataset(cfg.dataset)
        eval_ds = None
        if cfg.eval_dataset:
            eval_ds = _read_dataset(cfg.eval_dataset)
            _check_sizes("eval dataset", cfg.eval_dataset, cfg.dataset)
        return ds, eval_ds
    return _cli.generate_downstream(cfg), _cli.generate_downstream(
        cfg, split="test", n_per_class=cfg.eval_n_per_class)


def _bank_source(cfg: RunConfig, ds: DownstreamDataset) -> EmbeddingBank | str:
    """The bank file's path when the bank and dataset paths are set, else
    the synthetic bank for ds, refused unless its sizes agree with the
    dataset's (a file's from its header, before any byte of its payload)."""
    source, dataset = ((cfg.bank, cfg.dataset) if _from_files(cfg)
                       else (_cli.generate_pretrain_bank(cfg, ds), ds))
    _check_sizes("bank", source, dataset)
    return source


def selected_for_train(cfg: RunConfig, ds: DownstreamDataset) -> EmbeddingBank:
    """The bank rows training draws unlabeled rows from: those of the
    samples file, else those of a two-stage selection, and none at mu = 0.
    The bank, a file or the synthetic one, is read once keeping only those
    rows of images and caption_feats, after, for a selection, one read
    keeping no field, whose feats stage 1 scores as they are read; its
    sizes were compared with the dataset's before (see _bank_source)."""
    if cfg.mu == 0 and not _from_files(cfg):
        # No step draws an unlabeled row, so a synthetic bank is not made.
        return EmbeddingBank(images=np.zeros((0, ds.image_dim), np.float32),
                             feats=None,
                             caption_feats=np.zeros((0, ds.feat_dim), np.float32),
                             captions=None, latent_class=None)
    source = _bank_source(cfg, ds)
    if cfg.mu == 0:
        # Nor here, yet the bank file is checked whole.
        ids = np.zeros(0, dtype=np.int64)
    elif cfg.samples:
        ids = _cli.load_sample_csv(cfg.samples)
        if ids.size == 0:
            raise ValueError(f"{cfg.samples} holds no record: mu = {cfg.mu} "
                             "needs unlabeled rows to train on")
    else:
        ids = _cli.stage2_sample(_cli.stage1_sample(source, ds, cfg), ds,
                                 cfg).selected_ids
    return decode_bank_file(source, fields=("images", "caption_feats"), rows=ids)


def _report_clamps(n_clamped: int, fit_name: str) -> None:
    """One stderr line for a fit whose cross-entropy terms clamped a
    probability; standard output stays as it is either way."""
    if n_clamped:
        print(f"{fit_name}: cross_entropy clamped {n_clamped} probabilities "
              "to 1e-12", file=sys.stderr)


def cmd_synth_gen(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    ds = _cli.generate_downstream(cfg)
    eval_ds = _cli.generate_downstream(cfg, split="test",
                                       n_per_class=cfg.eval_n_per_class)
    bank = _cli.generate_pretrain_bank(cfg, ds)
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
    ds, _ = load_datasets(cfg)
    # the bank is read once, keeping no field: stage 1 scores its feats as
    # they are read, and its latent classes are kept at the label bank
    s1 = _cli.stage1_sample(_bank_source(cfg, ds), ds, cfg)
    s2 = _cli.stage2_sample(s1, ds, cfg)
    out = _out_dir(cfg)
    samples_path = Path(cfg.samples) if cfg.samples else out / "samples.csv"
    _cli.save_sample_csv(s2, samples_path)
    print(f"stage 1 kept {s1.n_selected} records "
          f"({int(s1.deficits.sum())} short), stage 2 kept {s2.n_selected} "
          f"({int(s2.deficits.sum())} short) -> {samples_path}")
    precision_path = out / "precision.txt"
    if s1.latent_class is not None:
        p1 = _cli.sampler_precision(s1, ds)
        p2 = _cli.sampler_precision(s2, ds)
        report = (f"stage1_precision = {repr(p1)}\n"
                  f"stage2_precision = {repr(p2)}\n")
        precision_path.write_text(report, encoding="utf-8")
        print(report, end="")
    else:
        # a precision.txt of an earlier run would speak for another bank
        precision_path.unlink(missing_ok=True)
        print("no ground-truth latent classes; precision not reported")
    _echo_config(cfg, out, "sample")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    ds, eval_ds = load_datasets(cfg)
    selected = selected_for_train(cfg, ds)
    out = _out_dir(cfg)
    result = _cli.fit(ds, selected, cfg, eval_ds=eval_ds)
    _report_clamps(result.n_clamped, "train")
    metrics_path = out / "metrics.csv"
    _cli.write_metrics_csv(result.metrics, metrics_path)
    ckpt_path = Path(cfg.checkpoint) if cfg.checkpoint else out / "encoder.datc"
    save_params(result.params, ckpt_path)
    _echo_config(cfg, out, "train")
    tail = "" if result.final_acc is None else f", eval acc {result.final_acc:.4f}"
    print(f"{len(result.metrics)} steps -> {metrics_path}, {ckpt_path}{tail}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    for key in ("checkpoint", "dataset"):
        if not getattr(cfg, key):
            raise ConfigError(f"eval needs --{key}")
    ds = _read_dataset(cfg.dataset)
    _check_sizes("checkpoint", cfg.checkpoint, cfg.dataset)
    params = load_params(cfg.checkpoint)
    out = _out_dir(cfg)
    acc = _cli.evaluate(params, ds)
    (out / "eval.txt").write_text(f"accuracy = {repr(acc)}\n", encoding="utf-8")
    _echo_config(cfg, out, "eval")
    print(f"accuracy = {acc:.4f} on {ds.size} images")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    results = _cli.run_gradient_suite(20, base_seed=cfg.seed)
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
    ds, eval_ds = load_datasets(cfg)
    selected = selected_for_train(replace(cfg, mu=max(cfg.mu_list)), ds)
    out = _out_dir(cfg)
    summary = ["mu,t_thresh,final_acc"]
    for cell in cells:
        mu, t = cell.mu, repr(cell.t_thresh)
        cell_dir = out / "sweep" / f"mu{mu}_t{t}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        result = _cli.fit(ds, selected, cell, eval_ds=eval_ds)
        _report_clamps(result.n_clamped, f"sweep cell {cell_dir.name}")
        _cli.write_metrics_csv(result.metrics, cell_dir / "metrics.csv")
        acc = "" if result.final_acc is None else repr(result.final_acc)
        summary.append(f"{mu},{t},{acc}")
    summary_path = out / "sweep" / "summary.csv"
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    _echo_config(cfg, out, "sweep")
    print(f"{(len(summary) - 1)} cells -> {summary_path}")
    return 0


def cmd_inspect(cfg: RunConfig, args) -> int:
    with open(args.path, "rb") as fh:
        magic = fh.read(4)
    layout = next((lay for lay in (DATB, DATD, DATC) if lay.magic == magic), None)
    if layout is None:
        raise ValidationError([f"unrecognized magic {magic!r} in {args.path}"])
    if layout is DATB:
        _, sizes, with_latent = read_bank(args.path, ())
        sizes = {**sizes, "with_latent": with_latent}
    else:
        sizes = read_fields(layout, args.path)[1]
    for name, value in {"format": magic.decode(), **sizes}.items():
        print(f"{name} = {value}")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
