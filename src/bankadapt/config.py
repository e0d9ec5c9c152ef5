"""Flat `key = value` run configuration with a closed schema.

Every effective run writes its resolved configuration back out through
write_config, and parse_config(write_config(cfg)) reproduces the exact
values, so any run can be repeated bit-for-bit from its echo file.  The
key `lambda` maps to the attribute `lambda_` because of the Python
keyword.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .augment import AugmentConfig
from .embank import ValidationError
from .sampler import DEFAULT_MEMORY_BUDGET_BYTES
from .synth import SynthSpec
from .trainer import TrainConfig


class ConfigError(ValidationError):
    """Unknown key, malformed line, or a value that fails to parse."""

    def __init__(self, message: str):
        super().__init__([message])
        self.message = message


@dataclass(frozen=True)
class RunConfig:
    # run identity
    seed: int = 0
    # synthetic world
    n_classes: int = 10
    n_per_class: int = 20
    eval_n_per_class: int = 50
    bank_size: int = 4000
    image_dim: int = 32
    feat_dim: int = 16
    class_sep: float = 4.0
    in_dist_fraction: float = 0.5
    weak_pair_rate: float = 0.3
    noise_sigma: float = 1.0
    n_templates: int = 1
    # augmentation
    sigma_weak: float = 0.1
    sigma_strong: float = 0.5
    mask_frac: float = 0.25
    # losses
    tau: float = 0.07
    eta: float = 1.0
    lambda_: float = 1.0
    anchor_reduction: str = "sum"
    # training
    batch_size: int = 32
    mu: int = 4
    t_thresh: float = 0.95
    epochs: int = 12
    lr: float = 0.05
    momentum: float = 0.9
    hidden_dim: int = 32
    warm_start: bool = False
    # sampler
    stage1_multiplier: float = 8.0
    stage2_keep: float = 0.5
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES
    # paths ("" means unset)
    bank: str = ""
    dataset: str = ""
    eval_dataset: str = ""
    samples: str = ""
    checkpoint: str = ""
    out_dir: str = "out"

    def __post_init__(self):
        if self.memory_budget_bytes < 1:
            raise ConfigError(f"key 'memory_budget_bytes': must be at least 1, "
                              f"got {self.memory_budget_bytes}")


KEY_HELP = {
    "seed": "base seed for every derived random stream",
    "n_classes": "number of downstream classes",
    "n_per_class": "labeled images per class in the training split",
    "eval_n_per_class": "images per class in the held-out split",
    "bank_size": "records in the synthetic pre-training bank",
    "image_dim": "image vector dimensionality",
    "feat_dim": "frozen feature space dimensionality",
    "class_sep": "pairwise distance between class prototypes",
    "in_dist_fraction": "fraction of bank records drawn from downstream classes",
    "weak_pair_rate": "fraction of bank captions swapped to an unrelated subject",
    "noise_sigma": "observation noise around each prototype",
    "n_templates": "text templates averaged into each class text feature",
    "sigma_weak": "noise scale of the weak augmentation",
    "sigma_strong": "noise scale of the strong augmentation",
    "mask_frac": "fraction of coordinates zeroed by the strong augmentation",
    "tau": "contrastive temperature",
    "eta": "weight of the pseudo-label loss",
    "lambda": "weight of the bidirectional contrastive loss",
    "anchor_reduction": "contrastive anchor reduction: sum or mean",
    "batch_size": "labeled images per step",
    "mu": "unlabeled-to-labeled ratio per step",
    "t_thresh": "pseudo-label confidence threshold (inclusive)",
    "epochs": "passes over the labeled set",
    "lr": "SGD learning rate",
    "momentum": "SGD momentum",
    "hidden_dim": "encoder hidden width",
    "warm_start": "start the encoder near the frozen projection",
    "stage1_multiplier": "stage-1 keeps multiplier * n downstream records",
    "stage2_keep": "stage-2 keeps this fraction of the stage-1 selection",
    "memory_budget_bytes": "bytes the sampler may hold while scoring and "
                           "merging; sets the rows per chunk, after at most "
                           "three quarters for the held candidates",
    "bank": "path to a DATB bank file",
    "dataset": "path to a DATD downstream dataset",
    "eval_dataset": "path to a DATD held-out dataset",
    "samples": "path to a sampler CSV (written by sample, reusable by train)",
    "checkpoint": "path to a DATC encoder checkpoint",
    "out_dir": "directory receiving all run outputs",
}


def _field_to_key(name: str) -> str:
    return "lambda" if name == "lambda_" else name


def _key_to_field(key: str) -> str:
    return "lambda_" if key == "lambda" else key


def config_keys() -> list[str]:
    return [_field_to_key(f.name) for f in fields(RunConfig)]


def _parse_value(key: str, field_type: str, raw: str):
    raw = raw.strip()
    try:
        if field_type == "int":
            return int(raw)
        if field_type == "float":
            return float(raw)
        if field_type == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {field_type}") from exc


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_KEY_TYPES = {_field_to_key(f.name): f.type for f in fields(RunConfig)}


def apply_updates(cfg: RunConfig, updates: dict[str, str]) -> RunConfig:
    """Apply raw string values by config key; unknown keys are refused."""
    resolved = {}
    for key, raw in updates.items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        resolved[_key_to_field(key)] = _parse_value(key, _KEY_TYPES[key], raw)
    return replace(cfg, **resolved)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    updates: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in updates:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        updates[key] = raw
    return apply_updates(cfg, updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base)


def write_config(cfg: RunConfig, path) -> None:
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{_field_to_key(f.name)} = {_format_value(getattr(cfg, f.name))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def synth_spec(cfg: RunConfig) -> SynthSpec:
    return SynthSpec(seed=cfg.seed, n_classes=cfg.n_classes,
                     n_per_class=cfg.n_per_class, bank_size=cfg.bank_size,
                     image_dim=cfg.image_dim, feat_dim=cfg.feat_dim,
                     class_sep=cfg.class_sep,
                     in_dist_fraction=cfg.in_dist_fraction,
                     weak_pair_rate=cfg.weak_pair_rate,
                     noise_sigma=cfg.noise_sigma, n_templates=cfg.n_templates)


def augment_config(cfg: RunConfig) -> AugmentConfig:
    return AugmentConfig(sigma_weak=cfg.sigma_weak,
                         sigma_strong=cfg.sigma_strong,
                         mask_frac=cfg.mask_frac)


def train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(seed=cfg.seed, batch_size=cfg.batch_size, mu=cfg.mu,
                       t_thresh=cfg.t_thresh, eta=cfg.eta,
                       lambda_=cfg.lambda_, tau=cfg.tau,
                       anchor_reduction=cfg.anchor_reduction,
                       epochs=cfg.epochs, lr=cfg.lr, momentum=cfg.momentum,
                       hidden_dim=cfg.hidden_dim, warm_start=cfg.warm_start,
                       augment=augment_config(cfg))
