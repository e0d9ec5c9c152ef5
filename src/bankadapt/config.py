"""Flat `key = value` run configuration with a closed schema.

RunConfig is the one configuration object: the synthetic world, the
augmentation, the losses, the trainer and the sampler all read their
settings from it by the same names.  Every rule on its values is checked
when it is built, so a run refuses a bad value before it reads any file.

Every effective run writes its resolved configuration back out through
write_config, and parse_updates of that text, applied by apply_updates
to a default RunConfig, reproduces the exact values, so any run can be
repeated bit-for-bit from its echo file.  The key `lambda` maps to the
attribute `lambda_` because of the Python keyword.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .embank import ValidationError
from .sampler import DEFAULT_MEMORY_BUDGET_BYTES

ANCHOR_REDUCTIONS = ("sum", "mean")


class ConfigError(ValidationError):
    """Unknown key, malformed line, or a value that fails to parse or
    breaks a rule of RunConfig."""

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
    # sweep grid
    mu_list: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    t_list: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    # paths ("" means unset)
    bank: str = ""
    dataset: str = ""
    eval_dataset: str = ""
    samples: str = ""
    checkpoint: str = ""
    out_dir: str = "out"

    def __post_init__(self):
        for key, holds, rule in self._rules():
            if not holds:
                value = getattr(self, _key_to_field(key))
                raise ConfigError(f"key {key!r}: {rule}, got {value!r}")

    def _rules(self) -> tuple[tuple[str, bool, str], ...]:
        """(key, holds, rule) for every constraint, checked in this order."""
        return (
            ("n_classes", self.n_classes >= 1, "must be at least 1"),
            ("n_per_class", self.n_per_class >= 1, "must be at least 1"),
            ("eval_n_per_class", self.eval_n_per_class >= 1, "must be at least 1"),
            ("bank_size", self.bank_size >= 0, "must be non-negative"),
            ("image_dim", self.image_dim >= 1, "must be at least 1"),
            ("feat_dim", self.feat_dim >= 1, "must be at least 1"),
            ("class_sep", self.class_sep > 0.0, "must be positive"),
            ("in_dist_fraction", 0.0 <= self.in_dist_fraction <= 1.0,
             "must lie in [0, 1]"),
            ("weak_pair_rate", 0.0 <= self.weak_pair_rate <= 1.0,
             "must lie in [0, 1]"),
            ("noise_sigma", self.noise_sigma >= 0.0, "must be non-negative"),
            ("n_templates", self.n_templates >= 1, "must be at least 1"),
            ("sigma_weak", self.sigma_weak >= 0.0, "must be non-negative"),
            ("sigma_strong", self.sigma_strong >= 0.0, "must be non-negative"),
            ("sigma_weak", self.sigma_weak <= self.sigma_strong,
             f"must not exceed sigma_strong {self.sigma_strong!r}"),
            ("mask_frac", 0.0 <= self.mask_frac < 1.0, "must lie in [0, 1)"),
            ("tau", self.tau > 0.0, "must be positive"),
            ("eta", self.eta >= 0.0, "must be non-negative"),
            ("lambda", self.lambda_ >= 0.0, "must be non-negative"),
            ("anchor_reduction", self.anchor_reduction in ANCHOR_REDUCTIONS,
             f"must be one of {ANCHOR_REDUCTIONS}"),
            ("batch_size", self.batch_size >= 1, "must be at least 1"),
            ("mu", self.mu >= 0, "must be non-negative"),
            ("t_thresh", 0.0 < self.t_thresh <= 1.0, "must lie in (0, 1]"),
            ("epochs", self.epochs >= 0, "must be non-negative"),
            ("lr", self.lr > 0.0, "must be positive"),
            ("momentum", 0.0 <= self.momentum < 1.0, "must lie in [0, 1)"),
            ("hidden_dim", self.hidden_dim >= 1, "must be at least 1"),
            ("stage1_multiplier", self.stage1_multiplier > 0.0, "must be positive"),
            ("stage2_keep", self.stage2_keep > 0.0, "must be positive"),
            ("memory_budget_bytes", self.memory_budget_bytes >= 1,
             "must be at least 1"),
            ("mu_list", len(self.mu_list) >= 1
             and all(mu >= 0 for mu in self.mu_list),
             "must list at least one 'mu', each non-negative"),
            ("t_list", len(self.t_list) >= 1
             and all(0.0 < t <= 1.0 for t in self.t_list),
             "must list at least one 't_thresh', each in (0, 1]"),
        )


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
    "mu_list": "comma-separated mu grid of sweep",
    "t_list": "comma-separated t_thresh grid of sweep",
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


_LIST_ITEMS = {"tuple[int, ...]": int, "tuple[float, ...]": float}


def _parse_value(key: str, field_type: str, raw: str):
    raw = raw.strip()
    try:
        if field_type in _LIST_ITEMS:
            item = _LIST_ITEMS[field_type]
            return tuple(item(v) for v in raw.split(",") if v.strip())
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


def format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
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


def parse_updates(text: str) -> dict[str, str]:
    """Raw values by key from `key = value` lines, for apply_updates."""
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
    return updates


def config_values(cfg: RunConfig) -> dict[str, object]:
    """Every value by config key, in schema order."""
    return {_field_to_key(f.name): getattr(cfg, f.name) for f in fields(RunConfig)}


def write_config(cfg: RunConfig, path) -> None:
    lines = [f"{key} = {format_value(value)}"
             for key, value in config_values(cfg).items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
