"""Flat `key = value` run configuration with a closed schema.

RunConfig is the one configuration object: the synthetic world, the
augmentation, the losses, the trainer and the sampler all read their
settings from it by the same names, and no module keeps a default of its
own.  Each key is declared once, as a field that carries its default, its
`--help` text and the rule its value must hold; only the cross-key rule
sigma_weak <= sigma_strong is written in __post_init__.  Every rule is
checked when a RunConfig is built, in field order with the cross-key rule
last, so a run refuses a bad value before it reads any file.

Every effective run writes its resolved configuration back out through
write_config, and parse_updates of that text, applied by apply_updates
to a default RunConfig, reproduces the exact values, so any run can be
repeated bit-for-bit from its echo file.  The key `lambda` maps to the
attribute `lambda_` because of the Python keyword.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .embank import ValidationError

ANCHOR_REDUCTIONS = ("sum", "mean")

# (predicate, rule) pairs shared by several keys
AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")
NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
POSITIVE = (lambda v: v > 0, "must be positive")
IN_UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
BELOW_ONE = (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
THRESHOLD = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")


class ConfigError(ValidationError):
    """Unknown key, malformed line, or a value that fails to parse or
    breaks a rule of RunConfig."""

    def __init__(self, message: str):
        super().__init__([message])
        self.message = message


def _key(default, help_text: str, rule=None):
    """A config key: its default, its --help text and its (predicate, rule)."""
    return field(default=default, metadata={"help": help_text, "rule": rule})


@dataclass(frozen=True)
class RunConfig:
    # run identity
    seed: int = _key(0, "base seed for every derived random stream")
    # synthetic world
    n_classes: int = _key(10, "number of downstream classes", AT_LEAST_ONE)
    n_per_class: int = _key(20, "labeled images per class in the training split",
                            AT_LEAST_ONE)
    eval_n_per_class: int = _key(50, "images per class in the held-out split",
                                 AT_LEAST_ONE)
    bank_size: int = _key(4000, "records in the synthetic pre-training bank",
                          NON_NEGATIVE)
    image_dim: int = _key(32, "image vector dimensionality", AT_LEAST_ONE)
    feat_dim: int = _key(16, "frozen feature space dimensionality", AT_LEAST_ONE)
    class_sep: float = _key(4.0, "pairwise distance between class prototypes",
                            POSITIVE)
    in_dist_fraction: float = _key(
        0.5, "fraction of bank records drawn from downstream classes",
        IN_UNIT_INTERVAL)
    weak_pair_rate: float = _key(
        0.3, "fraction of bank captions swapped to an unrelated subject",
        IN_UNIT_INTERVAL)
    noise_sigma: float = _key(1.0, "observation noise around each prototype",
                              NON_NEGATIVE)
    n_templates: int = _key(
        1, "text templates averaged into each class text feature", AT_LEAST_ONE)
    # augmentation
    sigma_weak: float = _key(0.1, "noise scale of the weak augmentation",
                             NON_NEGATIVE)
    sigma_strong: float = _key(0.5, "noise scale of the strong augmentation",
                               NON_NEGATIVE)
    mask_frac: float = _key(
        0.25, "fraction of coordinates zeroed by the strong augmentation",
        BELOW_ONE)
    # losses
    tau: float = _key(0.07, "contrastive temperature", POSITIVE)
    eta: float = _key(1.0, "weight of the pseudo-label loss", NON_NEGATIVE)
    lambda_: float = _key(1.0, "weight of the bidirectional contrastive loss",
                          NON_NEGATIVE)
    anchor_reduction: str = _key(
        "sum", "contrastive anchor reduction: sum or mean",
        (lambda v: v in ANCHOR_REDUCTIONS, f"must be one of {ANCHOR_REDUCTIONS}"))
    # training
    batch_size: int = _key(32, "labeled images per step", AT_LEAST_ONE)
    mu: int = _key(4, "unlabeled-to-labeled ratio per step", NON_NEGATIVE)
    t_thresh: float = _key(
        0.95, "pseudo-label confidence threshold (inclusive)", THRESHOLD)
    epochs: int = _key(12, "passes over the labeled set", NON_NEGATIVE)
    lr: float = _key(0.05, "SGD learning rate", POSITIVE)
    momentum: float = _key(0.9, "SGD momentum", BELOW_ONE)
    hidden_dim: int = _key(32, "encoder hidden width", AT_LEAST_ONE)
    warm_start: bool = _key(False, "start the encoder near the frozen projection")
    # sampler
    stage1_multiplier: float = _key(
        8.0, "stage-1 keeps multiplier * n downstream records", POSITIVE)
    stage2_keep: float = _key(
        0.5, "stage-2 keeps this fraction of the stage-1 selection", POSITIVE)
    memory_budget_bytes: int = _key(
        4 * 1024 * 1024, "bytes the sampler may hold while scoring and merging; "
        "sets the rows per chunk, after at most three quarters for the held "
        "candidates", AT_LEAST_ONE)
    # sweep grid
    mu_list: tuple[int, ...] = _key(
        (2, 3, 4, 5, 6, 7), "comma-separated mu grid of sweep",
        (lambda v: len(v) >= 1 and all(mu >= 0 for mu in v),
         "must list at least one 'mu', each non-negative"))
    t_list: tuple[float, ...] = _key(
        (0.5, 0.6, 0.7, 0.8, 0.9, 0.95), "comma-separated t_thresh grid of sweep",
        (lambda v: len(v) >= 1 and all(THRESHOLD[0](t) for t in v),
         "must list at least one 't_thresh', each in (0, 1]"))
    # paths ("" means unset)
    bank: str = _key("", "path to a DATB bank file")
    dataset: str = _key("", "path to a DATD downstream dataset")
    eval_dataset: str = _key("", "path to a DATD held-out dataset")
    samples: str = _key(
        "", "path to a sampler CSV (written by sample, reusable by train)")
    checkpoint: str = _key("", "path to a DATC encoder checkpoint")
    out_dir: str = _key("out", "directory receiving all run outputs")

    def __post_init__(self):
        for f in fields(self):
            if f.metadata["rule"] is not None:
                holds, rule = f.metadata["rule"]
                if not holds(getattr(self, f.name)):
                    _refuse(f.name, rule, getattr(self, f.name))
        if not self.sigma_weak <= self.sigma_strong:
            _refuse("sigma_weak", f"must not exceed sigma_strong "
                    f"{self.sigma_strong!r}", self.sigma_weak)


def _refuse(name: str, rule: str, value) -> None:
    raise ConfigError(f"key {_field_to_key(name)!r}: {rule}, got {value!r}")


def _field_to_key(name: str) -> str:
    return "lambda" if name == "lambda_" else name


def _key_to_field(key: str) -> str:
    return "lambda_" if key == "lambda" else key


def config_keys() -> list[str]:
    return [_field_to_key(f.name) for f in fields(RunConfig)]


def config_help() -> dict[str, str]:
    """Every key's declared --help text, in schema order."""
    return {_field_to_key(f.name): f.metadata["help"] for f in fields(RunConfig)}


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
