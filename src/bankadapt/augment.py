"""Weak and strong view synthesis for vector images.

Weak adds Gaussian noise; strong adds larger noise and then zeroes a fixed
fraction of coordinates chosen without replacement.  Each view's RNG stream
is derived only from (seed, epoch, sample_id, view), so views are
reproducible without any global state; draw order within a stream is noise
first, then mask indices.  The scales come from a RunConfig's
sigma_weak, sigma_strong and mask_frac.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .seeding import derive_rng

WEAK = "weak"
STRONG = "strong"


def augment_view(x: np.ndarray, view: str, cfg: RunConfig, seed: int,
                 epoch: int, sample_id: int) -> np.ndarray:
    if view not in (WEAK, STRONG):
        raise ValueError(f"unknown view {view!r}")
    x = np.asarray(x, dtype=np.float64)
    rng = derive_rng(seed, "augment", epoch, sample_id, view)
    sigma = cfg.sigma_weak if view == WEAK else cfg.sigma_strong
    if sigma > 0.0:
        out = x + rng.normal(0.0, sigma, size=x.shape)
    else:
        out = x.copy()
    if view == STRONG:
        n_mask = int(cfg.mask_frac * x.shape[-1])
        if n_mask:
            idx = rng.choice(x.shape[-1], size=n_mask, replace=False)
            out[..., idx] = 0.0
    return out
