"""Weak and strong view synthesis for vector images, one call per batch.

Weak adds Gaussian noise; strong adds larger noise and then zeroes a fixed
fraction of coordinates.  The scales come from a RunConfig's sigma_weak,
sigma_strong and mask_frac.

The draws are counter-based (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC'11).  One 64-bit key is hashed per call,

    key = derive_seed_sequence(seed, "augment", epoch, view)
              .generate_state(1, np.uint64)[0],

and row r's draw at counter c is the splitmix64 output

    bits = fmix64(row_seed + (c + 1) * 0x9E3779B97F4A7C15),
    row_seed = fmix64(key ^ fmix64(sample_id)),

in wrapping uint64 arithmetic, and its uniform is
((bits >> 11) + 0.5) / 2**53, which lies in the open interval (0, 1).
For a d-coordinate image the counters are laid out as:

    0 .. d-1     Box-Muller radius uniforms u1
    d .. 2d-1    Box-Muller angle uniforms u2; noise j is
                 sqrt(-2 ln u1[j]) * cos(2 pi u2[j])
    2d .. 3d-1   strong view only: mask uniforms; a stable argsort per
                 row zeroes the floor(mask_frac * d) smallest, ties by index

So a row's view is a function of (seed, epoch, view, sample_id) alone,
never of which other rows share the call.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .seeding import derive_seed_sequence

WEAK = "weak"
STRONG = "strong"

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _fmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, a bijection on uint64 (wraps on overflow)."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _uniforms(key: np.uint64, sample_ids: np.ndarray, n_counters: int) -> np.ndarray:
    """(rows, n_counters) uniforms in (0, 1), one per (sample_id, counter)."""
    row_seed = _fmix64(key ^ _fmix64(sample_ids.astype(np.uint64)))
    steps = np.arange(1, n_counters + 1, dtype=np.uint64) * _GAMMA
    bits = _fmix64(row_seed[:, None] + steps[None, :])
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0 ** 53


def augment_view(images: np.ndarray, sample_ids: np.ndarray, view: str,
                 cfg: RunConfig, epoch: int) -> np.ndarray:
    """(rows, d) float64 views of `images`, row r keyed by sample_ids[r]."""
    if view not in (WEAK, STRONG):
        raise ValueError(f"unknown view {view!r}")
    out = np.array(images, dtype=np.float64)
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    if out.ndim != 2 or sample_ids.shape != out.shape[:1]:
        raise ValueError(f"need (rows, d) images and one id per row, got "
                         f"{out.shape} and {sample_ids.shape}")
    if np.any(sample_ids < 0):
        raise ValueError("sample ids must be non-negative")
    d = out.shape[1]
    sigma = cfg.sigma_weak if view == WEAK else cfg.sigma_strong
    n_mask = int(cfg.mask_frac * d) if view == STRONG else 0
    if sigma == 0.0 and n_mask == 0:
        return out
    key = derive_seed_sequence(cfg.seed, "augment", epoch, view).generate_state(
        1, np.uint64)[0]
    u = _uniforms(key, sample_ids, 3 * d if n_mask else 2 * d)
    if sigma > 0.0:
        out += sigma * (np.sqrt(-2.0 * np.log(u[:, :d]))
                        * np.cos(2.0 * np.pi * u[:, d:2 * d]))
    if n_mask:
        idx = np.argsort(u[:, 2 * d:], axis=1, kind="stable")[:, :n_mask]
        np.put_along_axis(out, idx, 0.0, axis=1)
    return out
