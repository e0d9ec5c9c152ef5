"""Central finite-difference verification of the batch objective gradient.

Fixtures are rejection-sampled so the pseudo-label mask cannot flip under
the probe step: every unlabeled row must clear both the confidence margin
|max prob - t_thresh| and the argmax margin (top-2 prob gap).  Without
those guards the objective is piecewise smooth and a probe that crosses a
boundary produces a meaningless difference quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .encoder import EncoderParams, encode_and_classify, init_params
from .objective import ObjectiveBatch, batch_objective
from .pseudo_triplets import pseudo_label_batch
from .seeding import derive_rng

FIXTURE_KINDS = ("supervised", "unlabeled", "contrastive", "full")

_MARGIN = 1e-3
_MAX_ATTEMPTS = 200
# the fixtures' sizes, the pseudo-label threshold and the probe step
_IMAGE_DIM, _HIDDEN_DIM, _FEAT_DIM, _N_CLASSES, _N_LABELED, _N_UNLABELED = 6, 5, 4, 3, 2, 4
_T_THRESH, _STEP = 0.5, 1e-5


@dataclass(frozen=True)
class GradCheckFixture:
    kind: str
    params: EncoderParams
    batch: ObjectiveBatch
    cfg: RunConfig
    include_supervised: bool


@dataclass(frozen=True)
class GradCheckResult:
    kind: str
    max_rel_err: float
    block_errors: dict[str, float]


def _config_for(kind: str) -> RunConfig:
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}")
    eta = 1.0 if kind in ("unlabeled", "full") else 0.0
    lam = 1.0 if kind in ("contrastive", "full") else 0.0
    return RunConfig(tau=0.07, eta=eta, lambda_=lam, anchor_reduction="sum",
                     t_thresh=_T_THRESH)


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _margins_ok(params: EncoderParams, unlabeled_weak: np.ndarray,
                need_confident: bool) -> bool:
    probs = encode_and_classify(params, unlabeled_weak).probs
    top = np.max(probs, axis=1)
    if np.any(np.abs(top - _T_THRESH) <= _MARGIN):
        return False
    if probs.shape[1] >= 2:
        part = np.sort(probs, axis=1)
        if np.any(part[:, -1] - part[:, -2] <= _MARGIN):
            return False
    if need_confident and not pseudo_label_batch(probs, _T_THRESH).confident.any():
        return False
    return True


def make_fixture(kind: str, seed: int) -> GradCheckFixture:
    """Build a small batch whose objective is smooth at the current params."""
    cfg = _config_for(kind)
    need_confident = kind in ("unlabeled", "full")
    for attempt in range(_MAX_ATTEMPTS):
        rng = derive_rng(seed, "gradcheck", kind, attempt)
        params = init_params(int(rng.integers(2**31)), _IMAGE_DIM, _HIDDEN_DIM,
                             _FEAT_DIM, _N_CLASSES)
        # Sharpen the head so confidences sit well away from t_thresh.
        params.head_w *= 6.0
        labeled = rng.normal(size=(_N_LABELED, _IMAGE_DIM))
        labels = rng.integers(0, _N_CLASSES, size=_N_LABELED).astype(np.int32)
        unlabeled_weak = rng.normal(size=(_N_UNLABELED, _IMAGE_DIM))
        unlabeled_strong = unlabeled_weak + rng.normal(
            scale=0.3, size=(_N_UNLABELED, _IMAGE_DIM))
        caption_feats = _unit_rows(rng, _N_UNLABELED, _FEAT_DIM)
        class_text_feats = _unit_rows(rng, _N_CLASSES, _FEAT_DIM)
        if not _margins_ok(params, unlabeled_weak, need_confident):
            continue
        batch = ObjectiveBatch(labeled_weak=labeled, labels=labels,
                               unlabeled_weak=unlabeled_weak,
                               unlabeled_strong=unlabeled_strong,
                               caption_feats=caption_feats,
                               class_text_feats=class_text_feats)
        return GradCheckFixture(kind=kind, params=params, batch=batch, cfg=cfg,
                                include_supervised=kind in ("supervised", "full"))
    raise RuntimeError(f"no well-margined fixture found for kind={kind} seed={seed}")


def finite_diff_check(fixture: GradCheckFixture) -> GradCheckResult:
    """Compare analytic gradients to central differences, field by field."""
    params = fixture.params

    def objective():
        return batch_objective(params, fixture.batch, fixture.cfg,
                               include_supervised=fixture.include_supervised)

    _, grads = objective()
    block_errors: dict[str, float] = {}
    worst = 0.0
    for name in ("w1", "b1", "w2", "b2", "head_w", "head_b"):
        analytic = getattr(grads, name)
        target = getattr(params, name)
        fd = np.zeros_like(analytic)
        it = np.nditer(target, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = target[idx]
            target[idx] = keep + _STEP
            up = objective()[0].loss_total
            target[idx] = keep - _STEP
            down = objective()[0].loss_total
            target[idx] = keep
            fd[idx] = (up - down) / (2.0 * _STEP)
        denom = np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
        rel = np.abs(analytic - fd) / denom
        block_errors[name] = float(np.max(rel)) if rel.size else 0.0
        worst = max(worst, block_errors[name])
    return GradCheckResult(kind=fixture.kind, max_rel_err=worst,
                           block_errors=block_errors)


def run_gradient_suite(n_fixtures: int = 20, base_seed: int = 0
                       ) -> list[GradCheckResult]:
    """Cycle through the four loss mixes, n_fixtures checks in total."""
    results = []
    for i in range(n_fixtures):
        kind = FIXTURE_KINDS[i % len(FIXTURE_KINDS)]
        fixture = make_fixture(kind, base_seed + i)
        results.append(finite_diff_check(fixture))
    return results
