"""The three training objectives and their gradients.

Supervised term: mean cross-entropy of weak labeled views.  Unlabeled term:
cross-entropy of strong views against confident pseudo-labels, summed and
divided by the full unlabeled batch size (confidence only gates which terms
enter; the divisor never shrinks).  Contrastive term: bidirectional
multi-positive softmax contrast over the unified triplet batch.

With z[i, j] = v_i . t_j / tau (temperature divides the cosine in every
term), positives P(i) = {k : y_k = y_i} including i, and anchor_reduction
"sum":

    text anchors:   L_i2t = -sum_i 1/|P(i)| sum_{k in P(i)}
                              log( exp(z[k, i]) / sum_j exp(z[j, i]) )
    image anchors:  L_t2i = -sum_i 1/|P(i)| sum_{k in P(i)}
                              log( exp(z[i, k]) / sum_j exp(z[i, j]) )
    L_con = L_i2t + L_t2i

"mean" divides both by the batch size.  The gradient in z is
(softmax - positive-mass) per anchor, column-wise for text anchors and
row-wise for image anchors; text features are frozen, so only the image
embedding gradients are returned.  tau, anchor_reduction and the weights
eta and lambda are read from a RunConfig.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .pseudo_triplets import PseudoLabels

logger = logging.getLogger(__name__)

_CLAMP = 1e-12


@dataclass(frozen=True)
class LossBreakdown:
    loss_x: float
    loss_u: float
    loss_i2t: float
    loss_t2i: float
    loss_con: float
    loss_total: float
    n_confident: int


@dataclass(frozen=True)
class ContrastiveResult:
    loss_i2t: float
    loss_t2i: float
    loss_con: float
    grad_v: np.ndarray  # (N, d) gradient w.r.t. the unit image embeddings


def cross_entropy(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row-wise -log probs[i, labels[i]], with p clamped away from zero.

    One warning per call reports how many rows were clamped."""
    p = probs[np.arange(labels.shape[0]), labels]
    low = p < _CLAMP
    if low.any():
        logger.warning("cross_entropy clamped %d of %d probabilities "
                       "(smallest %.3e)", int(low.sum()), p.shape[0], p.min())
        p = np.where(low, _CLAMP, p)
    return -np.log(p)


def supervised_loss(labels: np.ndarray, probs: np.ndarray) -> float:
    if labels.shape[0] == 0:
        raise ValueError("supervised loss over an empty batch is undefined")
    return float(np.mean(cross_entropy(labels, probs)))


def supervised_logit_grads(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """(softmax - onehot) / B, the logit gradient of the mean cross-entropy."""
    b = labels.shape[0]
    g = probs.copy()
    g[np.arange(b), labels] -= 1.0
    return g / b


def unlabeled_loss(pseudo: PseudoLabels, strong_probs: np.ndarray) -> float:
    """Confident terms only, but divided by the full unlabeled row count."""
    denom = strong_probs.shape[0]
    if denom == 0:
        return 0.0
    if len(pseudo) != denom:
        raise ValueError("pseudo labels and strong probabilities disagree in length")
    rows = np.flatnonzero(pseudo.confident)
    # left-to-right in row order; np.sum's pairwise order would move the
    # last bits of loss_u
    total = sum(cross_entropy(pseudo.label[rows], strong_probs[rows]).tolist())
    return float(total) / denom


def unlabeled_logit_grads(pseudo: PseudoLabels, strong_probs: np.ndarray) -> np.ndarray:
    denom = strong_probs.shape[0]
    g = np.zeros_like(strong_probs)
    if denom == 0:
        return g
    rows = np.flatnonzero(pseudo.confident)
    g[rows] = strong_probs[rows]
    g[rows, pseudo.label[rows]] -= 1.0
    return g / denom


def _positive_mass(labels: np.ndarray) -> np.ndarray:
    """M[k, i] = [y_k == y_i] / |P(i)|; every column sums to one."""
    same = labels[:, None] == labels[None, :]
    counts = same.sum(axis=0)
    return same.astype(np.float64) / counts[None, :]


def _log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def contrastive_loss(v: np.ndarray, text_feats: np.ndarray, labels: np.ndarray,
                     cfg: RunConfig) -> ContrastiveResult:
    """Bidirectional contrast over one unified batch.

    v and text_feats must be unit rows; labels group the positives.  Returns
    the two directional losses and the gradient with respect to v (text
    features receive none: they are frozen).
    """
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(text_feats, dtype=np.float64)
    labels = np.asarray(labels)
    n = v.shape[0]
    if n < 2:
        raise ValueError(f"contrastive batch needs at least 2 triplets, got {n}")
    if t.shape != v.shape:
        raise ValueError(f"text_feats shape {t.shape} must match embeddings {v.shape}")
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} must be ({n},)")
    for name, arr in (("image embeddings", v), ("text features", t)):
        norms = np.linalg.norm(arr, axis=1)
        off = np.abs(norms - 1.0) > 1e-6
        if off.any():
            i = int(np.argmax(off))
            raise ValueError(f"{name} row {i} has norm {norms[i]:.8f}, "
                             "expected unit within 1e-6")

    z = (v @ t.T) / cfg.tau            # z[i, j] = v_i . t_j / tau
    mass = _positive_mass(labels)

    log_col = _log_softmax(z, axis=0)  # softmax over images for each text anchor
    log_row = _log_softmax(z, axis=1)  # softmax over texts for each image anchor
    loss_i2t = -float(np.sum(mass * log_col))
    loss_t2i = -float(np.sum(mass.T * log_row))

    d_z = (np.exp(log_col) - mass) + (np.exp(log_row) - mass.T)
    scale = 1.0
    if cfg.anchor_reduction == "mean":
        scale = 1.0 / n
        loss_i2t *= scale
        loss_t2i *= scale
    grad_v = (d_z @ t) * (scale / cfg.tau)
    return ContrastiveResult(loss_i2t=loss_i2t, loss_t2i=loss_t2i,
                             loss_con=loss_i2t + loss_t2i, grad_v=grad_v)


def total_loss(loss_x: float, loss_u: float, loss_i2t: float, loss_t2i: float,
               n_confident: int, cfg: RunConfig) -> LossBreakdown:
    loss_con = loss_i2t + loss_t2i
    total = loss_x + cfg.eta * loss_u + cfg.lambda_ * loss_con
    return LossBreakdown(loss_x=loss_x, loss_u=loss_u, loss_i2t=loss_i2t,
                         loss_t2i=loss_t2i, loss_con=loss_con, loss_total=total,
                         n_confident=n_confident)
