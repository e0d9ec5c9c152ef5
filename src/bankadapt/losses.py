"""The training losses and their gradients.

Classification term: one clamped cross-entropy, used for the labeled rows
(weak views against their labels, divided by the labeled row count) and
for the pseudo-labeled rows (strong views against confident pseudo-labels,
divided by the full unlabeled row count: confidence only gates which rows
enter, the divisor never shrinks).  Each term sums -log p left to right in
row order, then divides.  Contrastive term: bidirectional multi-positive
softmax contrast over the unified triplet batch.

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
embedding gradients are returned.  tau and anchor_reduction are read from
a RunConfig.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import RunConfig

logger = logging.getLogger(__name__)

_CLAMP = 1e-12


@dataclass(frozen=True)
class ContrastiveResult:
    loss_i2t: float
    loss_t2i: float
    loss_con: float
    grad_v: np.ndarray  # (N, d) gradient w.r.t. the unit image embeddings


def cross_entropy_term(labels: np.ndarray, probs: np.ndarray, rows: np.ndarray,
                       denom: int) -> tuple[float, np.ndarray]:
    """Clamped -log probs[i, labels[i]] over rows, summed left to right in
    row order and divided by denom, with its logit gradient: (softmax -
    onehot) / denom on those rows, zero elsewhere.

    p is clamped away from zero; one warning per call reports how many rows
    were clamped."""
    if labels.shape[0] != probs.shape[0]:
        raise ValueError("labels and probabilities disagree in length")
    grad = np.zeros_like(probs)
    if rows.size == 0:
        return 0.0, grad
    y = labels[rows]
    p = probs[rows, y]
    low = p < _CLAMP
    if low.any():
        logger.warning("cross_entropy clamped %d of %d probabilities "
                       "(smallest %.3e)", int(low.sum()), p.shape[0], p.min())
        p = np.where(low, _CLAMP, p)
    # a Python sum runs left to right; np.sum's pairwise order would move
    # the last bits
    loss = sum((-np.log(p)).tolist()) / denom
    grad[rows] = probs[rows]
    grad[rows, y] -= 1.0
    return loss, grad / denom


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
