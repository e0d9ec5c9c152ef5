"""The training losses and their gradients.

Classification term: one clamped cross-entropy, used for the labeled rows
(weak views against their labels, divided by the labeled row count) and
for the pseudo-labeled rows (strong views against confident pseudo-labels,
divided by the full unlabeled row count: confidence only gates which rows
enter, the divisor never shrinks).  Each term sums -log p left to right in
row order, then divides.  A p below 1e-12 is clamped to it, and each term
returns how many it clamped: the fit counts them, nothing here logs.
Contrastive term: bidirectional multi-positive softmax contrast over the
unified triplet batch.

With z[i, j] = v_i . t_j / tau (temperature divides the cosine in every
term), positives P(i) = {k : y_k = y_i} including i, and anchor_reduction
"sum":

    text anchors:   L_i2t = -sum_i 1/|P(i)| sum_{k in P(i)}
                              log( exp(z[k, i]) / sum_j exp(z[j, i]) )
    image anchors:  L_t2i = -sum_i 1/|P(i)| sum_{k in P(i)}
                              log( exp(z[i, k]) / sum_j exp(z[i, j]) )
    L_con = L_i2t + L_t2i

Labels are non-negative integers, and the groups are the labels present,
in ascending order, counted by one bincount.  Positives share a label: with
V_g and T_g the sums of group g's image embeddings and text features, n_g
its size and S = sum_g V_g . T_g / (n_g tau), L_i2t = sum_i log sum_j
exp(z[j, i]) - S and L_t2i = sum_i log sum_j exp(z[i, j]) - S, each
log-sum shifted by its own column's or row's maximum.  The gradient in z
is (softmax - positive mass) per anchor, column-wise for text anchors and
row-wise for image anchors, and the positive mass times t is the anchor's
group mean text feature, so
dL/dv_k = (sum_i (P_col + P_row)[k, i] t_i - 2 T_{y_k} / n_{y_k}) / tau
with P_col and P_row the column and row softmaxes of z: one n x n buffer
holds z once for each.  "mean" divides both losses by the batch size.
Text features are frozen, so only the image embedding gradients are
returned.  tau and anchor_reduction are read from a RunConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig

_CLAMP = 1e-12


@dataclass(frozen=True)
class ContrastiveResult:
    loss_i2t: float
    loss_t2i: float
    loss_con: float
    grad_v: np.ndarray  # (N, d) gradient w.r.t. the unit image embeddings


def cross_entropy_term(labels: np.ndarray, probs: np.ndarray, rows: np.ndarray,
                       denom: int) -> tuple[float, np.ndarray, int]:
    """Clamped -log probs[i, labels[i]] over rows, summed left to right in
    row order and divided by denom, with its logit gradient: (softmax -
    onehot) / denom on those rows, zero elsewhere, and the number of rows
    whose p was clamped away from zero (the caller reports them)."""
    if labels.shape[0] != probs.shape[0]:
        raise ValueError("labels and probabilities disagree in length")
    grad = np.zeros_like(probs)
    if rows.size == 0:
        return 0.0, grad, 0
    y = labels[rows]
    p = probs[rows, y]
    low = p < _CLAMP
    n_clamped = int(low.sum())
    if n_clamped:
        p = np.where(low, _CLAMP, p)
    # a Python sum runs left to right; np.sum's pairwise order would move
    # the last bits
    loss = sum((-np.log(p)).tolist()) / denom
    grad[rows] = probs[rows]
    grad[rows, y] -= 1.0
    return loss, grad / denom, n_clamped


def contrastive_loss(v: np.ndarray, text_feats: np.ndarray, labels: np.ndarray,
                     cfg: RunConfig) -> ContrastiveResult:
    """Bidirectional contrast over one unified batch, from the group sums
    (see the module docstring).

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
    if labels.dtype.kind not in "iu" or not np.can_cast(labels.dtype, np.intp):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    if labels.min() < 0:
        raise ValueError(f"labels must be non-negative, got {labels.min()}")
    for name, arr in (("image embeddings", v), ("text features", t)):
        norms = np.linalg.norm(arr, axis=1)
        off = np.abs(norms - 1.0) > 1e-6
        if off.any():
            i = int(np.argmax(off))
            raise ValueError(f"{name} row {i} has norm {norms[i]:.8f}, "
                             "expected unit within 1e-6")

    # the present labels in ascending order, as groups 0, 1, ...: counts
    # by one bincount, each row's group by the rank of its label
    counts = np.bincount(labels)
    present = counts > 0
    sizes = counts[present]
    group = (np.cumsum(present) - 1)[labels]
    v_sum = np.zeros((sizes.size, v.shape[1]))
    t_sum = np.zeros_like(v_sum)
    np.add.at(v_sum, group, v)
    np.add.at(t_sum, group, t)
    positive = float(np.sum(np.einsum("gd,gd->g", v_sum, t_sum) / sizes)) / cfg.tau
    d_z_t = (t_sum / sizes[:, None])[group] * -2.0  # accumulates d_z @ t

    # The same buffer holds z twice: shifted by its column maxima for the
    # text anchors (L_i2t), then by its row maxima for the image anchors.
    scale = 1.0 / n if cfg.anchor_reduction == "mean" else 1.0
    z = np.empty((n, n))
    losses = []
    for axis in (0, 1):
        np.matmul(v, t.T, out=z)
        z /= cfg.tau                       # z[i, j] = v_i . t_j / tau
        top = z.max(axis=axis, keepdims=True)
        z -= top
        np.exp(z, out=z)
        total = z.sum(axis=axis, keepdims=True)
        losses.append((float(np.sum(top + np.log(total))) - positive) * scale)
        z /= total                         # each anchor's softmax
        d_z_t += z @ t
    loss_i2t, loss_t2i = losses
    return ContrastiveResult(loss_i2t=loss_i2t, loss_t2i=loss_t2i,
                             loss_con=loss_i2t + loss_t2i,
                             grad_v=d_z_t * (scale / cfg.tau))
