"""One training batch as a pure function: losses and parameter gradients.

The step's three groups of views are stacked into one input and encoded in
one forward pass: weak labeled views (rows [0, b)) feed the supervised
term, weak unlabeled views (rows [b, b+u)) are pseudo-labeled once (no
gradient flows through the labeling itself), and strong unlabeled views
(rows [b+u, b+2u)) feed the pseudo-label term.  Both terms are one
cross_entropy_term: on every labeled row over b, and on the confident
unlabeled rows over u; the breakdown carries how many probabilities the
two clamped.  The contrastive term runs over the unit embeddings of the
unified triplet batch, gathered from the stack through the triplets'
image_rows, and its gradient is scattered back through the same rows.  One
backward pass then takes the logit and unit-embedding gradients of the
whole stack.  Loss weights scale the gradients here so the returned
gradients are exactly the gradient of breakdown.loss_total.  The loss
weights, tau, anchor_reduction and t_thresh are read from a RunConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .encoder import (
    EncoderParams,
    NumericError,
    encode_and_classify,
    param_gradients,
)
from .losses import contrastive_loss, cross_entropy_term
from .pseudo_triplets import build_batch_triplets, pseudo_label_batch


@dataclass(frozen=True)
class LossBreakdown:
    loss_x: float
    loss_u: float
    loss_i2t: float
    loss_t2i: float
    loss_con: float
    loss_total: float
    n_confident: int
    n_clamped: int  # probabilities the two cross-entropy terms clamped


@dataclass(frozen=True)
class ObjectiveBatch:
    """Already-augmented views for one step; feature arrays in binary64."""

    labeled_weak: np.ndarray      # (B, image_dim)
    labels: np.ndarray            # (B,)
    unlabeled_weak: np.ndarray    # (U, image_dim)
    unlabeled_strong: np.ndarray  # (U, image_dim)
    caption_feats: np.ndarray     # (U, feat_dim) unit rows
    class_text_feats: np.ndarray  # (C, feat_dim) unit rows

    @property
    def n_labeled(self) -> int:
        return self.labeled_weak.shape[0]

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled_weak.shape[0]


def _require_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise NumericError(f"{name} is not finite")


def batch_objective(params: EncoderParams, batch: ObjectiveBatch, cfg: RunConfig,
                    include_supervised: bool = True
                    ) -> tuple[LossBreakdown, EncoderParams]:
    """include_supervised=False drops the supervised term, so the gradient
    check can test the other terms on their own."""
    if batch.n_labeled < 1:
        raise ValueError("objective needs at least one labeled sample")
    b, u = batch.n_labeled, batch.n_unlabeled
    trace = encode_and_classify(params, np.concatenate(
        [batch.labeled_weak, batch.unlabeled_weak, batch.unlabeled_strong]))
    probs = trace.probs
    d_logits = np.zeros_like(trace.logits)

    labeled = np.arange(b if include_supervised else 0)
    loss_x, d_logits[:b], clamped_x = cross_entropy_term(batch.labels, probs[:b],
                                                         labeled, b)
    _require_finite("supervised loss", loss_x)

    pseudo = pseudo_label_batch(probs[b:b + u], cfg.t_thresh)
    loss_u, d_strong, clamped_u = cross_entropy_term(
        pseudo.label, probs[b + u:], np.flatnonzero(pseudo.confident), u)
    d_logits[b + u:] = cfg.eta * d_strong
    _require_finite("unlabeled loss", loss_u)

    triplets = build_batch_triplets(batch.labels, pseudo, batch.caption_feats,
                                    batch.class_text_feats)
    loss_i2t = loss_t2i = 0.0
    d_unit = None
    if cfg.lambda_ > 0.0 and triplets.n >= 2:
        rows = triplets.image_rows
        con = contrastive_loss(trace.unit_embedding[rows], triplets.text_feats,
                               triplets.labels, cfg)
        loss_i2t, loss_t2i = con.loss_i2t, con.loss_t2i
        d_unit = np.zeros_like(trace.unit_embedding)
        d_unit[rows] = cfg.lambda_ * con.grad_v
    loss_con = loss_i2t + loss_t2i
    _require_finite("contrastive loss", loss_con)

    grads = param_gradients(params, trace, d_logits, d_unit)
    loss_total = loss_x + cfg.eta * loss_u + cfg.lambda_ * loss_con
    _require_finite("total loss", loss_total)
    return LossBreakdown(loss_x=loss_x, loss_u=loss_u, loss_i2t=loss_i2t,
                         loss_t2i=loss_t2i, loss_con=loss_con,
                         loss_total=loss_total,
                         n_confident=int(pseudo.confident.sum()),
                         n_clamped=clamped_x + clamped_u), grads
