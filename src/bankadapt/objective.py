"""One training batch as a pure function: losses and parameter gradients.

Three forward passes share the encoder: weak labeled views feed the
supervised term, weak unlabeled views produce pseudo-labels (no gradient
flows through the labeling itself), strong unlabeled views feed the
pseudo-label term.  The contrastive term runs over the unit embeddings of
the unified triplet batch, and its gradient is routed back through whichever
forward pass produced each triplet's view.  Loss weights scale the gradients
here so the returned gradients are exactly the gradient of
breakdown.loss_total.  The unlabeled rows are pseudo-labeled once per step,
and that pass's confident mask gates the pseudo-label term, selects the weak
rows of the contrastive batch and routes their gradients back.  The loss
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
from .losses import (
    LossBreakdown,
    contrastive_loss,
    supervised_logit_grads,
    supervised_loss,
    total_loss,
    unlabeled_logit_grads,
    unlabeled_loss,
)
from .pseudo_triplets import build_batch_triplets, pseudo_label_batch


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

    trace_l = encode_and_classify(params, batch.labeled_weak)
    trace_w = encode_and_classify(params, batch.unlabeled_weak) if u else None
    trace_s = encode_and_classify(params, batch.unlabeled_strong) if u else None

    if include_supervised:
        loss_x = supervised_loss(batch.labels, trace_l.probs)
        d_logits_l = supervised_logit_grads(batch.labels, trace_l.probs)
    else:
        loss_x = 0.0
        d_logits_l = None
    _require_finite("supervised loss", loss_x)

    weak_probs = trace_w.probs if u else np.zeros((0, params.n_classes))
    pseudo = pseudo_label_batch(weak_probs, cfg.t_thresh)
    confident = pseudo.confident
    n_confident = int(confident.sum())
    if u:
        loss_u = unlabeled_loss(pseudo, trace_s.probs)
        d_logits_s = unlabeled_logit_grads(pseudo, trace_s.probs)
        if cfg.eta != 1.0:
            d_logits_s = d_logits_s * cfg.eta
    else:
        loss_u = 0.0
        d_logits_s = None
    _require_finite("unlabeled loss", loss_u)

    triplets = build_batch_triplets(batch.labels, pseudo, batch.caption_feats,
                                    batch.class_text_feats)

    loss_i2t = loss_t2i = 0.0
    d_unit_l = d_unit_w = d_unit_s = None
    if cfg.lambda_ > 0.0 and triplets.n >= 2:
        v_parts = [trace_l.unit_embedding]
        if u:
            v_parts.append(trace_w.unit_embedding[confident])
            v_parts.append(trace_s.unit_embedding)
        v_all = np.concatenate(v_parts, axis=0)
        con = contrastive_loss(v_all, triplets.text_feats, triplets.labels, cfg)
        loss_i2t, loss_t2i = con.loss_i2t, con.loss_t2i
        grad_v = con.grad_v if cfg.lambda_ == 1.0 else con.grad_v * cfg.lambda_
        d_unit_l = grad_v[:b]
        if u:
            n_weak = triplets.n_weak
            d_unit_w = np.zeros_like(trace_w.unit_embedding)
            d_unit_w[confident] = grad_v[b:b + n_weak]
            d_unit_s = grad_v[b + n_weak:]
    _require_finite("contrastive loss", loss_i2t + loss_t2i)

    grads = params.zeros_like()
    if d_logits_l is not None or d_unit_l is not None:
        grads.add_(param_gradients(params, trace_l, d_logits_l, d_unit_l))
    if u and d_unit_w is not None:
        grads.add_(param_gradients(params, trace_w, None, d_unit_w))
    if u and (d_logits_s is not None or d_unit_s is not None):
        grads.add_(param_gradients(params, trace_s, d_logits_s, d_unit_s))

    breakdown = total_loss(loss_x, loss_u, loss_i2t, loss_t2i, n_confident, cfg)
    _require_finite("total loss", breakdown.loss_total)
    return breakdown, grads
