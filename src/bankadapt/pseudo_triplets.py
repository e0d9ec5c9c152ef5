"""Confidence-thresholded pseudo-labels and the unified image-text-label batch.

A batch mixes three origins into one stack of (text feature, label) rows,
each paired with one image view in the same order.  The views come from a
stack of the step's weak labeled views (rows [0, b)), weak unlabeled views
(rows [b, b+u)) and strong unlabeled views (rows [b+u, b+2u)), and
image_rows names each triplet's row of that stack.  The origins, in order:

  downstream       weak views of labeled images, paired with their class
                   template feature and true label;
  weak_pretrain    weak views of retrieved bank records whose pseudo-label
                   confidence reached the threshold (inclusive), paired with
                   the pseudo-class template feature and pseudo-label;
  strong_pretrain  strong views of every retrieved record in the batch,
                   paired with the record's own caption feature and a fresh
                   label n_classes + j (j counted from 0 within the batch),
                   above every downstream class so each strong record forms
                   its own contrastive group.

The threshold comparison is `confidence >= t`, and argmax ties resolve to
the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class PseudoLabels:
    """One labelling pass over a batch of probability rows."""

    label: np.ndarray       # (U,) int64 argmax class
    confidence: np.ndarray  # (U,) float64 max probability
    confident: np.ndarray   # (U,) bool, confidence >= threshold

    def __len__(self) -> int:
        return self.label.shape[0]


@dataclass(frozen=True)
class BatchTriplets:
    """Rows in fixed emission order: downstream ascending, confident weak
    ascending, then all strong ascending.  The objective gathers each row's
    embedding from the stacked views through image_rows and scatters its
    contrastive gradient back through the same index."""

    text_feats: np.ndarray  # (N, feat_dim) unit rows
    labels: np.ndarray      # (N,) int64
    image_rows: np.ndarray  # (N,) int64 rows of the stacked views

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def pseudo_label_batch(probs: np.ndarray, t_thresh: float) -> PseudoLabels:
    if not 0.0 < t_thresh <= 1.0:
        raise ValueError(f"t_thresh {t_thresh} outside (0, 1]")
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(probs)):
        raise ValueError("probability vector has non-finite entries")
    totals = probs.sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > _PROB_SUM_TOL)
    if off.size:
        i = int(off[0])
        raise ValueError(f"probabilities of row {i} sum to {totals[i]}, "
                         f"not 1 within {_PROB_SUM_TOL}")
    label = np.argmax(probs, axis=1).astype(np.int64)  # ties: lowest index
    confidence = probs[np.arange(label.shape[0]), label]
    return PseudoLabels(label=label, confidence=confidence,
                        confident=confidence >= t_thresh)


def build_batch_triplets(labels: np.ndarray, pseudo: PseudoLabels,
                         caption_feats: np.ndarray,
                         class_text_feats: np.ndarray) -> BatchTriplets:
    """Assemble the unified batch from the step's pseudo-label pass.

    labels are the labeled batch's classes; pseudo labels the weak views of
    the retrieved records whose own caption features are caption_feats.
    Strong labels start at the downstream class count, not the batch's
    largest label, so they can never collide with a pseudo-label.
    """
    n_classes = class_text_feats.shape[0]
    b, u = labels.shape[0], len(pseudo)
    if caption_feats.shape[0] != u:
        raise ValueError("pseudo-labels and caption features must agree in length")
    if b and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("labeled batch contains a label outside [0, classes)")
    confident = np.flatnonzero(pseudo.confident)
    weak = pseudo.label[confident]
    strong = np.arange(u, dtype=np.int64)
    return BatchTriplets(
        text_feats=np.concatenate([class_text_feats[labels],
                                   class_text_feats[weak], caption_feats]),
        labels=np.concatenate([labels.astype(np.int64), weak, n_classes + strong]),
        image_rows=np.concatenate([np.arange(b, dtype=np.int64), b + confident,
                                   b + u + strong]))
