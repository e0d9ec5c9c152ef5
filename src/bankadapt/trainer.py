"""SGD training loop over the composed objective.

Every source of randomness is a named stream derived from the run seed, so
two fits with the same resolved config produce bit-identical parameters and
metrics.  Batches draw labeled rows from a per-epoch permutation of the
downstream set and unlabeled rows from a per-epoch permutation of the
sampled bank subset, wrapping around when the subset is smaller than the
epoch's unlabeled demand.  Every setting is read from one RunConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .augment import STRONG, WEAK, augment_view
from .config import RunConfig
from .embank import (
    DownstreamDataset,
    EmbeddingBank,
    ValidationError,
    refuse_outside,
)
from .encoder import (
    EncoderParams,
    FrozenEmbedder,
    encode_and_classify,
    init_params,
    init_params_warm,
)
from .objective import ObjectiveBatch, batch_objective
from .seeding import derive_rng

METRICS_HEADER = ("step,epoch,loss_x,loss_u,loss_con,loss_total,"
                  "n_confident,grad_norm,acc_eval")


@dataclass(frozen=True)
class SelectedBank:
    """Bank rows gathered by record id, in sampler emission order."""

    ids: np.ndarray            # (k,) original bank record ids
    images: np.ndarray         # (k, image_dim)
    caption_feats: np.ndarray  # (k, feat_dim)

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @classmethod
    def of_rows(cls, rows: EmbeddingBank, ids: np.ndarray,
                ds: DownstreamDataset) -> "SelectedBank":
        """ids with their rows: rows holds the images and caption_feats of
        ids, in ids' order, as decode_bank_file(..., rows=ids) reads them.
        Refused unless their image and feature dimensions are ds's."""
        for name, own, want in (
                ("image_dim", rows.images.shape[1], ds.image_dim),
                ("feat_dim", rows.caption_feats.shape[1], ds.feat_dim)):
            if own != want:
                raise ValidationError([f"bank has {name} {own}, "
                                       f"dataset has {want}"])
        return cls(ids=np.asarray(ids, dtype=np.int64), images=rows.images,
                   caption_feats=rows.caption_feats)

    @classmethod
    def from_bank(cls, bank: EmbeddingBank, ids: np.ndarray,
                  ds: DownstreamDataset) -> "SelectedBank":
        """The bank rows of ids, gathered in their order, refused unless
        every id lies inside the bank, and as of_rows refuses them."""
        ids = np.asarray(ids, dtype=np.int64)
        refuse_outside(ids, bank.size)
        return cls.of_rows(replace(bank, images=bank.images[ids],
                                   caption_feats=bank.caption_feats[ids]), ids, ds)


@dataclass(frozen=True)
class StepMetrics:
    step: int
    epoch: int
    loss_x: float
    loss_u: float
    loss_con: float
    loss_total: float
    n_confident: int
    grad_norm: float
    acc_eval: float | None = None


@dataclass
class TrainResult:
    params: EncoderParams
    metrics: list[StepMetrics]

    @property
    def final_acc(self) -> float | None:
        for m in reversed(self.metrics):
            if m.acc_eval is not None:
                return m.acc_eval
        return None


def steps_per_epoch(n: int, batch_size: int) -> int:
    return math.ceil(n / batch_size)


def compose_batch(ds: DownstreamDataset, selected: SelectedBank,
                  cfg: RunConfig, epoch: int, step: int) -> ObjectiveBatch:
    n = ds.size
    order_l = derive_rng(cfg.seed, "batch-labeled", epoch).permutation(n)
    lab_idx = order_l[step * cfg.batch_size:(step + 1) * cfg.batch_size]
    if lab_idx.size == 0:
        raise ValueError(f"step {step} is past the end of epoch {epoch}")
    labeled_weak = augment_view(ds.images[lab_idx], lab_idx, WEAK, cfg, epoch)

    u = cfg.mu * lab_idx.size
    if u > 0 and selected.size > 0:
        order_u = derive_rng(cfg.seed, "batch-unlabeled", epoch).permutation(
            selected.size)
        start = step * cfg.mu * cfg.batch_size
        pos = order_u[(start + np.arange(u)) % selected.size]
        # Augmentation ids offset by n so bank streams never collide with
        # downstream streams.
        aug_ids = n + pos
        images = selected.images[pos]
        unlabeled_weak = augment_view(images, aug_ids, WEAK, cfg, epoch)
        unlabeled_strong = augment_view(images, aug_ids, STRONG, cfg, epoch)
        caption_feats = selected.caption_feats[pos].astype(np.float64)
    else:
        dim = ds.image_dim
        unlabeled_weak = np.zeros((0, dim))
        unlabeled_strong = np.zeros((0, dim))
        caption_feats = np.zeros((0, ds.feat_dim))

    return ObjectiveBatch(
        labeled_weak=labeled_weak,
        labels=ds.labels[lab_idx].astype(np.int64),
        unlabeled_weak=unlabeled_weak,
        unlabeled_strong=unlabeled_strong,
        caption_feats=caption_feats,
        class_text_feats=np.asarray(ds.class_text_feats, dtype=np.float64),
    )


def sgd_update(params: EncoderParams, velocity: EncoderParams,
               grads: EncoderParams, lr: float, momentum: float) -> None:
    for param, buf, grad in zip(params.fields(), velocity.fields(),
                                grads.fields()):
        buf *= momentum
        buf += grad
        param -= lr * buf


def evaluate(params: EncoderParams, ds: DownstreamDataset) -> float:
    """Accuracy of head argmax on raw (unaugmented) images."""
    probs = encode_and_classify(params, ds.images.astype(np.float64)).probs
    pred = np.argmax(probs, axis=1)
    return float(np.mean(pred == ds.labels))


def fit(ds: DownstreamDataset, selected: SelectedBank, cfg: RunConfig,
        eval_ds: DownstreamDataset | None = None) -> TrainResult:
    """Train from the seed's initial parameters; with warm_start the
    encoder starts near the seed's frozen image embedder."""
    if cfg.warm_start:
        embedder = FrozenEmbedder.from_seed("image", cfg.seed, ds.feat_dim,
                                            ds.image_dim)
        params = init_params_warm(cfg.seed, embedder, cfg.hidden_dim,
                                  ds.n_classes)
    else:
        params = init_params(cfg.seed, ds.image_dim, cfg.hidden_dim,
                             ds.feat_dim, ds.n_classes)
    velocity = params.zeros_like()
    metrics: list[StepMetrics] = []
    global_step = 0
    n_steps = steps_per_epoch(ds.size, cfg.batch_size)
    for epoch in range(cfg.epochs):
        for step in range(n_steps):
            batch = compose_batch(ds, selected, cfg, epoch, step)
            breakdown, grads = batch_objective(params, batch, cfg)
            grad_norm = grads.norm()
            sgd_update(params, velocity, grads, cfg.lr, cfg.momentum)
            acc = None
            if eval_ds is not None and step == n_steps - 1:
                acc = evaluate(params, eval_ds)
            metrics.append(StepMetrics(
                step=global_step, epoch=epoch, loss_x=breakdown.loss_x,
                loss_u=breakdown.loss_u, loss_con=breakdown.loss_con,
                loss_total=breakdown.loss_total,
                n_confident=breakdown.n_confident, grad_norm=grad_norm,
                acc_eval=acc))
            global_step += 1
    return TrainResult(params=params, metrics=metrics)


def write_metrics_csv(metrics: list[StepMetrics], path) -> None:
    """Stable text form: repr of binary64 values, empty cell for no eval."""
    lines = [METRICS_HEADER]
    for m in metrics:
        acc = "" if m.acc_eval is None else repr(float(m.acc_eval))
        lines.append(",".join([
            str(m.step), str(m.epoch), repr(float(m.loss_x)),
            repr(float(m.loss_u)), repr(float(m.loss_con)),
            repr(float(m.loss_total)), str(m.n_confident),
            repr(float(m.grad_norm)), acc]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
