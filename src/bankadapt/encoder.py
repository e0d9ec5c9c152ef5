"""Frozen embedders and the small trainable encoder.

The frozen embedder stands in for a pre-trained two-tower model: a fixed
random projection to the shared feature space followed by L2 normalization.
Both towers built from one seed share the same projection, so the text
feature of a concept vector coincides with the image feature of a noiseless
image of that concept.  That alignment is what makes zero-shot retrieval
against class text features meaningful at this scale.

The trainable encoder is a two-layer tanh MLP producing an embedding V, its
unit-normalized version v for the contrastive objective, and class logits
from a linear head on V.  Gradients are accumulated by hand in reverse; the
only non-obvious term is the normalization Jacobian

    dv/dV = (I - v v^T) / ||V||

which projects upstream gradients onto the tangent space of the unit sphere.
All trainable math runs in binary64; checkpoints store binary64 exactly.

A checkpoint is a DATC container, declared by the ``DATC`` layout in
``embank.py``: image_dim, hidden_dim, feat_dim and n_classes (u32 each) in
its header, then w1, b1, w2, b2, head_w and head_b, float64, in its payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embank import DATC, read_fields, write_file
from .seeding import derive_rng


class NumericError(ValueError):
    """Non-finite values or a degenerate (zero-norm) embedding."""


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class FrozenEmbedder:
    """Fixed projection into the shared feature space; never trained."""

    kind: str                 # "image" or "text"
    projection: np.ndarray    # (d, D_img) float64

    @classmethod
    def from_seed(cls, kind: str, seed: int, feat_dim: int, image_dim: int) -> "FrozenEmbedder":
        if kind not in ("image", "text"):
            raise ConfigurationError(f"unknown embedder kind {kind!r}")
        # one projection per seed, shared by both kinds: see module docstring
        rng = derive_rng(seed, "frozen-projection")
        proj = rng.standard_normal((feat_dim, image_dim)) / np.sqrt(image_dim)
        return cls(kind=kind, projection=proj)

    def embed_rows(self, x: np.ndarray, first_row: int = 0) -> np.ndarray:
        """The unit feats of the rows of x, which an error numbers from
        first_row (x being rows of a larger set drawn a block at a time)."""
        y = np.asarray(x, dtype=np.float64) @ self.projection.T
        if not np.all(np.isfinite(y)):
            raise NumericError(f"{self.kind} embedder produced non-finite values")
        # np.linalg.norm(y, axis=1) is sqrt(add.reduce(y.conj() * y, axis=1));
        # for real rows the copy y.conj() is y itself
        norms = np.sqrt(np.add.reduce(y * y, axis=1, keepdims=True))
        zero = np.flatnonzero(norms.ravel() == 0.0)
        if zero.size:
            raise NumericError(f"{self.kind} embedder got zero-norm output at row "
                               f"{first_row + int(zero[0])}")
        y /= norms
        return y


@dataclass
class EncoderParams:
    """Two-layer tanh MLP (image_dim -> hidden -> feat) plus a linear class head.

    The same container holds gradients and SGD velocity, field for field."""

    w1: np.ndarray      # (hidden, image_dim)
    b1: np.ndarray      # (hidden,)
    w2: np.ndarray      # (feat, hidden)
    b2: np.ndarray      # (feat,)
    head_w: np.ndarray  # (classes, feat)
    head_b: np.ndarray  # (classes,)

    @property
    def image_dim(self) -> int:
        return self.w1.shape[1]

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(*(np.zeros_like(f) for f in self.fields()))

    def fields(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.head_w, self.head_b)

    def norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(f * f)) for f in self.fields())))


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the backward pass needs, cached from one batch forward."""

    x: np.ndarray        # (N, image_dim)
    a1: np.ndarray       # (N, hidden) tanh of the layer-1 pre-activation
    embedding: np.ndarray    # (N, feat) V
    embed_norm: np.ndarray   # (N,) ||V||
    unit_embedding: np.ndarray  # (N, feat) v = V / ||V||
    logits: np.ndarray   # (N, classes)
    probs: np.ndarray    # (N, classes) softmax rows


def init_params(seed: int, image_dim: int, hidden_dim: int, feat_dim: int,
                n_classes: int) -> EncoderParams:
    """Centered uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    for name, dim in (("image_dim", image_dim), ("hidden_dim", hidden_dim),
                      ("feat_dim", feat_dim), ("n_classes", n_classes)):
        if dim <= 0:
            raise ConfigurationError(f"{name} must be positive, got {dim}")
    rng = derive_rng(seed, "encoder-init")
    w1 = rng.uniform(-1.0, 1.0, (hidden_dim, image_dim)) / np.sqrt(image_dim)
    w2 = rng.uniform(-1.0, 1.0, (feat_dim, hidden_dim)) / np.sqrt(hidden_dim)
    head_w = rng.uniform(-1.0, 1.0, (n_classes, feat_dim)) / np.sqrt(feat_dim)
    return EncoderParams(w1=w1, b1=np.zeros(hidden_dim), w2=w2, b2=np.zeros(feat_dim),
                         head_w=head_w, head_b=np.zeros(n_classes))


def init_params_warm(seed: int, embedder: FrozenEmbedder, hidden_dim: int,
                     n_classes: int) -> EncoderParams:
    """Initialize so the encoder starts out approximating the frozen embedder.

    The first layer carries a scaled copy of the frozen projection into the
    tanh's linear regime and the second layer undoes the scaling, so
    f(x) ~ P x at step zero; extra hidden units and the head start as in the
    cold init.
    """
    feat_dim, image_dim = embedder.projection.shape
    if hidden_dim < feat_dim:
        raise ConfigurationError(
            f"warm start needs hidden_dim >= feat_dim ({hidden_dim} < {feat_dim})")
    base = init_params(seed, image_dim, hidden_dim, feat_dim, n_classes)
    scale = 0.1
    w1 = base.w1 * scale
    w1[:feat_dim] = embedder.projection * scale
    w2 = base.w2 * scale
    w2[:, :feat_dim] = np.eye(feat_dim) / scale
    return EncoderParams(w1=w1, b1=np.zeros(hidden_dim), w2=w2,
                         b2=np.zeros(feat_dim), head_w=base.head_w,
                         head_b=np.zeros(n_classes))


def _check_finite(layer: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values after {layer}")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def encode_and_classify(params: EncoderParams, x: np.ndarray) -> ForwardTrace:
    """Forward one batch (N, image_dim) or a single vector (image_dim,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != params.image_dim:
        raise ConfigurationError(
            f"input dim {x.shape[1]} does not match encoder image_dim {params.image_dim}")
    _check_finite("input", x)
    z1 = x @ params.w1.T + params.b1
    _check_finite("layer1 linear", z1)
    a1 = np.tanh(z1)
    v_raw = a1 @ params.w2.T + params.b2
    _check_finite("layer2 linear", v_raw)
    norms = np.linalg.norm(v_raw, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise NumericError(f"zero-norm embedding at batch row {int(zero[0])}")
    unit = v_raw / norms[:, None]
    logits = v_raw @ params.head_w.T + params.head_b
    _check_finite("classification head", logits)
    probs = softmax_rows(logits)
    return ForwardTrace(x=x, a1=a1, embedding=v_raw, embed_norm=norms,
                        unit_embedding=unit, logits=logits, probs=probs)


def param_gradients(params: EncoderParams, trace: ForwardTrace,
                    d_logits: np.ndarray,
                    d_unit: np.ndarray | None = None) -> EncoderParams:
    """Reverse accumulation from upstream logit and unit-embedding grads.

    d_logits: (N, classes) dL/dlogits; d_unit: (N, feat) dL/dv, or None for
    no gradient through v.  Accumulation over the batch is a fixed-order
    matmul, so results are reproducible run to run.
    """
    head_w_grad = d_logits.T @ trace.embedding
    head_b_grad = d_logits.sum(axis=0)
    d_v = d_logits @ params.head_w
    if d_unit is not None:
        # (I - v v^T)/||V|| applied row-wise
        inner = np.sum(d_unit * trace.unit_embedding, axis=1, keepdims=True)
        d_v += (d_unit - trace.unit_embedding * inner) / trace.embed_norm[:, None]
    d_a1 = d_v @ params.w2
    w2_grad = d_v.T @ trace.a1
    b2_grad = d_v.sum(axis=0)
    d_z1 = d_a1 * (1.0 - trace.a1 ** 2)
    w1_grad = d_z1.T @ trace.x
    b1_grad = d_z1.sum(axis=0)
    return EncoderParams(w1=w1_grad, b1=b1_grad, w2=w2_grad, b2=b2_grad,
                         head_w=head_w_grad, head_b=head_b_grad)


def save_params(params: EncoderParams, path) -> None:
    write_file(path, DATC, params)


def load_params(path) -> EncoderParams:
    return EncoderParams(**read_fields(DATC, path, DATC.names)[0])
