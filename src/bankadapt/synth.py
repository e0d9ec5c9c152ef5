"""Synthetic downstream tasks and pre-training banks with known ground truth.

Class prototypes are near-orthogonal vectors at pairwise distance about
class_sep; images are prototypes plus isotropic Gaussian noise.  The bank
mixes records drawn from the downstream prototypes (latent_class = class)
with records from distractor prototypes (latent_class = -1).  With
probability weak_pair_rate a record's caption and caption feature are
swapped for those of a random distractor, leaving the image and
latent_class alone; those are the noisy image-text pairs the retrieval and
contrastive machinery has to cope with.

Everything is a pure function of the RunConfig's world keys (seed through
n_templates), so generation is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .embank import DownstreamDataset, EmbeddingBank, StringTable
from .encoder import FrozenEmbedder
from .seeding import derive_rng

# Rows of the bank's images whose sources generate_pretrain_bank gathers at
# a time.
_SOURCE_ROWS = 1 << 14


def n_distractors(cfg: RunConfig) -> int:
    # at least as many distractor concepts as downstream classes, and enough
    # to make swapped captions varied even for tiny tasks
    return max(cfg.n_classes, 8)


def prototypes(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """(downstream C x D, distractor K x D) prototype vectors.

    Directions are Gram-Schmidt orthonormalized while the dimension allows,
    then plain unit vectors; all scaled so pairwise prototype distance is
    about class_sep for the orthogonal ones.
    """
    total = cfg.n_classes + n_distractors(cfg)
    rng = derive_rng(cfg.seed, "prototypes")
    raw = rng.standard_normal((total, cfg.image_dim))
    basis = []
    for i in range(total):
        v = raw[i].copy()
        if i < cfg.image_dim:
            for u in basis:
                v -= (v @ u) * u
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            # essentially impossible for Gaussian draws; keep the raw direction
            v, norm = raw[i], np.linalg.norm(raw[i])
        v /= norm
        if i < cfg.image_dim:
            basis.append(v)
        raw[i] = v
    scaled = raw * (cfg.class_sep / np.sqrt(2.0))
    return scaled[:cfg.n_classes], scaled[cfg.n_classes:]


def class_text_features(cfg: RunConfig, protos: np.ndarray,
                        embedder: FrozenEmbedder) -> np.ndarray:
    """Frozen text features per class; with n_templates > 1 the feature is
    the renormalized mean over jittered copies of the prototype."""
    if cfg.n_templates == 1:
        return embedder.embed_rows(protos)
    rng = derive_rng(cfg.seed, "template-jitter")
    feats = np.zeros((protos.shape[0], embedder.projection.shape[0]))
    for t in range(cfg.n_templates):
        jitter = rng.normal(0.0, cfg.noise_sigma, size=protos.shape)
        feats += embedder.embed_rows(protos + jitter)
    feats /= cfg.n_templates
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return feats / norms


def generate_downstream(cfg: RunConfig, split: str = "train",
                        n_per_class: int | None = None) -> DownstreamDataset:
    """Labeled dataset; a different split shares prototypes but redraws noise."""
    npc = cfg.n_per_class if n_per_class is None else n_per_class
    protos, _ = prototypes(cfg)
    labels = np.repeat(np.arange(cfg.n_classes), npc).astype(np.int32)
    rng = derive_rng(cfg.seed, "downstream-images", split)
    noise = rng.normal(0.0, cfg.noise_sigma, size=(labels.size, cfg.image_dim))
    images = protos[labels] + noise
    text_emb = FrozenEmbedder.from_seed("text", cfg.seed, cfg.feat_dim,
                                        cfg.image_dim)
    names = [f"class-{c:02d}" for c in range(cfg.n_classes)]
    descriptions = [f"synthetic category {c} of seed {cfg.seed}"
                    for c in range(cfg.n_classes)]
    return DownstreamDataset(
        images=images.astype(np.float32),
        labels=labels,
        class_names=names,
        class_descriptions=descriptions,
        class_text_feats=class_text_features(cfg, protos, text_emb).astype(np.float32),
    )


def _raw_weak_mask(cfg: RunConfig) -> np.ndarray:
    rng = derive_rng(cfg.seed, "weak-pairs")
    return rng.random(cfg.bank_size) < cfg.weak_pair_rate


def _bank_order(cfg: RunConfig) -> np.ndarray:
    return derive_rng(cfg.seed, "bank-order").permutation(cfg.bank_size)


def weak_pair_mask(cfg: RunConfig) -> np.ndarray:
    """Boolean mask, in emitted record order, of bank records whose caption
    was swapped; pure function of the config, so callers can recover it
    without regenerating the bank."""
    return _raw_weak_mask(cfg)[_bank_order(cfg)]


def generate_pretrain_bank(cfg: RunConfig, ds: DownstreamDataset) -> EmbeddingBank:
    """The bank for ds, made from arrays: a record's own concept and its
    caption's subject index the C class prototypes, then the K distractors,
    for its vectors and for its caption's words alike."""
    if (ds.n_classes, ds.image_dim, ds.feat_dim) != (cfg.n_classes, cfg.image_dim,
                                                     cfg.feat_dim):
        raise ValueError(
            f"dataset classes and dims ({ds.n_classes}, {ds.image_dim}, "
            f"{ds.feat_dim}) do not match config ({cfg.n_classes}, "
            f"{cfg.image_dim}, {cfg.feat_dim})")
    protos, distractors = prototypes(cfg)
    concepts = np.concatenate([protos, distractors])
    C, K, m = cfg.n_classes, len(distractors), cfg.bank_size
    n_in = int(cfg.in_dist_fraction * m)

    rng_cls = derive_rng(cfg.seed, "bank-classes")
    latent = np.full(m, -1, dtype=np.int32)
    latent[:n_in] = rng_cls.integers(0, C, size=n_in)
    own = np.where(latent >= 0, latent, C + rng_cls.integers(0, K, size=m))
    # caption subject: own concept, unless weak-paired to a random distractor
    rng_swap = derive_rng(cfg.seed, "weak-pair-targets")
    subject = np.where(_raw_weak_mask(cfg), C + rng_swap.integers(0, K, size=m), own)

    # fixed shuffle so in-distribution records are not a contiguous prefix;
    # np.take copies rows about twice as fast as x[index], and each float64
    # array is cast to float32, and dropped, before it is shuffled
    order = _bank_order(cfg)
    images = derive_rng(cfg.seed, "bank-images").normal(
        0.0, cfg.noise_sigma, size=(m, cfg.image_dim))
    # noise + source is source + noise, bitwise; the sources are gathered a
    # block of rows at a time, so that they never match the images in size
    for start in range(0, m, _SOURCE_ROWS):
        images[start:start + _SOURCE_ROWS] += np.take(
            concepts, own[start:start + _SOURCE_ROWS], 0)
    image_emb, text_emb = (FrozenEmbedder.from_seed(kind, cfg.seed, cfg.feat_dim,
                                                    cfg.image_dim)
                           for kind in ("image", "text"))
    feats = np.take(image_emb.embed_rows(images).astype(np.float32), order, 0)
    images = images.astype(np.float32)
    images = np.take(images, order, 0)
    # a caption's feature, as its text, is its subject's: one gather of the
    # C + K embedded concepts by the index the caption table takes
    subject = subject[order]
    names = [*ds.class_names, *(f"distractor-{k:02d}" for k in range(K))]
    return EmbeddingBank(
        images=images,
        feats=feats,
        caption_feats=np.take(text_emb.embed_rows(concepts).astype(np.float32),
                              subject, 0),
        captions=StringTable.gathered([f"a photo of {n}." for n in names], subject),
        latent_class=latent[order],
    )
