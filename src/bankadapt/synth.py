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

# Rows of the bank generate_pretrain_bank makes at a time.
_BLOCK_ROWS = 1 << 14


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


def _shuffled_images(cfg: RunConfig, concepts: np.ndarray, own: np.ndarray,
                     order: np.ndarray, embedder: FrozenEmbedder
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The float32 images and feats of the records whose own concepts are
    own, in the bank's order: record order[j] is row j.

    A block of records at a time, in draw order, from the one "bank-images"
    Generator (its draws in blocks are its one draw, cut): the noise is
    drawn, the sources added (noise + source is source + noise, bitwise)
    and the block embedded, and its rows are written to where[i] for record
    i, the inverse of order.  So no float64 array of the bank's size is
    made.  The last block takes the rows left over, so that no block is
    shorter than _BLOCK_ROWS unless it is the whole bank: BLAS may multiply
    a few rows by another kernel, whose sums round otherwise than the
    product of the whole bank, and a block of _BLOCK_ROWS rows or more
    embeds each row as that product does."""
    m = own.size
    where = np.empty_like(order)
    where[order] = np.arange(m)
    images = np.empty((m, cfg.image_dim), dtype=np.float32)
    feats = np.empty((m, cfg.feat_dim), dtype=np.float32)
    rng = derive_rng(cfg.seed, "bank-images")
    starts = range(0, max(m - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS)
    for start, stop in zip(starts, [*starts[1:], m]):
        sources = own[start:stop]
        block = rng.normal(0.0, cfg.noise_sigma, size=(sources.size, cfg.image_dim))
        block += np.take(concepts, sources, 0)
        rows = where[start:stop]
        feats[rows] = embedder.embed_rows(block, first_row=start)
        images[rows] = block
    return images, feats


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

    # fixed shuffle so in-distribution records are not a contiguous prefix
    order = _bank_order(cfg)
    image_emb, text_emb = (FrozenEmbedder.from_seed(kind, cfg.seed, cfg.feat_dim,
                                                    cfg.image_dim)
                           for kind in ("image", "text"))
    images, feats = _shuffled_images(cfg, concepts, own, order, image_emb)
    # a caption's feature, as its text, is its subject's: one gather of the
    # C + K embedded concepts by the index the caption table takes
    subject, latent = subject[order], latent[order]
    del own, order  # not held beside the caption table's temporaries
    names = [*ds.class_names, *(f"distractor-{k:02d}" for k in range(K))]
    return EmbeddingBank(
        images=images,
        feats=feats,
        caption_feats=np.take(text_emb.embed_rows(concepts).astype(np.float32),
                              subject, 0),
        captions=StringTable.of([f"a photo of {n}." for n in names], subject),
        latent_class=latent,
    )
