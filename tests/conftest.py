"""Shared fixtures: small random containers built directly, not via the
synthetic generators, so the storage tests do not depend on them."""

import numpy as np

from bankadapt.embank import DownstreamDataset, EmbeddingBank


def unit_rows(rng, n, d, dtype=np.float32):
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x.astype(dtype)


def embed_one(embedder, x) -> np.ndarray:
    """Per-vector reference for FrozenEmbedder.embed_rows: project one image
    vector and scale it to unit norm."""
    y = embedder.projection @ np.asarray(x, dtype=np.float64)
    return y / np.linalg.norm(y)


def fixed_order_scores(v, f) -> np.ndarray:
    """Full (m, q) cosine matrix with the sampler's arithmetic: float64 rows
    divided by the square root of their einsum squared norms, products
    summed over the feature index in ascending order.  Its entries equal the
    sampler's scores bit for bit."""
    def unit(x):
        x = np.array(x, dtype=np.float64)
        return x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]

    a, b = unit(v), unit(f)
    s = np.zeros((a.shape[0], b.shape[0]))
    for t in range(a.shape[1]):
        s += a[:, t, None] * b[None, :, t]
    return s


def random_bank(seed=0, m=17, d_img=6, d=4) -> EmbeddingBank:
    rng = np.random.default_rng(seed)
    return EmbeddingBank(
        images=rng.standard_normal((m, d_img)).astype(np.float32),
        feats=unit_rows(rng, m, d),
        caption_feats=unit_rows(rng, m, d),
        captions=[f"a photo of thing-{i}." for i in range(m)],
        latent_class=rng.integers(-1, 3, size=m).astype(np.int32),
    )


def random_dataset(seed=0, n=12, n_classes=3, d_img=6, d=4) -> DownstreamDataset:
    rng = np.random.default_rng(seed)
    return DownstreamDataset(
        images=rng.standard_normal((n, d_img)).astype(np.float32),
        labels=rng.integers(0, n_classes, size=n).astype(np.int32),
        class_names=[f"class-{c}" for c in range(n_classes)],
        class_descriptions=[f"synthetic category {c}" for c in range(n_classes)],
        class_text_feats=unit_rows(rng, n_classes, d),
    )


def awkward_probs(seed, n=60, n_classes=4, t_thresh=0.7):
    """Softmax rows shuffled with the rows the pseudo-label rules decide:
    exact argmax ties, a top probability exactly at t_thresh, and rows so
    sharp that some entries fall below 1e-12."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, 5.0, 60.0], size=(n, 1))
    logits = rng.standard_normal((n, n_classes)) * scale
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    for i in range(0, n, 5):  # two columns share the row's top value
        row = rng.random(n_classes)
        a, b = rng.choice(n_classes, size=2, replace=False)
        row[a] = row[b] = row.max() + 0.5
        probs[i] = row / row.sum()
    for i in range(1, n, 5):  # the top probability is exactly t_thresh
        rest = rng.random(n_classes)
        top = int(rng.integers(n_classes))
        rest[top] = 0.0
        probs[i] = rest * ((1.0 - t_thresh) / rest.sum())
        probs[i, top] = t_thresh
    return probs
