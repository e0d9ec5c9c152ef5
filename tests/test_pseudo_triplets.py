import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankadapt.pseudo_triplets import build_batch_triplets, pseudo_label_batch
from conftest import awkward_probs


def reference_pseudo_labels(probs, t_thresh):
    """Per-row loop: the first maximum wins, confident iff it reaches t."""
    labels, confidences, confident = [], [], []
    for row in probs:
        label = 0
        for c in range(1, row.shape[0]):
            if row[c] > row[label]:
                label = c
        labels.append(label)
        confidences.append(float(row[label]))
        confident.append(float(row[label]) >= t_thresh)
    return labels, confidences, confident


class TestPseudoLabel:
    def test_threshold_is_inclusive(self):
        p = np.array([[0.95, 0.05]])
        assert pseudo_label_batch(p, 0.95).confident.tolist() == [True]
        assert pseudo_label_batch(p, 0.950001).confident.tolist() == [False]

    def test_argmax_tie_takes_lowest_class(self):
        pl = pseudo_label_batch(np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]]), 0.5)
        assert pl.label.tolist() == [0, 1]
        assert pl.confidence.tolist() == [0.4, 0.4]
        assert not pl.confident.any()

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="row 1 sum"):
            pseudo_label_batch(np.array([[0.5, 0.5], [0.6, 0.6]]), 0.9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pseudo_label_batch(np.array([[np.nan, 1.0]]), 0.9)

    def test_threshold_range_validated(self):
        with pytest.raises(ValueError, match="t_thresh"):
            pseudo_label_batch(np.array([[1.0, 0.0]]), 0.0)
        with pytest.raises(ValueError, match="t_thresh"):
            pseudo_label_batch(np.array([[1.0, 0.0]]), 1.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           lo=st.floats(0.05, 0.9), hi=st.floats(0.05, 0.9))
    def test_confident_sets_nest_as_threshold_rises(self, seed, lo, hi):
        t_lo, t_hi = sorted((lo, hi))
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((20, 4)) * 3
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        at_lo = pseudo_label_batch(probs, t_lo).confident
        at_hi = pseudo_label_batch(probs, t_hi).confident
        assert not np.any(at_hi & ~at_lo)

    def test_batch_returns_one_row_per_input(self):
        pl = pseudo_label_batch(np.array([[0.9, 0.1], [0.2, 0.8]]), 0.5)
        assert len(pl) == 2
        assert pl.label.dtype == np.int64 and pl.confidence.dtype == np.float64
        assert pl.confident.dtype == bool
        assert pl.label.tolist() == [0, 1]
        assert len(pseudo_label_batch(np.zeros((0, 3)), 0.5)) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_row_reference(self, seed):
        t = 0.7
        probs = awkward_probs(seed, t_thresh=t)
        assert (probs < 1e-12).any()
        labels, confidences, confident = reference_pseudo_labels(probs, t)
        pl = pseudo_label_batch(probs, t)
        assert pl.label.tolist() == labels
        assert pl.confidence.tolist() == confidences
        assert pl.confident.tolist() == confident
        assert pl.confident[1::5].all()  # exactly at the threshold
        assert len(pl) == probs.shape[0]


class TestStrongLabel:
    def test_formula(self):
        batch, *_ = small_batch(n_classes=9, u=3)
        assert batch.labels[batch.n_downstream + batch.n_weak:].tolist() == [9, 10, 11]


def small_batch(b=3, u=4, n_classes=3, d_feat=4, seed=0, peaked=None,
                t_thresh=0.6):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=b)
    probs = np.full((u, n_classes), 1.0 / n_classes)
    if peaked:
        for j, cls in peaked.items():
            probs[j] = 0.05
            probs[j, cls] = 1.0 - 0.05 * (n_classes - 1)
    captions = rng.standard_normal((u, d_feat))
    captions /= np.linalg.norm(captions, axis=1, keepdims=True)
    class_feats = rng.standard_normal((n_classes, d_feat))
    class_feats /= np.linalg.norm(class_feats, axis=1, keepdims=True)
    batch = build_batch_triplets(labels, pseudo_label_batch(probs, t_thresh),
                                 captions, class_feats)
    return batch, labels, captions, class_feats


class TestBatchAssembly:
    def test_counts_and_order(self):
        batch, labels, captions, class_feats = small_batch(peaked={1: 2, 3: 0})
        assert batch.n_downstream == 3
        assert batch.n_weak == 2
        assert batch.n_strong == 4
        assert batch.n == 3 + 2 + 4
        assert batch.text_feats.shape == (9, 4)
        # downstream rows, then confident weak rows ascending, then strong
        assert batch.labels.tolist() == [*labels, 2, 0, 3, 4, 5, 6]
        np.testing.assert_array_equal(batch.text_feats[3:5], class_feats[[2, 0]])
        np.testing.assert_array_equal(batch.text_feats[5:], captions)

    def test_downstream_text_feat_is_class_template(self):
        batch, labels, _, class_feats = small_batch()
        b = batch.n_downstream
        np.testing.assert_array_equal(batch.text_feats[:b], class_feats[labels])
        assert batch.labels[:b].tolist() == labels.tolist()

    def test_confident_weak_uses_pseudo_class_template(self):
        batch, _, _, class_feats = small_batch(peaked={1: 2})
        assert batch.n_weak == 1
        row = batch.n_downstream
        np.testing.assert_array_equal(batch.text_feats[row], class_feats[2])
        assert batch.labels[row] == 2

    def test_strong_labels_are_fresh_and_above_downstream_range(self):
        batch, *_ = small_batch(n_classes=3, u=4)
        strong = batch.labels[batch.n_downstream + batch.n_weak:]
        assert strong.tolist() == [3, 4, 5, 6]
        assert (strong >= 3).all()  # outside [0, n_classes)

    def test_strong_uses_record_caption_feature(self):
        batch, _, captions, _ = small_batch(u=2)
        np.testing.assert_array_equal(batch.text_feats[-2:], captions)

    def test_no_confident_records_yields_no_weak_triplets(self):
        batch, *_ = small_batch(peaked=None, t_thresh=0.95)
        assert batch.n_weak == 0
        assert batch.n == batch.n_downstream + batch.n_strong

    def test_text_feats_are_unit_norm(self):
        batch, *_ = small_batch(peaked={0: 1})
        norms = np.linalg.norm(batch.text_feats, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_label_partition_by_origin(self):
        batch, *_ = small_batch(n_classes=3, peaked={0: 0, 2: 1})
        n_class_rows = batch.n_downstream + batch.n_weak
        assert ((batch.labels[:n_class_rows] >= 0)
                & (batch.labels[:n_class_rows] < 3)).all()
        assert (batch.labels[n_class_rows:] >= 3).all()

    def test_empty_unlabeled_batch_is_fine(self):
        rng = np.random.default_rng(1)
        class_feats = rng.standard_normal((3, 4))
        class_feats /= np.linalg.norm(class_feats, axis=1, keepdims=True)
        batch = build_batch_triplets(
            np.array([0, 2]), pseudo_label_batch(np.zeros((0, 3)), 0.9),
            np.zeros((0, 4)), class_feats)
        assert batch.n == 2 and batch.n_strong == 0 and batch.n_weak == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="agree in length"):
            build_batch_triplets(
                np.array([0, 1]), pseudo_label_batch(np.full((3, 3), 1 / 3), 0.9),
                np.eye(2, 4), np.eye(3, 4))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_batch_triplets(
                np.array([7]), pseudo_label_batch(np.zeros((0, 3)), 0.9),
                np.zeros((0, 4)), np.eye(3, 4))
