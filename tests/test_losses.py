import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankadapt.config import RunConfig
from bankadapt.losses import (
    ContrastiveResult,
    contrastive_loss,
    cross_entropy_term,
)
from bankadapt.pseudo_triplets import PseudoLabels, pseudo_label_batch
from conftest import awkward_probs


def oracle_contrastive(v, t, labels, tau, reduction="sum"):
    """Scalar-enumeration oracle: plain Python loops transcribing the
    bidirectional multi-positive formulas term by term."""
    n = len(v)

    def z(i, j):
        return sum(v[i][a] * t[j][a] for a in range(len(v[i]))) / tau

    loss_i2t = 0.0
    for i in range(n):          # text anchor i, softmax over images
        pos = [k for k in range(n) if labels[k] == labels[i]]
        denom = sum(math.exp(z(j, i)) for j in range(n))
        for k in pos:
            loss_i2t += -math.log(math.exp(z(k, i)) / denom) / len(pos)
    loss_t2i = 0.0
    for i in range(n):          # image anchor i, softmax over texts
        pos = [k for k in range(n) if labels[k] == labels[i]]
        denom = sum(math.exp(z(i, j)) for j in range(n))
        for k in pos:
            loss_t2i += -math.log(math.exp(z(i, k)) / denom) / len(pos)
    if reduction == "mean":
        loss_i2t /= n
        loss_t2i /= n
    return loss_i2t, loss_t2i


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_unit(rng, n, d):
    return unit(rng.standard_normal((n, d)))


def per_row(labels, probs):
    """cross_entropy_term over every row, divided by one: the sum of the
    per-row terms."""
    return cross_entropy_term(labels, probs, np.arange(labels.shape[0]), 1)


class TestCrossEntropy:
    def test_uniform_two_class(self):
        val, _ = per_row(np.array([0]), np.array([[0.5, 0.5]]))
        assert abs(val - math.log(2)) < 1e-12

    def test_quarter_probability_is_two_ln_two(self):
        val, _ = per_row(np.array([1]), np.array([[0.75, 0.25]]))
        assert abs(val - 2 * math.log(2)) < 1e-12

    def test_zero_probability_clamps_instead_of_inf(self, caplog):
        probs = np.array([[0.0, 1.0], [1e-30, 1.0 - 1e-30], [0.5, 0.5]])
        with caplog.at_level(logging.WARNING, logger="bankadapt.losses"):
            val, grad = per_row(np.array([0, 0, 1]), probs)
        assert np.isfinite(val) and np.all(np.isfinite(grad))
        assert abs(val - (-2 * math.log(1e-12) + math.log(2))) < 1e-9
        assert len(caplog.records) == 1  # one warning per call, not per row
        assert "clamped 2 of 3" in caplog.records[0].getMessage()

    def test_no_warning_without_clamps(self, caplog):
        with caplog.at_level(logging.WARNING, logger="bankadapt.losses"):
            per_row(np.array([0, 1]), np.array([[0.5, 0.5], [0.1, 0.9]]))
        assert caplog.records == []

    def test_supervised_mean(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = np.array([0, 1])
        expected = (math.log(2) + -math.log(0.75)) / 2
        loss, _ = cross_entropy_term(labels, probs, np.arange(2), 2)
        assert abs(loss - expected) < 1e-12

    def test_supervised_logit_grads_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        probs = np.abs(rng.standard_normal((5, 4)))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, 5)
        _, g = cross_entropy_term(labels, probs, np.arange(5), 5)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)


def reference_unlabeled(pseudo, strong_probs, mu, batch_size):
    """Per-row loop over confident rows: clamped -log p summed left to right
    in row order, and softmax - onehot for the logit gradient."""
    denom = mu * batch_size
    total = 0.0
    g = np.zeros_like(strong_probs)
    for j in range(len(pseudo)):
        if pseudo.confident[j]:
            label = int(pseudo.label[j])
            total += -float(np.log(max(float(strong_probs[j, label]), 1e-12)))
            g[j] = strong_probs[j]
            g[j, label] -= 1.0
    return total / denom, g / denom


def unlabeled_term(pseudo, strong_probs):
    """cross_entropy_term on the confident rows over all unlabeled rows."""
    return cross_entropy_term(pseudo.label, strong_probs,
                              np.flatnonzero(pseudo.confident),
                              strong_probs.shape[0])


class TestUnlabeledLoss:
    def mk_pseudo(self, flags, labels):
        return PseudoLabels(label=np.array(labels, dtype=np.int64),
                            confidence=np.full(len(flags), 0.99),
                            confident=np.array(flags, dtype=bool))

    def test_divides_by_full_batch_not_confident_count(self):
        probs = np.array([[0.25, 0.75], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        pseudo = self.mk_pseudo([1, 0, 0, 0], [1, 0, 0, 0])
        val, _ = unlabeled_term(pseudo, probs)
        assert abs(val - (-math.log(0.75)) / 4) < 1e-12

    def test_no_confident_terms_gives_zero(self):
        probs = np.full((4, 2), 0.5)
        pseudo = self.mk_pseudo([0, 0, 0, 0], [0, 0, 0, 0])
        assert unlabeled_term(pseudo, probs)[0] == 0.0

    def test_mu_zero_is_zero(self):
        pseudo = self.mk_pseudo([], [])
        assert unlabeled_term(pseudo, np.zeros((0, 2)))[0] == 0.0

    def test_grads_zero_for_unconfident_rows(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7]])
        pseudo = self.mk_pseudo([1, 0], [0, 1])
        _, g = unlabeled_term(pseudo, probs)
        np.testing.assert_allclose(g[1], 0.0)
        np.testing.assert_allclose(g[0], (probs[0] - np.array([1.0, 0.0])) / 2,
                                   atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree in length"):
            unlabeled_term(self.mk_pseudo([1], [0]), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_row_reference(self, seed):
        t = 0.7
        pseudo = pseudo_label_batch(awkward_probs(seed, t_thresh=t), t)
        strong = awkward_probs(seed + 100, t_thresh=t)
        labels = pseudo.label[pseudo.confident]
        assert (strong[pseudo.confident, labels] < 1e-12).any()  # clamps
        loss, grads = reference_unlabeled(pseudo, strong, mu=3, batch_size=20)
        got_loss, got_grads = unlabeled_term(pseudo, strong)
        assert got_loss == loss
        np.testing.assert_array_equal(got_grads, grads)


E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestContrastiveClosedForms:
    def test_identical_embeddings_distinct_labels(self):
        v = np.vstack([E1, E1])
        cfg = RunConfig(tau=1.0)
        res = contrastive_loss(v, v, np.array([0, 1]), cfg)
        assert abs(res.loss_i2t - 2 * math.log(2)) < 1e-12
        assert abs(res.loss_con - 4 * math.log(2)) < 1e-12

    def test_orthogonal_pair_distinct_labels(self):
        v = np.vstack([E1, E2])
        cfg = RunConfig(tau=1.0)
        res = contrastive_loss(v, v, np.array([0, 1]), cfg)
        per_anchor = -math.log(math.e / (math.e + 1))
        assert abs(per_anchor - 0.3132616875182228) < 1e-12
        assert abs(res.loss_i2t - 2 * per_anchor) < 1e-12
        assert abs(res.loss_con - 4 * per_anchor) < 1e-12
        assert abs(res.loss_con - 1.2530467500728913) < 1e-9

    def test_orthogonal_pair_shared_label(self):
        v = np.vstack([E1, E2])
        cfg = RunConfig(tau=1.0)
        res = contrastive_loss(v, v, np.array([3, 3]), cfg)
        p_hi = math.e / (math.e + 1)       # 0.731059
        p_lo = 1.0 / (math.e + 1)          # 0.268941
        expected_i2t = 2 * (-0.5) * (math.log(p_hi) + math.log(p_lo))
        assert abs(expected_i2t - 1.6265233750364457) < 1e-12
        assert abs(res.loss_i2t - expected_i2t) < 1e-9

    def test_uniform_logits_singleton_positives_is_n_ln_n(self):
        for n in (2, 4, 8):
            v = np.tile(E1, (n, 1))
            res = contrastive_loss(v, v, np.arange(n), RunConfig(tau=0.07))
            assert abs(res.loss_i2t - n * math.log(n)) <= 1e-9
            assert abs(res.loss_t2i - n * math.log(n)) <= 1e-9


class TestContrastiveGeneral:
    def test_matches_scalar_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n, d = int(rng.integers(2, 7)), 4
            v = random_unit(rng, n, d)
            t = random_unit(rng, n, d)
            labels = rng.integers(0, 3, n)
            for reduction in ("sum", "mean"):
                cfg = RunConfig(tau=0.07, anchor_reduction=reduction)
                res = contrastive_loss(v, t, labels, cfg)
                oi, ot = oracle_contrastive(v.tolist(), t.tolist(), labels.tolist(),
                                            0.07, reduction)
                assert abs(res.loss_i2t - oi) < 1e-9
                assert abs(res.loss_t2i - ot) < 1e-9

    def test_gradient_matches_finite_differences_of_oracle(self):
        rng = np.random.default_rng(1)
        n, d = 5, 3
        v = random_unit(rng, n, d)
        t = random_unit(rng, n, d)
        labels = np.array([0, 1, 0, 2, 1])
        cfg = RunConfig(tau=0.5)
        res = contrastive_loss(v, t, labels, cfg)
        step = 1e-6
        for i in range(n):
            for a in range(d):
                up = v.copy()
                up[i, a] += step
                down = v.copy()
                down[i, a] -= step
                # oracle has no unit-norm gate, so it can probe off the sphere
                lu = sum(oracle_contrastive(up.tolist(), t.tolist(),
                                            labels.tolist(), 0.5))
                ld = sum(oracle_contrastive(down.tolist(), t.tolist(),
                                            labels.tolist(), 0.5))
                fd = (lu - ld) / (2 * step)
                assert abs(fd - res.grad_v[i, a]) < 1e-5

    def test_mean_reduction_divides_by_n(self):
        rng = np.random.default_rng(2)
        v = random_unit(rng, 6, 4)
        t = random_unit(rng, 6, 4)
        labels = rng.integers(0, 2, 6)
        s = contrastive_loss(v, t, labels, RunConfig(tau=0.1, anchor_reduction="sum"))
        m = contrastive_loss(v, t, labels, RunConfig(tau=0.1, anchor_reduction="mean"))
        assert abs(m.loss_con - s.loss_con / 6) < 1e-12
        np.testing.assert_allclose(m.grad_v, s.grad_v / 6, atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_joint_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        v = random_unit(rng, n, 5)
        t = random_unit(rng, n, 5)
        labels = rng.integers(0, 3, n)
        cfg = RunConfig(tau=0.07)
        base = contrastive_loss(v, t, labels, cfg)
        perm = rng.permutation(n)
        permuted = contrastive_loss(v[perm], t[perm], labels[perm], cfg)
        assert abs(base.loss_con - permuted.loss_con) <= 1e-12

    def test_temperature_rescale_keeps_anchor_rankings(self):
        rng = np.random.default_rng(3)
        n = 6
        v = random_unit(rng, n, 4)
        t = random_unit(rng, n, 4)
        z1 = (v @ t.T) / 0.07
        z2 = (v @ t.T) / 0.21
        # per-anchor softmax ordering depends only on the cosine ordering
        for col in range(n):
            assert np.argsort(z1[:, col]).tolist() == np.argsort(z2[:, col]).tolist()

    def test_positive_sets_include_self(self):
        # a singleton class still has a well-defined (self-positive) term
        v = random_unit(np.random.default_rng(4), 3, 4)
        t = random_unit(np.random.default_rng(5), 3, 4)
        res = contrastive_loss(v, t, np.array([0, 1, 2]), RunConfig(tau=1.0))
        assert res.loss_con > 0

    def test_rejects_tiny_batches_and_bad_norms(self):
        cfg = RunConfig()
        with pytest.raises(ValueError, match="at least 2"):
            contrastive_loss(np.array([E1]), np.array([E1]), np.array([0]), cfg)
        bad = np.vstack([E1 * 2.0, E2])
        with pytest.raises(ValueError, match="image embeddings row 0"):
            contrastive_loss(bad, np.vstack([E1, E2]), np.array([0, 1]), cfg)
        with pytest.raises(ValueError, match="text features row 1"):
            contrastive_loss(np.vstack([E1, E2]), bad[::-1], np.array([0, 1]), cfg)

    def test_text_side_receives_no_gradient(self):
        res = contrastive_loss(np.vstack([E1, E2]), np.vstack([E1, E2]),
                               np.array([0, 1]), RunConfig(tau=1.0))
        assert isinstance(res, ContrastiveResult)
        assert res.grad_v.shape == (2, 2)
        assert not hasattr(res, "grad_t")


def test_config_validation():
    with pytest.raises(ValueError, match="tau"):
        RunConfig(tau=0.0)
    with pytest.raises(ValueError, match="anchor_reduction"):
        RunConfig(anchor_reduction="median")
    with pytest.raises(ValueError, match="non-negative"):
        RunConfig(eta=-1.0)
