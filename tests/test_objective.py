"""Composed batch objective and finite-difference gradient verification."""

import numpy as np
import pytest

from bankadapt.config import RunConfig
from bankadapt.encoder import encode_and_classify, init_params
from bankadapt.gradcheck import (
    FIXTURE_KINDS,
    finite_diff_check,
    make_fixture,
    run_gradient_suite,
)
from bankadapt.objective import ObjectiveBatch, batch_objective
from bankadapt.pseudo_triplets import pseudo_label_batch
from bankadapt.seeding import derive_rng


def small_batch(seed=0, b=3, u=4, image_dim=6, feat_dim=4, n_classes=3):
    rng = derive_rng(seed, "objective-test")
    def unit(n, d):
        x = rng.normal(size=(n, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    return ObjectiveBatch(
        labeled_weak=rng.normal(size=(b, image_dim)),
        labels=rng.integers(0, n_classes, size=b).astype(np.int32),
        unlabeled_weak=rng.normal(size=(u, image_dim)),
        unlabeled_strong=rng.normal(size=(u, image_dim)),
        caption_feats=unit(u, feat_dim),
        class_text_feats=unit(n_classes, feat_dim),
    )


def config(eta=1.0, lam=1.0, t=0.5):
    return RunConfig(tau=0.07, eta=eta, lambda_=lam, t_thresh=t)


def test_breakdown_total_identity():
    params = init_params(11, 6, 5, 4, 3)
    batch = small_batch()
    cfg = config(eta=0.7, lam=0.4)
    bd, _ = batch_objective(params, batch, cfg)
    expect = bd.loss_x + 0.7 * bd.loss_u + 0.4 * (bd.loss_i2t + bd.loss_t2i)
    assert bd.loss_total == pytest.approx(expect, abs=1e-12)
    assert bd.loss_con == pytest.approx(bd.loss_i2t + bd.loss_t2i, abs=1e-15)


def test_no_unlabeled_rows():
    params = init_params(12, 6, 5, 4, 3)
    batch = small_batch(u=0)
    bd, grads = batch_objective(params, batch, config())
    assert bd.loss_u == 0.0
    assert bd.n_confident == 0
    assert bd.loss_i2t > 0.0  # labeled triplets still form a batch
    assert grads.norm() > 0.0


def test_requires_labeled_rows():
    params = init_params(13, 6, 5, 4, 3)
    batch = small_batch(b=0)
    with pytest.raises(ValueError, match="labeled"):
        batch_objective(params, batch, config())


def test_supervised_exclusion_zeroes_term():
    params = init_params(14, 6, 5, 4, 3)
    batch = small_batch()
    on, _ = batch_objective(params, batch, config(), include_supervised=True)
    off, _ = batch_objective(params, batch, config(), include_supervised=False)
    assert on.loss_x > 0.0
    assert off.loss_x == 0.0
    assert off.loss_u == pytest.approx(on.loss_u, abs=1e-15)


def test_gradients_additive_across_terms():
    params = init_params(15, 6, 5, 4, 3)
    batch = small_batch()
    _, g_full = batch_objective(params, batch, config(eta=1.0, lam=1.0))
    _, g_sup = batch_objective(params, batch, config(eta=0.0, lam=0.0))
    _, g_unl = batch_objective(params, batch, config(eta=1.0, lam=0.0),
                               include_supervised=False)
    _, g_con = batch_objective(params, batch, config(eta=0.0, lam=1.0),
                               include_supervised=False)
    for name in ("w1", "b1", "w2", "b2", "head_w", "head_b"):
        total = getattr(g_sup, name) + getattr(g_unl, name) + getattr(g_con, name)
        np.testing.assert_allclose(getattr(g_full, name), total,
                                   rtol=0, atol=1e-12)


def test_eta_scales_unlabeled_gradient():
    params = init_params(16, 6, 5, 4, 3)
    batch = small_batch()
    _, g1 = batch_objective(params, batch, config(eta=1.0, lam=0.0),
                            include_supervised=False)
    _, g2 = batch_objective(params, batch, config(eta=2.5, lam=0.0),
                            include_supervised=False)
    np.testing.assert_allclose(g2.head_w, 2.5 * g1.head_w, rtol=0, atol=1e-12)


def test_n_confident_matches_pseudo_labels():
    params = init_params(17, 6, 5, 4, 3)
    batch = small_batch()
    cfg = config(t=0.4)
    bd, _ = batch_objective(params, batch, cfg)
    probs = encode_and_classify(params, batch.unlabeled_weak).probs
    expect = int(pseudo_label_batch(probs, 0.4).confident.sum())
    assert bd.n_confident == expect


def test_fixture_kinds_all_build():
    for kind in FIXTURE_KINDS:
        fx = make_fixture(kind, seed=3)
        assert fx.kind == kind
        assert fx.batch.n_labeled >= 2
        assert fx.batch.n_unlabeled >= 1


def test_fixture_margins_hold():
    fx = make_fixture("full", seed=5)
    probs = encode_and_classify(fx.params, fx.batch.unlabeled_weak).probs
    top = np.sort(probs, axis=1)
    assert np.all(np.abs(top[:, -1] - fx.cfg.t_thresh) > 1e-3)
    assert np.all(top[:, -1] - top[:, -2] > 1e-3)
    assert pseudo_label_batch(probs, fx.cfg.t_thresh).confident.any()


def test_fixture_deterministic():
    a = make_fixture("unlabeled", seed=9)
    b = make_fixture("unlabeled", seed=9)
    np.testing.assert_array_equal(a.batch.labeled_weak, b.batch.labeled_weak)
    np.testing.assert_array_equal(a.params.w1, b.params.w1)


@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_finite_diff_per_kind(kind):
    fx = make_fixture(kind, seed=21)
    result = finite_diff_check(fx)
    assert result.max_rel_err <= 1e-4, result.block_errors


def test_contrastive_kind_head_untouched():
    fx = make_fixture("contrastive", seed=2)
    _, grads = batch_objective(fx.params, fx.batch, fx.cfg,
                               include_supervised=fx.include_supervised)
    assert np.all(grads.head_w == 0.0)
    assert np.all(grads.head_b == 0.0)
    result = finite_diff_check(fx)
    assert result.block_errors["head_w"] == 0.0


def test_small_suite_green():
    results = run_gradient_suite(n_fixtures=4, base_seed=100)
    kinds = [r.kind for r in results]
    assert kinds == list(FIXTURE_KINDS)
    assert all(r.max_rel_err <= 1e-4 for r in results)
