"""Composed batch objective and finite-difference gradient verification."""

import numpy as np
import pytest

from bankadapt import objective
from bankadapt.config import RunConfig
from bankadapt.encoder import (
    EncoderParams,
    encode_and_classify,
    init_params,
    param_gradients,
)
from bankadapt.gradcheck import (
    FIXTURE_KINDS,
    finite_diff_check,
    make_fixture,
    run_gradient_suite,
)
from bankadapt.losses import contrastive_loss
from bankadapt.objective import LossBreakdown, ObjectiveBatch, batch_objective
from bankadapt.pseudo_triplets import build_batch_triplets, pseudo_label_batch
from bankadapt.seeding import derive_rng

GRAD_FIELDS = ("w1", "b1", "w2", "b2", "head_w", "head_b")
LOSS_FIELDS = ("loss_x", "loss_u", "loss_i2t", "loss_t2i", "loss_con",
               "loss_total")


def per_row_cross_entropy(labels, probs, mask, denom):
    """Per-row loop over the rows where mask is set: clamped -log p summed
    left to right in row order, and softmax - onehot for the logit
    gradient, both divided by denom, and the count of clamped rows."""
    total = 0.0
    clamped = 0
    g = np.zeros_like(probs)
    for j in range(len(labels)):
        if mask[j]:
            label = int(labels[j])
            p = float(probs[j, label])
            clamped += p < 1e-12
            total += -float(np.log(max(p, 1e-12)))
            g[j] = probs[j]
            g[j, label] -= 1.0
    return total / denom, g / denom, clamped


def three_pass_objective(params, batch, cfg, include_supervised=True):
    """Reference: one forward and one backward pass per group of views
    (labeled weak, unlabeled weak, unlabeled strong), the contrastive
    gradient routed back to the pass that produced each triplet's view by
    the triplet counts, and the three parameter gradients summed."""
    b, u = batch.n_labeled, batch.n_unlabeled
    trace_l = encode_and_classify(params, batch.labeled_weak)
    trace_w = encode_and_classify(params, batch.unlabeled_weak) if u else None
    trace_s = encode_and_classify(params, batch.unlabeled_strong) if u else None

    if include_supervised:
        loss_x, d_logits_l, clamped_x = per_row_cross_entropy(
            batch.labels, trace_l.probs, np.ones(b, dtype=bool), b)
    else:
        loss_x, clamped_x = 0.0, 0
        d_logits_l = None

    weak_probs = trace_w.probs if u else np.zeros((0, params.head_w.shape[0]))
    pseudo = pseudo_label_batch(weak_probs, cfg.t_thresh)
    confident = pseudo.confident
    if u:
        loss_u, d_logits_s, clamped_u = per_row_cross_entropy(
            pseudo.label, trace_s.probs, confident, u)
        d_logits_s = d_logits_s * cfg.eta
    else:
        loss_u, clamped_u = 0.0, 0
        d_logits_s = None

    triplets = build_batch_triplets(batch.labels, pseudo, batch.caption_feats,
                                    batch.class_text_feats)
    n_weak = int(confident.sum())
    loss_i2t = loss_t2i = 0.0
    d_unit_l = d_unit_w = d_unit_s = None
    if cfg.lambda_ > 0.0 and triplets.n >= 2:
        v_parts = [trace_l.unit_embedding]
        if u:
            v_parts.append(trace_w.unit_embedding[confident])
            v_parts.append(trace_s.unit_embedding)
        con = contrastive_loss(np.concatenate(v_parts), triplets.text_feats,
                               triplets.labels, cfg)
        loss_i2t, loss_t2i = con.loss_i2t, con.loss_t2i
        grad_v = con.grad_v * cfg.lambda_
        d_unit_l = grad_v[:b]
        if u:
            d_unit_w = np.zeros_like(trace_w.unit_embedding)
            d_unit_w[confident] = grad_v[b:b + n_weak]
            d_unit_s = grad_v[b + n_weak:]

    def backward(trace, d_logits, d_unit):
        if d_logits is None:
            d_logits = np.zeros_like(trace.logits)
        return param_gradients(params, trace, d_logits, d_unit)

    parts = []
    if d_logits_l is not None or d_unit_l is not None:
        parts.append(backward(trace_l, d_logits_l, d_unit_l))
    if u and d_unit_w is not None:
        parts.append(backward(trace_w, None, d_unit_w))
    if u and (d_logits_s is not None or d_unit_s is not None):
        parts.append(backward(trace_s, d_logits_s, d_unit_s))
    grads = EncoderParams(*(sum((p.fields()[i] for p in parts),
                                np.zeros_like(f))
                            for i, f in enumerate(params.fields())))
    loss_con = loss_i2t + loss_t2i
    breakdown = LossBreakdown(
        loss_x=loss_x, loss_u=loss_u, loss_i2t=loss_i2t, loss_t2i=loss_t2i,
        loss_con=loss_con,
        loss_total=loss_x + cfg.eta * loss_u + cfg.lambda_ * loss_con,
        n_confident=n_weak, n_clamped=clamped_x + clamped_u)
    return breakdown, grads


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


def test_loss_x_is_summed_left_to_right_in_row_order():
    b = 16
    params = init_params(0, 6, 5, 4, 3)
    batch = small_batch(seed=0, b=b, u=0)
    probs = encode_and_classify(params, batch.labeled_weak).probs
    want, _, _ = per_row_cross_entropy(batch.labels, probs, np.ones(b, bool), b)
    pairwise = float(np.mean(-np.log(probs[np.arange(b), batch.labels])))
    assert pairwise != want  # np.mean's pairwise order moves the last bit
    bd, _ = batch_objective(params, batch, config())
    assert bd.loss_x == want


def test_all_components_non_negative():
    bd, _ = batch_objective(sharp_params(19), small_batch(), config())
    assert bd.n_confident > 0
    assert bd.loss_x >= 0 and bd.loss_u >= 0 and bd.loss_con >= 0
    assert bd.loss_total >= 0


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


def sharp_params(seed):
    """Initial params with a sharpened head, so some unlabeled rows of
    small_batch() clear t = 0.5 and some do not."""
    params = init_params(seed, 6, 5, 4, 3)
    params.head_w *= 6.0
    return params


def reference_cases():
    """Gradcheck fixtures of every kind, a batch without unlabeled rows, a
    batch whose unlabeled rows are all below the threshold, a head so sharp
    that both cross-entropy terms clamp, and weights other than one."""
    cases = []
    for kind in FIXTURE_KINDS:
        fx = make_fixture(kind, seed=31)
        cases.append((kind, fx.params, fx.batch, fx.cfg, fx.include_supervised))
    cases.append(("u=0", init_params(12, 6, 5, 4, 3), small_batch(u=0),
                  config(), True))
    cases.append(("none confident", init_params(18, 6, 5, 4, 3), small_batch(),
                  config(t=0.99), True))
    clamping = init_params(21, 6, 5, 4, 3)
    clamping.head_w *= 300.0
    cases.append(("clamps", clamping, small_batch(), config(), True))
    cases.append(("weights", sharp_params(19), small_batch(),
                  config(eta=0.7, lam=0.4), True))
    return cases


@pytest.mark.parametrize("case", reference_cases(), ids=lambda c: c[0])
def test_stacked_pass_matches_three_pass_reference(case):
    _, params, batch, cfg, include_supervised = case
    got_bd, got = batch_objective(params, batch, cfg, include_supervised)
    want_bd, want = three_pass_objective(params, batch, cfg, include_supervised)
    assert got_bd.n_confident == want_bd.n_confident
    assert got_bd.n_clamped == want_bd.n_clamped
    for name in LOSS_FIELDS:
        assert abs(getattr(got_bd, name) - getattr(want_bd, name)) <= 1e-12, name
    for name in GRAD_FIELDS:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_reference_cases_cover_the_confidence_gate_and_the_clamp():
    breakdown = {name: three_pass_objective(p, b, c, s)[0]
                 for name, p, b, c, s in reference_cases()}
    confident = {name: bd.n_confident for name, bd in breakdown.items()}
    assert confident["u=0"] == confident["none confident"] == 0
    assert min(confident[k] for k in ("unlabeled", "full", "weights")) > 0
    # 2 of the labeled rows' probabilities and 1 of the confident rows'
    assert breakdown["clamps"].n_clamped == 3
    assert all(bd.n_clamped == 0 for name, bd in breakdown.items() if name != "clamps")


@pytest.mark.parametrize("u, lam", [(4, 1.0), (0, 1.0), (4, 0.0)])
def test_one_forward_and_one_backward_per_step(monkeypatch, u, lam):
    calls = {"forward": 0, "backward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(objective, "encode_and_classify",
                        counted("forward", objective.encode_and_classify))
    monkeypatch.setattr(objective, "param_gradients",
                        counted("backward", objective.param_gradients))
    bd, _ = batch_objective(sharp_params(19), small_batch(u=u), config(lam=lam))
    assert bd.n_confident == (3 if u else 0)
    assert calls == {"forward": 1, "backward": 1}
