"""Training loop: batching, SGD, determinism, and metrics output."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from bankadapt import cli
from bankadapt.augment import augment_view
from bankadapt.config import RunConfig
from bankadapt.embank import (
    EmbeddingBank,
    ValidationError,
    decode_bank_file,
    encode_bank_file,
    encode_dataset_file,
)
from bankadapt.encoder import (
    FrozenEmbedder,
    init_params,
    init_params_warm,
    load_params,
    save_params,
)
from bankadapt.sampler import stage1_sample, stage2_sample
from bankadapt.seeding import derive_rng
from bankadapt.synth import generate_downstream, generate_pretrain_bank
from bankadapt.trainer import (
    METRICS_HEADER,
    compose_batch,
    evaluate,
    fit,
    steps_per_epoch,
    write_metrics_csv,
)


def tiny_world(seed=0, n_classes=3, n_per_class=8, bank_size=150,
               image_dim=10, feat_dim=6, noise_sigma=0.5):
    spec = RunConfig(seed=seed, n_classes=n_classes, n_per_class=n_per_class,
                     bank_size=bank_size, image_dim=image_dim,
                     feat_dim=feat_dim, class_sep=4.0, in_dist_fraction=0.5,
                     weak_pair_rate=0.2, noise_sigma=noise_sigma)
    ds = generate_downstream(spec)
    bank = generate_pretrain_bank(spec, ds)
    s1 = stage1_sample(bank, ds, spec)
    s2 = stage2_sample(s1, ds, spec)
    return spec, ds, bank, gather(bank, s2.selected_ids)


def gather(source, ids):
    """The rows of ids training draws from, read from source (a bank file or
    a bank in memory) as train reads them."""
    return decode_bank_file(source, ("images", "caption_feats"), rows=ids)


@pytest.fixture(params=["in memory", "file"])
def source_of(request, tmp_path):
    """source_of(bank): the bank itself, or its encoded DATB file."""
    def source(bank):
        if request.param == "in memory":
            return bank
        path = tmp_path / "bank.datb"
        encode_bank_file(bank, path)
        return path
    return source


def empty_selected(image_dim, feat_dim):
    return EmbeddingBank(images=np.zeros((0, image_dim), dtype=np.float32),
                         feats=None,
                         caption_feats=np.zeros((0, feat_dim), dtype=np.float32),
                         captions=None, latent_class=None)


def quick_config(**kw):
    base = dict(seed=0, batch_size=8, mu=2, t_thresh=0.8, epochs=2, lr=0.05,
                momentum=0.9, hidden_dim=12, sigma_weak=0.05,
                sigma_strong=0.3, mask_frac=0.2)
    base.update(kw)
    return RunConfig(**base)


def test_steps_per_epoch():
    assert steps_per_epoch(24, 8) == 3
    assert steps_per_epoch(25, 8) == 4
    assert steps_per_epoch(1, 8) == 1


def test_selected_bank_gathers_by_id(source_of):
    spec, ds, bank, _ = tiny_world()
    ids = stage2_sample(stage1_sample(bank, ds, spec), ds, spec).selected_ids
    selected = gather(source_of(bank), ids)
    assert selected.size == ids.shape[0]
    for row in (0, selected.size // 2, selected.size - 1):
        rid = int(ids[row])
        np.testing.assert_array_equal(selected.images[row], bank.images[rid])
        np.testing.assert_array_equal(selected.caption_feats[row],
                                      bank.caption_feats[rid])


@pytest.mark.parametrize("bad_id", [150, 4000, -1])
def test_selected_bank_rejects_ids_outside_the_bank(bad_id, source_of):
    _, _, bank, _ = tiny_world()
    ids = np.array([3, bad_id, 7, 9999], dtype=np.int64)
    with pytest.raises(ValidationError, match=f"id {bad_id} is outside"):
        gather(source_of(bank), ids)


@pytest.mark.parametrize("name, bank_value, ds_value", [
    ("image_dim", 10, 12), ("feat_dim", 6, 5)])
def test_selected_bank_refuses_a_bank_of_other_dims(name, bank_value, ds_value,
                                                    source_of, tmp_path,
                                                    monkeypatch):
    """A bank file or the synthetic bank is refused, before train draws a
    row of it, when its dimensions are not the dataset's."""
    _, _, bank, _ = tiny_world()
    spec, other, _, _ = tiny_world(**{name: ds_value})
    samples = tmp_path / "s.csv"
    samples.write_text("record_id,assigned_column,score\n"
                       + "".join(f"{i},0,0.5\n" for i in range(4)))
    cfg = replace(spec, samples=str(samples))
    source = source_of(bank)
    if isinstance(source, EmbeddingBank):
        monkeypatch.setattr(cli, "generate_pretrain_bank", lambda *_: source)
        names = "synthetic bank", "synthetic dataset"
    else:
        dataset = tmp_path / "t.datd"
        encode_dataset_file(other, dataset)
        cfg = replace(cfg, bank=str(source), dataset=str(dataset))
        names = f"bank {source}", f"dataset {dataset}"
    message = (f"{names[0]} has {name} {bank_value}, "
               f"{names[1]} has {name} {ds_value}")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cli.selected_for_train(cfg, other)


def test_compose_batch_shapes_and_determinism():
    _, ds, _, selected = tiny_world()
    cfg = quick_config()
    a = compose_batch(ds, selected, cfg, epoch=0, step=1)
    b = compose_batch(ds, selected, cfg, epoch=0, step=1)
    assert a.labeled_weak.shape == (8, ds.image_dim)
    assert a.unlabeled_weak.shape == (16, ds.image_dim)
    assert a.unlabeled_strong.shape == (16, ds.image_dim)
    assert a.caption_feats.shape == (16, ds.feat_dim)
    np.testing.assert_array_equal(a.labeled_weak, b.labeled_weak)
    np.testing.assert_array_equal(a.unlabeled_strong, b.unlabeled_strong)
    c = compose_batch(ds, selected, cfg, epoch=1, step=1)
    assert not np.array_equal(a.labeled_weak, c.labeled_weak)


def test_compose_batch_short_final_batch():
    _, ds, _, selected = tiny_world(n_per_class=7)  # n=21, B=8 -> 8,8,5
    cfg = quick_config()
    last = compose_batch(ds, selected, cfg, epoch=0, step=2)
    assert last.labeled_weak.shape[0] == 5
    assert last.unlabeled_weak.shape[0] == 2 * 5
    with pytest.raises(ValueError, match="past the end"):
        compose_batch(ds, selected, cfg, epoch=0, step=3)


def test_compose_batch_wraps_small_selected():
    _, ds, bank, selected = tiny_world()
    small = replace(selected, images=selected.images[:5],
                    caption_feats=selected.caption_feats[:5])
    cfg = quick_config(mu=3)
    batch = compose_batch(ds, small, cfg, epoch=0, step=0)
    assert batch.unlabeled_weak.shape[0] == 24  # wrapped over 5 records


def test_weak_view_identity_when_sigma_zero():
    _, ds, _, selected = tiny_world()
    cfg = quick_config(sigma_weak=0.0, sigma_strong=0.3, mask_frac=0.1)
    batch = compose_batch(ds, selected, cfg, epoch=0, step=0)
    order = derive_rng(cfg.seed, "batch-labeled", 0).permutation(ds.size)
    idx = order[:cfg.batch_size]
    np.testing.assert_array_equal(batch.labeled_weak,
                                  ds.images[idx].astype(np.float64))


def test_fit_bit_deterministic():
    _, ds, _, selected = tiny_world()
    cfg = quick_config()
    r1 = fit(ds, selected, cfg, eval_ds=ds)
    r2 = fit(ds, selected, cfg, eval_ds=ds)
    for name in ("w1", "b1", "w2", "b2", "head_w", "head_b"):
        np.testing.assert_array_equal(getattr(r1.params, name),
                                      getattr(r2.params, name))
    assert r1.metrics == r2.metrics


def test_metrics_csv_bytes_and_header(tmp_path):
    _, ds, _, selected = tiny_world()
    cfg = quick_config(epochs=1)
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_metrics_csv(fit(ds, selected, cfg, eval_ds=ds).metrics, p1)
    write_metrics_csv(fit(ds, selected, cfg, eval_ds=ds).metrics, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == METRICS_HEADER


def test_eval_only_at_epoch_boundaries():
    _, ds, _, selected = tiny_world()
    cfg = quick_config(epochs=3)
    per_epoch = steps_per_epoch(ds.size, cfg.batch_size)
    result = fit(ds, selected, cfg, eval_ds=ds)
    for m in result.metrics:
        at_boundary = (m.step + 1) % per_epoch == 0
        assert (m.acc_eval is not None) == at_boundary
        if m.acc_eval is not None:
            assert 0.0 <= m.acc_eval <= 1.0
    assert result.final_acc == result.metrics[-1].acc_eval
    silent = fit(ds, selected, cfg)
    assert all(m.acc_eval is None for m in silent.metrics)
    assert silent.final_acc is None


def test_mu_zero_runs_supervised_only():
    _, ds, _, selected = tiny_world()
    cfg = quick_config(mu=0, epochs=1)
    result = fit(ds, selected, cfg)
    assert all(m.loss_u == 0.0 for m in result.metrics)
    assert all(m.n_confident == 0 for m in result.metrics)


def supervised_reference_fit(ds, cfg):
    """Plain supervised SGD written out longhand, for the equivalence check."""
    params = init_params(cfg.seed, ds.image_dim, cfg.hidden_dim, ds.feat_dim,
                         ds.n_classes)
    w1, b1, w2, b2, hw, hb = (a.copy() for a in params.fields())
    vels = [np.zeros_like(a) for a in (w1, b1, w2, b2, hw, hb)]
    n = ds.size
    for epoch in range(cfg.epochs):
        order = derive_rng(cfg.seed, "batch-labeled", epoch).permutation(n)
        for step in range(math.ceil(n / cfg.batch_size)):
            idx = order[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            xb = augment_view(ds.images[idx], idx, "weak", cfg, epoch)
            z1 = xb @ w1.T + b1
            a1 = np.tanh(z1)
            v = a1 @ w2.T + b2
            logits = v @ hw.T + hb
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=1, keepdims=True)
            g = probs.copy()
            g[np.arange(idx.size), ds.labels[idx]] -= 1.0
            g = g / idx.size
            dv = g @ hw
            grads = [
                ((dv @ w2) * (1.0 - a1 ** 2)).T @ xb,
                ((dv @ w2) * (1.0 - a1 ** 2)).sum(axis=0),
                dv.T @ a1,
                dv.sum(axis=0),
                g.T @ v,
                g.sum(axis=0),
            ]
            for buf, grad, pname in zip(vels, grads, (w1, b1, w2, b2, hw, hb)):
                buf *= cfg.momentum
                buf += grad
                pname -= cfg.lr * buf
    return w1, b1, w2, b2, hw, hb


def test_supervised_path_matches_reference_bitwise():
    # with an empty selection, and with a non-empty one, as the benchmark's
    # baseline has: at mu = 0 no step draws an unlabeled row of either
    _, ds, _, selected = tiny_world(n_per_class=7)
    cfg = quick_config(mu=0, eta=0.0, lambda_=0.0, epochs=3)
    reference = supervised_reference_fit(ds, cfg)
    assert selected.size > 0
    for rows in (empty_selected(ds.image_dim, ds.feat_dim), selected):
        result = fit(ds, rows, cfg)
        for got, want in zip(result.params.fields(), reference):
            np.testing.assert_array_equal(got, want)


def test_loss_decreases_on_separable_data():
    _, ds, _, selected = tiny_world(noise_sigma=0.3)
    cfg = quick_config(epochs=6, lr=0.01)
    result = fit(ds, selected, cfg)
    per_epoch = steps_per_epoch(ds.size, cfg.batch_size)
    first = np.mean([m.loss_total for m in result.metrics[:per_epoch]])
    last = np.mean([m.loss_total for m in result.metrics[-per_epoch:]])
    assert last < first


@pytest.mark.parametrize("seed", range(5))
def test_supervised_fit_reaches_train_accuracy(seed):
    _, ds, _, _ = tiny_world(seed=seed, noise_sigma=0.3)
    cfg = quick_config(seed=seed, mu=0, eta=0.0, lambda_=0.0, epochs=12, lr=0.1)
    result = fit(ds, empty_selected(ds.image_dim, ds.feat_dim), cfg,
                 eval_ds=ds)
    assert result.final_acc >= 0.95


def test_checkpoint_roundtrip_after_fit(tmp_path):
    _, ds, _, selected = tiny_world()
    cfg = quick_config(epochs=1)
    result = fit(ds, selected, cfg)
    path = tmp_path / "enc.datc"
    save_params(result.params, path)
    loaded = load_params(path)
    for got, want in zip(loaded.fields(), result.params.fields()):
        np.testing.assert_array_equal(got, want)
    assert evaluate(loaded, ds) == evaluate(result.params, ds)


def test_warm_start_begins_at_the_seeds_frozen_embedder():
    _, ds, _, selected = tiny_world(seed=3)
    cfg = quick_config(seed=3, warm_start=True, hidden_dim=12, epochs=0)
    result = fit(ds, selected, cfg)
    embedder = FrozenEmbedder.from_seed("image", 3, ds.feat_dim, ds.image_dim)
    want = init_params_warm(3, embedder, 12, ds.n_classes)
    assert result.metrics == []
    for got, expected in zip(result.params.fields(), want.fields()):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("kwargs", [
    dict(batch_size=0), dict(mu=-1), dict(t_thresh=0.0), dict(t_thresh=1.5),
    dict(lr=0.0), dict(momentum=1.0), dict(hidden_dim=0), dict(epochs=-1),
])
def test_config_validation(kwargs):
    with pytest.raises(ValidationError):
        quick_config(**kwargs)
