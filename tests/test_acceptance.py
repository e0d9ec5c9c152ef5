"""Acceptance gate: nine frozen criteria, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL - detail` (visible with -s or on
failure) and then asserts, so the -v test report carries one line per
criterion either way.  Tolerances and budgets are stated inline next to
each check.
"""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bankadapt.benchmark import VARIANTS, mean_accuracy, run_benchmark
from bankadapt.cli import main as cli_main
from bankadapt.config import RunConfig
from bankadapt.embank import DownstreamDataset, EmbeddingBank
from bankadapt.encoder import encode_and_classify, init_params
from bankadapt.gradcheck import FIXTURE_KINDS, run_gradient_suite
from bankadapt.losses import contrastive_loss
from bankadapt.pseudo_triplets import pseudo_label_batch
from bankadapt.sampler import (
    budget_chunk_rows,
    bytes_per_row,
    default_k1,
    merge_bytes,
    sampler_precision,
    select_topk_streamed,
    stage1_sample,
    stage2_sample,
)
from bankadapt.synth import generate_downstream, generate_pretrain_bank

from conftest import fixed_order_scores


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- criterion 1: analytic gradients vs central finite differences --------

def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = run_gradient_suite(n_fixtures=20, base_seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    kinds = {r.kind for r in results}
    ok = (len(results) == 20 and kinds == set(FIXTURE_KINDS)
          and worst <= 1e-4 and elapsed < 60.0)
    _report(1, ok, f"20 fixtures over {sorted(kinds)}, max rel err "
                   f"{worst:.3e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


# --- criterion 2: contrastive closed forms --------------------------------

def _oracle_bidirectional(v, t, labels, tau):
    """Independent scalar enumeration of both loss directions."""
    n = len(labels)

    def z(i, j):
        return sum(v[i][a] * t[j][a] for a in range(len(v[i]))) / tau

    i2t = t2i = 0.0
    for i in range(n):
        pos = [k for k in range(n) if labels[k] == labels[i]]
        col = sum(math.exp(z(j, i)) for j in range(n))
        row = sum(math.exp(z(i, j)) for j in range(n))
        for k in pos:
            i2t += -math.log(math.exp(z(k, i)) / col) / len(pos)
            t2i += -math.log(math.exp(z(i, k)) / row) / len(pos)
    return i2t, t2i


def test_criterion_2_contrastive_closed_forms():
    cfg = RunConfig(tau=0.07)
    worst_uniform = 0.0
    for n in (2, 4, 8):
        d = n + 1
        v = np.zeros((n, d))
        v[:, 0] = 1.0
        t = np.zeros((n, d))
        t[:, 1] = 1.0           # every logit 0: uniform softmax columns
        labels = np.arange(n)
        result = contrastive_loss(v, t, labels, cfg)
        worst_uniform = max(worst_uniform,
                            abs(result.loss_i2t - n * math.log(n)))

    # N=2 orthogonal pair at tau=1: each of the four anchor terms is
    # -ln(e/(e+1)) = ln(1+1/e), so L_con = 4*ln(1+1/e) = 1.2530467500728913.
    v2 = np.eye(2)
    t2 = np.eye(2)
    labels2 = np.array([0, 1])
    impl = contrastive_loss(v2, t2, labels2, RunConfig(tau=1.0))
    oi2t, ot2i = _oracle_bidirectional(v2, t2, labels2, 1.0)
    oracle_con = oi2t + ot2i
    dev = abs(impl.loss_con - oracle_con)
    drift = abs(impl.loss_con - 1.2530467500728913)
    ok = worst_uniform <= 1e-9 and dev <= 1e-6 and drift <= 1e-9
    _report(2, ok, f"uniform-logit |L_i2t - N ln N| max {worst_uniform:.2e} "
                   f"(tol 1e-9); N=2 orthogonal L_con {impl.loss_con!r} vs "
                   f"oracle {oracle_con!r}, dev {dev:.2e} (tol 1e-6), frozen "
                   f"dev {drift:.2e}")


# --- criterion 3: chunked sampler equals brute force bit-exactly ----------

def _brute_force_topk(rows, cols, k):
    """Full-matrix oracle with pure-Python assignment and ranking."""
    s = fixed_order_scores(rows, cols)
    m, q = s.shape
    pools = [[] for _ in range(q)]
    for r in range(m):
        best = 0
        for j in range(1, q):
            if s[r, j] > s[r, best]:
                best = j
        pools[best].append(r)
    ids, cols_out, scores, deficits = [], [], [], []
    for j in range(q):
        ranked = sorted(pools[j], key=lambda r: (-s[r, j], r))[:k]
        deficits.append(k - len(ranked))
        for r in ranked:
            ids.append(r)
            cols_out.append(j)
            scores.append(s[r, j])
    return (np.array(ids, dtype=np.int64), np.array(cols_out, dtype=np.int64),
            np.array(scores, dtype=np.float64),
            np.array(deficits, dtype=np.int64))


def test_criterion_3_sampler_bit_exactness():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(50):
        m = int(rng.integers(50, 10001))
        q = int(rng.integers(1, 17))
        d = int(rng.integers(3, 25))
        k = int(rng.integers(1, 13))
        rows = rng.standard_normal((m, d))
        cols = rng.standard_normal((q, d))
        chunk_rows = int(rng.integers(1, m + 1))
        got = select_topk_streamed(rows, cols, k, chunk_rows)
        want_ids, want_cols, want_scores, want_deficits = \
            _brute_force_topk(rows, cols, k)
        assert np.array_equal(got.selected_ids, want_ids)
        assert np.array_equal(got.assigned_column, want_cols)
        assert np.array_equal(got.score, want_scores)
        assert np.array_equal(got.deficits, want_deficits)
        assert len(set(got.selected_ids.tolist())) == got.n_selected
        if not got.deficits.any():
            assert got.n_selected == k * q
        checked += 1
    _report(3, checked == 50,
            f"{checked}/50 randomized instances bit-equal to the brute-force "
            f"oracle (ids, columns, scores, deficits); ids distinct; "
            f"|selected| = k*C absent deficits")


def test_criterion_3_stage_chunking_invariance():
    spec = RunConfig(seed=3, n_classes=5, n_per_class=8, bank_size=600,
                     image_dim=12, feat_dim=8, class_sep=4.0,
                     in_dist_fraction=0.5, weak_pair_rate=0.3, noise_sigma=1.0)
    ds = generate_downstream(spec)
    bank = generate_pretrain_bank(spec, ds)
    results = []
    # one row per chunk, against every row in one chunk
    for budget in (1, 1 << 30):
        cfg = replace(spec, memory_budget_bytes=budget)
        s1 = stage1_sample(bank, ds, cfg)
        s2 = stage2_sample(s1, ds, cfg)
        results.append((s1, s2))
    (a1, a2), (b1, b2) = results
    for a, b in ((a1, b1), (a2, b2)):
        assert np.array_equal(a.selected_ids, b.selected_ids)
        assert np.array_equal(a.score, b.score)


# --- criterion 4: stage-2 precision on the low in-distribution bank -------

def test_criterion_4_sampler_precision():
    t0 = time.perf_counter()
    precisions = []
    for seed in range(5):
        spec = RunConfig(seed=seed, n_classes=10, n_per_class=20,
                         bank_size=20000, image_dim=32, feat_dim=16,
                         class_sep=4.0, in_dist_fraction=0.25,
                         weak_pair_rate=0.3, noise_sigma=1.0)
        ds = generate_downstream(spec)
        bank = generate_pretrain_bank(spec, ds)
        s1 = stage1_sample(bank, ds, spec)
        s2 = stage2_sample(s1, ds, spec)
        precisions.append(sampler_precision(s2, bank, ds))
    elapsed = time.perf_counter() - t0
    ok = all(p >= 0.50 for p in precisions) and elapsed < 60.0
    _report(4, ok, "stage-2 precision per seed ["
            + " ".join(f"{p:.3f}" for p in precisions)
            + f"] all >= 0.50 (2x the 0.25 base rate), {elapsed:.1f}s (< 60s)")


# --- criteria 5 and 6: benchmark gain and ablation ordering ---------------

@pytest.fixture(scope="module")
def benchmark_runs():
    t0 = time.perf_counter()
    accs = run_benchmark(seeds=range(5), variants=tuple(VARIANTS))
    return accs, time.perf_counter() - t0


def test_criterion_5_end_to_end_gain(benchmark_runs):
    accs, elapsed = benchmark_runs
    means = mean_accuracy(accs)
    gain = means["full"] - means["baseline"]
    ok = gain >= 0.02 and elapsed < 300.0
    _report(5, ok, f"held-out mean acc full {means['full']:.3f} vs baseline "
                   f"{means['baseline']:.3f}, gain {gain * 100:+.1f} points "
                   f"(need >= +2.0); all 20 runs in {elapsed:.0f}s (< 300s)")


def test_criterion_6_ablation_ordering(benchmark_runs):
    accs, _ = benchmark_runs
    m = mean_accuracy(accs)
    ok = (m["full"] >= m["unlabeled"] and m["full"] >= m["contrastive"]
          and m["unlabeled"] >= m["baseline"] - 0.005
          and m["contrastive"] >= m["baseline"] - 0.005)
    _report(6, ok, "mean acc full {full:.3f} >= single-extra (unlabeled "
                   "{unlabeled:.3f}, contrastive {contrastive:.3f}) >= "
                   "baseline {baseline:.3f} - 0.5 points".format(**m))


# --- criterion 7: sweep determinism and threshold monotonicity ------------

SWEEP_TINY = ["--n_classes", "3", "--n_per_class", "5", "--bank_size", "200",
              "--image_dim", "8", "--feat_dim", "4", "--noise_sigma", "0.6",
              "--hidden_dim", "8", "--batch_size", "5", "--epochs", "1",
              "--lr", "0.005", "--sigma_strong", "0.3", "--mask_frac", "0.1"]


def test_criterion_7_sweep_mechanics(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        code = cli_main(["sweep", *SWEEP_TINY,
                         "--mu_list", "2,3,4,5,6,7",
                         "--t_list", "0.5,0.6,0.7,0.8,0.9,0.95",
                         "--out_dir", str(out)])
        assert code == 0
    sa = (dirs[0] / "sweep" / "summary.csv").read_bytes()
    sb = (dirs[1] / "sweep" / "summary.csv").read_bytes()
    deterministic = sa == sb and len(sa.decode().splitlines()) == 37

    # identical forward passes: one probability table, nested confident sets
    rng = np.random.default_rng(7)
    params = init_params(7, 8, 6, 4, 3)
    params.head_w *= 5.0
    probs = encode_and_classify(params, rng.normal(size=(40, 8))).probs
    thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    sets = []
    for t in thresholds:
        sets.append(set(np.flatnonzero(pseudo_label_batch(probs, t).confident)))
    nested = all(sets[i + 1] <= sets[i] for i in range(len(sets) - 1))
    counts = [len(s) for s in sets]
    ok = deterministic and nested and counts == sorted(counts, reverse=True)
    _report(7, ok, f"36-cell sweep byte-identical across two runs; confident "
                   f"sets nested under rising T, sizes {counts}")


# --- criterion 8: stage-1 at one million records under a memory budget ----

def test_criterion_8_large_bank_performance():
    m, d, q = 1_000_000, 64, 10
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((m, d), dtype=np.float32)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    bank = EmbeddingBank(images=np.zeros((m, 1), dtype=np.float32),
                         feats=feats, caption_feats=feats,
                         captions=[""] * m,
                         latent_class=np.full(m, -1, dtype=np.int32))
    text_feats = rng.standard_normal((q, d))
    text_feats /= np.linalg.norm(text_feats, axis=1, keepdims=True)
    n = 100
    ds = DownstreamDataset(images=np.zeros((n, 1), dtype=np.float32),
                           labels=np.arange(n, dtype=np.int32) % q,
                           class_names=[f"c{j}" for j in range(q)],
                           class_descriptions=[""] * q,
                           class_text_feats=text_feats.astype(np.float32))
    cfg = RunConfig(memory_budget_bytes=64 * 1024 * 1024)
    budget = cfg.memory_budget_bytes
    k = default_k1(n, q, cfg.stage1_multiplier)
    accounted = (budget_chunk_rows(budget, k, d, q) * bytes_per_row(d, q)
                 + merge_bytes(k, d, q))
    tracemalloc.start()
    t0 = time.perf_counter()
    result = stage1_sample(bank, ds, cfg)
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ok = (elapsed < 30.0 and accounted <= budget and peak <= budget
          and result.n_selected == 80 * q)
    _report(8, ok, f"m=1e6 d=64 C=10 in {elapsed:.1f}s (< 30s); accounted "
                   f"{accounted / 2**20:.1f} MiB and traced peak "
                   f"{peak / 2**20:.1f} MiB within the {budget / 2**20:.0f} "
                   f"MiB budget")


# --- criterion 9: byte-identical training runs ----------------------------

TRAIN_CFG = ["--n_classes", "5", "--n_per_class", "10", "--eval_n_per_class",
             "10", "--bank_size", "2000", "--image_dim", "16", "--feat_dim",
             "8", "--noise_sigma", "0.8", "--hidden_dim", "16",
             "--batch_size", "10", "--mu", "2", "--epochs", "3",
             "--lr", "0.005", "--sigma_strong", "0.3", "--mask_frac", "0.1"]


def test_criterion_9_train_determinism(tmp_path):
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    assert cli_main(["train", *TRAIN_CFG, "--out_dir", str(first)]) == 0
    assert cli_main(["train", "--config", str(first / "resolved-train.cfg"),
                     "--out_dir", str(second)]) == 0
    metrics_same = ((first / "metrics.csv").read_bytes()
                    == (second / "metrics.csv").read_bytes())
    ckpt_same = ((first / "encoder.datc").read_bytes()
                 == (second / "encoder.datc").read_bytes())
    _report(9, metrics_same and ckpt_same,
            "re-run from the resolved config: metrics CSV "
            f"{'identical' if metrics_same else 'differs'}, checkpoint "
            f"{'identical' if ckpt_same else 'differs'}")
