import gc
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankadapt import benchmark, embank, sampler
from bankadapt.config import RunConfig
from bankadapt.embank import EmbeddingBank, copy_with_norms, encode_bank_file, read_bank
from bankadapt.encoder import FrozenEmbedder
from bankadapt.sampler import (
    DegenerateRowError,
    PrecisionUndefinedError,
    SampleResult,
    TopKSelector,
    budget_chunk_rows,
    bytes_per_row,
    default_k1,
    default_k2,
    load_sample_csv,
    merge_bytes,
    sampler_precision,
    save_sample_csv,
    select_topk_streamed,
    stage1_sample,
    stage2_sample,
)
from bankadapt.synth import generate_downstream, generate_pretrain_bank

from conftest import fixed_order_scores, random_bank, random_dataset


def brute_force_select(v, f, k):
    """Independent oracle: plain matmul scores, pure-Python per-column sort."""
    vn = np.asarray(v, np.float64)
    vn = vn / np.linalg.norm(vn, axis=1, keepdims=True)
    fn = np.asarray(f, np.float64)
    fn = fn / np.linalg.norm(fn, axis=1, keepdims=True)
    s = vn @ fn.T
    assigned = s.argmax(axis=1)
    out = {}
    for j in range(fn.shape[0]):
        pool = [int(r) for r in np.flatnonzero(assigned == j)]
        pool.sort(key=lambda r: (-s[r, j], r))
        out[j] = pool[:k]
    return out, s


def select_all(v, f, chunk_rows=None):
    """Every row with its best column and score, via the streaming selector."""
    m = len(v)
    return select_topk_streamed(v, f, m, chunk_rows or m)


def score_of(result):
    """record id -> (assigned column, score)."""
    return {int(i): (int(c), float(s)) for i, c, s in
            zip(result.selected_ids, result.assigned_column, result.score)}


class TestScores:
    def test_chunk_size_never_changes_the_scores(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1000, 12))
        f = rng.standard_normal((7, 12))
        full = select_all(v, f)
        for rows in (1, 64, 999):
            chunked = select_all(v, f, rows)
            np.testing.assert_array_equal(chunked.selected_ids, full.selected_ids)
            np.testing.assert_array_equal(chunked.score, full.score)

    def test_scores_are_the_fixed_order_cosines(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((50, 8))
        f = rng.standard_normal((5, 8))
        r = select_all(v, f, 7)
        s = fixed_order_scores(v, f)
        np.testing.assert_array_equal(r.score, s[r.selected_ids, r.assigned_column])
        _, oracle = brute_force_select(v, f, 1)
        np.testing.assert_allclose(r.score, oracle[r.selected_ids, r.assigned_column],
                                   atol=1e-12)

    def test_rows_are_normalized_internally(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((20, 6))
        f = rng.standard_normal((3, 6))
        scaled = score_of(select_all(v * 7.5, f * 0.01))
        plain = score_of(select_all(v, f))
        assert scaled.keys() == plain.keys()
        for rid, (col, sc) in plain.items():
            assert scaled[rid][0] == col
            assert abs(scaled[rid][1] - sc) <= 1e-12

    def test_zero_norm_row_names_its_index(self):
        v = np.ones((4, 3))
        v[2] = 0.0
        for rows in (1, 4):
            with pytest.raises(DegenerateRowError, match="bank row 2"):
                select_topk_streamed(v, np.ones((2, 3)), 1, rows)
        with pytest.raises(DegenerateRowError, match="query row 1"):
            select_topk_streamed(np.ones((2, 3)), np.vstack([np.ones(3), np.zeros(3)]),
                                 1, 2)

    @pytest.mark.parametrize("which, bad", [("bank", np.nan), ("query", np.inf)])
    def test_non_finite_row_names_its_index(self, which, bad):
        v, f = np.ones((4, 3)), np.ones((2, 3))
        (v if which == "bank" else f)[1, 2] = bad
        for rows in (1, 4):
            with pytest.raises(DegenerateRowError,
                               match=f"{which} row 1 has a non-finite norm"):
                select_topk_streamed(v, f, 1, rows)

    def test_cosine_bounds(self):
        rng = np.random.default_rng(3)
        r = select_all(rng.standard_normal((30, 5)), rng.standard_normal((4, 5)))
        assert r.score.max() <= 1.0 + 1e-12 and r.score.min() >= -1.0 - 1e-12


AXES_2D = np.eye(2)


class TestTopkSelection:
    def test_engineered_two_column_example(self):
        v = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3],
                      [0.2, 0.9], [0.1, 0.8], [0.3, 0.6]])
        r = select_topk_streamed(v, AXES_2D, 2, 4)
        col0 = set(r.selected_ids[r.assigned_column == 0].tolist())
        col1 = set(r.selected_ids[r.assigned_column == 1].tolist())
        assert col0 == {0, 1} and col1 == {3, 4}
        assert r.deficits.tolist() == [0, 0]

    def test_assignment_tie_goes_to_lowest_column(self):
        # [1, 1, 0] is equally close to the first two axes
        r = select_topk_streamed(np.array([[1.0, 1.0, 0.0]]), np.eye(3), 1, 1)
        assert r.assigned_column.tolist() == [0]
        assert r.deficits.tolist() == [0, 1, 1]

    def test_score_tie_goes_to_lowest_record_id(self):
        v = np.tile([1.0, 2.0], (3, 1))
        for rows in (1, 2, 3):
            r = select_topk_streamed(v, np.array([[1.0, 0.0]]), 2, rows)
            assert r.selected_ids.tolist() == [0, 1]

    def test_deficit_reported_without_backfill(self):
        # column 1 attracts a single row; column 0 has plenty but must not
        # donate its surplus
        v = np.array([[0.9, 0.0], [0.8, 0.1], [0.85, 0.2], [0.1, 0.9]])
        r = select_topk_streamed(v, AXES_2D, 3, 2)
        assert r.deficits.tolist() == [0, 2]
        assert sorted(r.selected_ids[r.assigned_column == 1].tolist()) == [3]
        assert r.n_selected == 4

    def test_streamed_equals_full_matrix_bitwise(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((500, 10))
        f = rng.standard_normal((6, 10))
        s = fixed_order_scores(v, f)
        oracle, _ = brute_force_select(v, f, 3)
        for rows in (1, 17, 100, 500, 4096):
            stream = select_topk_streamed(v, f, 3, rows)
            for j in range(6):
                assert stream.selected_ids[stream.assigned_column == j].tolist() == oracle[j]
            np.testing.assert_array_equal(
                stream.score, s[stream.selected_ids, stream.assigned_column])
            np.testing.assert_array_equal(stream.deficits, np.zeros(6, np.int64))

    @pytest.mark.parametrize("m, q, d", [(60, 200, 8), (400, 1, 12), (300, 7, 64)])
    def test_equals_a_top_k_over_the_fixed_order_matrix(self, m, q, d):
        """More columns than chunk rows, a single column, and d = 64: ids,
        columns and scores equal a top k over the full fixed-order score
        matrix, bit for bit, for every chunk size."""
        rng = np.random.default_rng(m + q + d)
        v = rng.standard_normal((m, d))
        f = rng.standard_normal((q, d))
        k = 3
        s = fixed_order_scores(v, f)
        assigned = s.argmax(axis=1)
        best = s[np.arange(m), assigned]
        ids = np.array([i for j in range(q) for i in sorted(
            np.flatnonzero(assigned == j), key=lambda i: (-best[i], i))[:k]], np.int64)
        for rows in (1, 5, 59, m):
            r = select_topk_streamed(v, f, k, rows)
            assert np.array_equal(r.selected_ids, ids)
            assert np.array_equal(r.assigned_column, assigned[ids])
            assert np.array_equal(r.score, best[ids])

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_equal_scores_across_chunk_edges_at_the_kth_place(self, k):
        # Copies of one row straddle the chunk edges, and the k-th place is
        # the first copy: once a cut sets the floor to that score, no later
        # copy may enter.
        rng = np.random.default_rng(k)
        dup = np.array([1.0, 0.2, -0.3])
        better = dup + rng.uniform(-0.05, 0.05, (k - 1, 3))
        better[:, 0] += 1.0
        worse = dup + np.array([0.0, 0.4, 0.0])
        h = (k - 1) // 2
        v = np.vstack([worse, dup, better[:h], dup, dup, worse, better[h:],
                       dup, worse, dup, dup, worse, dup, dup])
        m = len(v)
        f = np.array([[1.0, 0.0, 0.0]])
        want = brute_force_select(v, f, k)[0][0]
        assert want[-1] == 1  # the first copy
        for rows in sorted({1, 2, k, k + 1, m}):
            r = select_topk_streamed(v, f, k, rows)
            assert r.selected_ids.tolist() == want, rows
            np.testing.assert_array_equal(r.score, fixed_order_scores(v, f)[want, 0])

    def test_many_columns_cut_the_candidates_more_than_once(self, monkeypatch):
        cuts = []
        cut = sampler.TopKSelector._cut

        def counting_cut(selector):
            cuts.append(selector._n)
            cut(selector)

        monkeypatch.setattr(sampler.TopKSelector, "_cut", counting_cut)
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3000, 6))
        f = rng.standard_normal((40, 6))
        k = 2
        r = select_topk_streamed(v, f, k, 50)
        assert len(cuts) > 2  # at least two cuts while streaming, one at the end
        assert max(cuts[:-1]) <= 2 * k * 40 + 50
        oracle, _ = brute_force_select(v, f, k)
        for j in range(40):
            assert r.selected_ids[r.assigned_column == j].tolist() == oracle[j]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 300),
           q=st.integers(1, 9), k=st.integers(1, 6),
           rows=st.integers(1, 128))
    def test_matches_brute_force_oracle(self, seed, m, q, k, rows):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((m, 5))
        f = rng.standard_normal((q, 5))
        r = select_topk_streamed(v, f, k, rows)
        oracle, _ = brute_force_select(v, f, k)
        for j in range(q):
            got = r.selected_ids[r.assigned_column == j].tolist()
            assert got == oracle[j]
        assert len(set(r.selected_ids.tolist())) == r.n_selected

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_growing_k_only_adds_records(self, seed, k):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((80, 6))
        f = rng.standard_normal((4, 6))
        small = select_topk_streamed(v, f, k, 80)
        large = select_topk_streamed(v, f, k + 1, 80)
        for j in range(4):
            a = set(small.selected_ids[small.assigned_column == j].tolist())
            b = set(large.selected_ids[large.assigned_column == j].tolist())
            assert a <= b

    def test_invalid_k_and_chunk_rows(self):
        v = np.ones((3, 2))
        with pytest.raises(ValueError, match="k must"):
            select_topk_streamed(v, v, 0, 1)
        with pytest.raises(ValueError, match="chunk_rows"):
            select_topk_streamed(v, v, 1, 0)


def assert_top_k_of_fixed_order(r, v, f, k):
    """r's ids, columns and scores are a top k over the full fixed-order
    matrix, bit for bit."""
    s = fixed_order_scores(v, f)
    assigned = s.argmax(axis=1)
    best = s[np.arange(len(v)), assigned]
    ids = np.array([i for j in range(len(f)) for i in sorted(
        np.flatnonzero(assigned == j), key=lambda i: (-best[i], i))[:k]], np.int64)
    assert np.array_equal(r.selected_ids, ids)
    assert np.array_equal(r.assigned_column, assigned[ids])
    assert np.array_equal(r.score, best[ids])


def assert_same_result(a, b):
    """The same selection, bit for bit, carried rows included."""
    for field in ("selected_ids", "assigned_column", "deficits"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(a.score.view(np.int64), b.score.view(np.int64))
    assert (a.feats is None) == (b.feats is None)
    if a.feats is not None:
        assert np.array_equal(a.feats.view(np.uint8), b.feats.view(np.uint8))
    assert a.k == b.k


def near_copies(seed, groups, copies, m, d=16):
    """Rows near `groups` random directions, and `copies` query columns per
    direction, each coordinate moved by up to two ulps: every row's best
    columns tie or differ in their last bits."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((groups, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    f = np.repeat(dirs, copies, axis=0)
    f += rng.integers(-2, 3, f.shape) * np.spacing(np.abs(f))
    v = dirs[rng.integers(0, groups, m)] + 0.1 * rng.standard_normal((m, d))
    return v, f


def unit(x):
    return x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]


def watch_rescoring(monkeypatch):
    """Record, for each chunk scored, whether its matmul is laid out (r, q)
    (wide: fewer rows than columns), its rows, the rows that reach the pair
    rescoring, the pairs rescored and the groups they are taken in."""
    seen = []
    best, groups = sampler.TopKSelector._best, sampler.TopKSelector._groups

    def spy_best(selector, unit):
        seen.append({"wide": selector._floor.size > len(unit), "rows": len(unit)})
        return best(selector, unit)

    def spy_groups(selector, near):
        out = groups(selector, near)
        seen[-1].update(kept=near.size // selector._floor.size,
                        pairs=int(np.count_nonzero(near)), groups=len(out))
        return out

    monkeypatch.setattr(sampler.TopKSelector, "_best", spy_best)
    monkeypatch.setattr(sampler.TopKSelector, "_groups", spy_groups)
    return seen


class TestCertifiedMatmul:
    def test_slack_covers_a_matmul_argmax_that_differs(self):
        # Seed 0 of near_copies has rows whose matmul argmax is not their
        # fixed-order argmax, so a slack of 0 assigns them wrongly here.
        v, f = near_copies(0, groups=16, copies=2, m=64)
        fixed = fixed_order_scores(v, f).argmax(axis=1)
        assert np.any((unit(v) @ unit(f).T).argmax(axis=1) != fixed)
        for rows in (1, 7, 64):
            assert_top_k_of_fixed_order(select_all(v, f, rows), v, f, 64)

    def test_columns_one_ulp_apart(self):
        # Each column has a twin whose first coordinate is one ulp larger:
        # their scores tie exactly or differ in the last ulp, and the lower
        # column must win a tie.
        rng = np.random.default_rng(8)
        base = rng.standard_normal((20, 16))
        twin = base.copy()
        twin[:, 0] = np.nextafter(twin[:, 0], np.inf)
        f = np.stack([base, twin], axis=1).reshape(40, 16)
        v = np.repeat(base, 10, axis=0) + 0.05 * rng.standard_normal((200, 16))
        s = fixed_order_scores(v, f)
        assigned = s.argmax(axis=1)
        pair = assigned - assigned % 2
        a, b = s[np.arange(200), pair], s[np.arange(200), pair + 1]
        assert np.any(a == b) and np.any(np.nextafter(a, b) == b)
        for k, rows in ((3, 1), (3, 33), (200, 200)):
            assert_top_k_of_fixed_order(select_topk_streamed(v, f, k, rows),
                                        v, f, k)

    @pytest.mark.parametrize("copies", [2, 4, 16])
    def test_tied_columns_match_the_oracle_within_the_accounted_peak(self, copies):
        # Duplicated and scaled query columns: every row ties across the
        # copies of its direction, and the rescoring scores each tied pair
        # again by the fixed arithmetic.  Up to four copies a chunk's pairs
        # are rescored at once; with 16 every column ties, and they are
        # rescored in groups of at most _PAIRS_PER_ROW pairs per chunk row.
        rng = np.random.default_rng(copies)
        q, m, d, k = 16, 20_000, 16, 3
        groups = q // copies
        dirs = rng.standard_normal((groups, d))
        scale = rng.uniform(0.5, 4.0, (groups, copies, 1))
        f = (dirs[:, None, :] * scale).reshape(q, d)
        v = (dirs[rng.integers(0, groups, m)]
             + 0.3 * rng.standard_normal((m, d))).astype(np.float32)
        rows = budget_chunk_rows(1 << 20, k, d, q)
        accounted = rows * bytes_per_row(d, q) + merge_bytes(k, d, q)
        gc.collect()
        tracemalloc.start()
        try:
            r = select_topk_streamed(v, f, k, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= accounted, (peak, accounted)
        assert_top_k_of_fixed_order(r, v, f, k)

    @pytest.mark.parametrize("case", ["random", "near copies", "all tie", "axes"])
    def test_either_layout_gives_identical_results(self, monkeypatch, case):
        # Chunks of fewer rows than query columns lay the matmul out (r, q),
        # the others (q, r); every chunk size gives the same bits, a top k
        # of the fixed-order matrix.
        rng = np.random.default_rng(9)
        if case == "random":
            v, f = rng.standard_normal((500, 16)), rng.standard_normal((30, 16))
        elif case == "near copies":
            v, f = near_copies(1, groups=8, copies=5, m=300)
        elif case == "all tie":
            v = rng.standard_normal((100, 8))
            f = np.outer(rng.uniform(0.1, 9.0, 20), rng.standard_normal(8))
        else:
            v, f = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]]), np.eye(3)
        seen = watch_rescoring(monkeypatch)
        for k in (1, 4):
            first, *others = [select_topk_streamed(v, f, k, rows)
                              for rows in (1, 13, len(v))]
            assert_top_k_of_fixed_order(first, v, f, k)
            for r in others:
                assert_same_result(r, first)
        assert {c["wide"] for c in seen} == ({True} if case == "axes" else {True, False})
        if case == "all tie":  # every row ties in all 20 columns
            assert all(c["groups"] > 1 for c in seen)
        if case == "random":
            assert all(c["groups"] == 1 for c in seen)

    def test_either_layout_gives_identical_stage_outputs(self, monkeypatch):
        # Stage 2 re-ranks against 200 images: the middle budget's chunks hold
        # fewer rows than that, the largest budget's more, and one row per
        # chunk lays out stage 1 (10 classes) as (r, q) too.
        spec, ds, bank = make_world(3, m=3000)
        seen = watch_rescoring(monkeypatch)
        results = []
        for budget in (1, 1 << 19, 1 << 22):
            cfg = replace(spec, memory_budget_bytes=budget)
            s1 = stage1_sample(bank, ds, cfg)
            results.append((s1, stage2_sample(s1, ds, cfg)))
        assert {(c["wide"], c["rows"] > 1) for c in seen} == {
            (True, False), (True, True), (False, True)}
        for stages in results[1:]:
            for a, b in zip(stages, results[0]):
                assert_same_result(a, b)
        k1 = default_k1(ds.size, ds.n_classes, spec.stage1_multiplier)
        assert_top_k_of_fixed_order(results[0][0], bank.feats, ds.class_text_feats, k1)


def feed_in_pieces(v, f, k, chunk_rows, bounds):
    """The selection of v fed as the pieces v[bounds[i]:bounds[i + 1]],
    carrying its rows in v's dtype."""
    selector = TopKSelector(f, k, chunk_rows, v.dtype)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        selector.feed(v[lo:hi], lo, *copy_with_norms(v[lo:hi]))
    return selector.result()


def feed_from_file(tmp_path, monkeypatch, v, f, k, chunk_rows, piece_rows):
    """The selection of the float32 unit rows v stored as a bank's feats and
    fed to the selector by read_bank, as stage1_sample feeds them:
    in the reader's blocks of piece_rows rows, each with its float64 copy
    and norms."""
    m = len(v)
    bank = EmbeddingBank(images=np.zeros((m, 1), np.float32), feats=v,
                         caption_feats=v, captions=[""] * m,
                         latent_class=np.full(m, -1, np.int32))
    path = tmp_path / "feed.datb"
    encode_bank_file(bank, path)
    monkeypatch.setattr(embank, "_BLOCK_BYTES", piece_rows * v[:1].nbytes)
    selector = TopKSelector(f, k, chunk_rows)
    read_bank(path, (), selector.feed)
    return selector.result()


def feed_world(case, rng, d=16):
    """Stored float32 unit rows and query columns.  "near ties": rows near
    30 distinct columns, then rows near a direction 6 more columns share to
    their last bits, so the first rows' near-maximum pairs are rescored at
    once and the last rows' in groups."""
    if case == "near ties":
        f = rng.standard_normal((30, d))
        shared = np.repeat(rng.standard_normal((1, d)), 6, axis=0)
        shared += rng.integers(-2, 3, shared.shape) * np.spacing(np.abs(shared))
        f = np.vstack([f, shared])
        v = np.vstack([f[rng.integers(0, 30, 1000)], shared[rng.integers(0, 6, 500)]])
        v += 0.05 * rng.standard_normal(v.shape)
    else:
        f = rng.standard_normal(({"10 columns": 10, "50 columns": 50}[case], d))
        v = rng.standard_normal((2000, d))
    return unit(v).astype(np.float32), f


class TestFeed:
    @pytest.mark.parametrize("case", ["10 columns", "50 columns", "near ties"])
    def test_splitting_the_feed_never_changes_a_bit(self, tmp_path, monkeypatch,
                                                    case):
        rng = np.random.default_rng(21)
        v, f = feed_world(case, rng)
        m, k, chunk_rows = len(v), 6, 97
        seen = watch_rescoring(monkeypatch)
        whole = feed_in_pieces(v, f, k, chunk_rows, [0, m])
        assert {c["groups"] > 1 for c in seen} == (
            {False, True} if case == "near ties" else {False})
        np.testing.assert_array_equal(whole.feats.view(np.uint32),
                                      v[whole.selected_ids].view(np.uint32))
        assert whole.n_selected < m and 2 * k * len(f) < m  # cut mid-stream
        sizes = rng.integers(1, 3 * chunk_rows, m)
        pieces = np.minimum(np.concatenate([[0], np.cumsum(sizes)]), m)
        pieces = np.unique(pieces)
        assert np.any(pieces % chunk_rows != 0)
        for bounds in (np.arange(m + 1), pieces):
            assert_same_result(feed_in_pieces(v, f, k, chunk_rows, bounds), whole)
        # the reader's 150-row pieces, each scored as a chunk of 97 rows and
        # one of 53, so the chunks straddle the in-memory feed's
        seen.clear()
        assert_same_result(feed_from_file(tmp_path, monkeypatch, v, f, k,
                                          chunk_rows, 150), whole)
        assert {c["rows"] for c in seen} - {m % 150} == {97, 53}

    def test_rows_must_come_in_record_order(self):
        rows = np.eye(3, dtype=np.float32)
        selector = TopKSelector(np.eye(3), 1, 4)
        selector.feed(rows, 0, *copy_with_norms(rows))
        with pytest.raises(ValueError, match="ascending"):
            selector.feed(rows, 2, *copy_with_norms(rows))

    def test_rows_of_another_dtype_than_the_carried_are_refused(self):
        v, f, _ = floor_probes(15, 6, np.random.default_rng(15))
        selector = TopKSelector(f, 6, 97)  # carries float32 rows
        with pytest.raises(ValueError, match="float64.*float32"):
            selector.feed(v, 0, *copy_with_norms(v))


def floor_probes(q, k, rng, d=16):
    """Rows that set every column's floor, then rows that cannot beat one,
    then probes at the floors: for each column, a copy of its k-th row (a
    score equal to the floor, with a later id), rows one ulp above and one
    ulp below the floor and near-copies within _slack below it, each probe
    between rows that reach no floor.  Returns the rows, the query columns
    and the probe ids by kind."""
    f = rng.standard_normal((q, d))
    # 2k rows near each column: all are admitted, and the next row cuts them
    # to the k best, so the floors stay at the k-th of these from then on
    head = f[np.arange(2 * k * q) % q] + 0.2 * rng.standard_normal((2 * k * q, d))
    s = fixed_order_scores(head, f)
    assert np.array_equal(s.argmax(axis=1), np.arange(2 * k * q) % q)
    rows, ids = [head, rng.standard_normal((200, d))], {}
    for j in range(q):
        pool = np.flatnonzero(s.argmax(axis=1) == j)
        at = pool[np.lexsort((pool, -s[pool, j]))[k - 1]]
        kth, floor = head[at], s[at, j]
        near = kth + rng.integers(-40, 41, (4000, d)) * np.spacing(np.abs(kth))
        ns = fixed_order_scores(near, f)
        ours = ns.argmax(axis=1) == j
        above = near[ours & (ns[:, j] == np.nextafter(floor, np.inf))][:1]
        below = near[ours & (ns[:, j] == np.nextafter(floor, -np.inf))][:1]
        close = near[ours & (ns[:, j] < floor)
                     & (ns[:, j] >= floor - sampler._slack(d))][-4:]
        assert len(above) == len(below) == 1 and len(close) == 4
        for kind, row in (("at", kth), ("above", above[0]), ("below", below[0]),
                          *(("close", c) for c in close)):
            ids.setdefault(kind, []).append(sum(map(len, rows)) + 2)
            rows.append(np.vstack([rng.standard_normal((2, d)), row,
                                   rng.standard_normal((2, d))]))
    return np.vstack(rows), f, ids


def unscreened(monkeypatch):
    """Score every chunk as if no floor were set, so that the screen keeps
    every row."""
    best = sampler.TopKSelector._best

    def spy(selector, unit):
        floor = selector._floor
        selector._floor = np.full_like(floor, -np.inf)
        try:
            return best(selector, unit)
        finally:
            selector._floor = floor

    monkeypatch.setattr(sampler.TopKSelector, "_best", spy)


class TestScreen:
    @pytest.mark.parametrize("q", [10, 15])
    @pytest.mark.parametrize("case", ["floor probes", "random"])
    def test_the_screen_never_changes_a_bit(self, tmp_path, monkeypatch, case, q):
        rng = np.random.default_rng(q)
        k, chunk_rows = 6, 97
        if case == "random":
            v, f = rng.standard_normal((3000, 16)), rng.standard_normal((q, 16))
        else:
            v, f, probes = floor_probes(q, k, rng)
        m = len(v)
        sizes = rng.integers(1, 3 * chunk_rows, m)
        pieces = np.unique(np.minimum(np.concatenate([[0], np.cumsum(sizes)]), m))
        results = {}
        for on in (True, False):
            with monkeypatch.context() as mp:
                if on:
                    seen = watch_rescoring(mp)
                else:
                    unscreened(mp)
                results[on] = [feed_in_pieces(v, f, k, chunk_rows, bounds)
                               for bounds in ([0, m], np.arange(m + 1), pieces)]
        # the screen ran and turned rows away
        assert any(c["rows"] == chunk_rows and c["kept"] < chunk_rows / 2
                   for c in seen)
        for r in results[True] + results[False]:
            assert_same_result(r, results[False][0])
        r = results[False][0]
        assert_top_k_of_fixed_order(r, v, f, k)
        if case == "random":
            assert {j: r.selected_ids[r.assigned_column == j].tolist()
                    for j in range(q)} == brute_force_select(v, f, k)[0]
        else:
            chosen = set(r.selected_ids.tolist())
            assert set(probes["above"]) <= chosen
            assert not chosen & set(probes["at"] + probes["below"] + probes["close"])
        # the rows as a bank stores them (float32 unit rows), fed by the
        # reader in 150-row pieces, screened and unscreened
        v32 = unit(v).astype(np.float32)
        seen = watch_rescoring(monkeypatch)
        on_file = feed_from_file(tmp_path, monkeypatch, v32, f, k, chunk_rows, 150)
        assert any(c["rows"] == chunk_rows and c["kept"] < chunk_rows / 2
                   for c in seen)
        with monkeypatch.context() as mp:
            unscreened(mp)
            assert_same_result(on_file, feed_in_pieces(v32, f, k, chunk_rows, [0, m]))
        assert_top_k_of_fixed_order(on_file, v32, f, k)

    def test_the_screen_turns_away_most_rows_at_the_sample_1m_shape(self, monkeypatch):
        # Stage 1 of sample-1m: 10 classes, k1 = 160, the default budget.
        # The first chunk (7,264 rows, scored before any floor is set) and
        # the rows that may beat a floor while the floors rise (about
        # k1 * q * ln(m / (k1 * q))) reach the pair rescoring, each with one
        # pair: 17,641 of these half a million rows, where 100,000 rows
        # would send 14%.
        cfg, m, q, d = RunConfig(), 500_000, 10, 16
        k1 = default_k1(20 * q, q, cfg.stage1_multiplier)
        rows = budget_chunk_rows(cfg.memory_budget_bytes, k1, d, q)
        rng = np.random.default_rng(3)
        v = rng.standard_normal((m, d)).astype(np.float32)
        f = rng.standard_normal((q, d))
        seen = watch_rescoring(monkeypatch)
        r = select_topk_streamed(v, f, k1, rows)
        assert (k1, r.n_selected) == (160, 1600)
        kept = sum(c["kept"] for c in seen)
        assert kept < 0.05 * m, kept
        assert sum(c["pairs"] for c in seen) < 1.01 * kept


class TestChunkBudget:
    def test_budget_inversion(self):
        budget = 1 << 22
        for (k, q), d in itertools.product(((80, 10), (4, 2000), (320, 50), (160, 12)),
                                           (16, 64)):
            rows = budget_chunk_rows(budget, k, d, q)
            merge = merge_bytes(k, d, q)
            assert rows >= 1
            assert rows * bytes_per_row(d, q) + min(merge, 3 * budget // 4) <= budget
            if merge <= 3 * budget // 4:
                assert rows * bytes_per_row(d, q) + merge <= budget

    @pytest.mark.parametrize("m, q, d, k", [(200_000, 10, 16, 80), (20_000, 500, 16, 4),
                                            (50_000, 12, 64, 40)])
    def test_traced_peak_stays_within_the_accounted_bytes(self, m, q, d, k):
        # rows * bytes_per_row + merge_bytes bounds what the selection
        # allocates, argmax's copy of the (q, r) score block included.
        rng = np.random.default_rng(q)
        v = rng.standard_normal((m, d)).astype(np.float32)
        f = rng.standard_normal((q, d))
        budget = 1 << 22
        rows = budget_chunk_rows(budget, k, d, q)
        accounted = rows * bytes_per_row(d, q) + merge_bytes(k, d, q)
        gc.collect()
        tracemalloc.start()
        try:
            select_topk_streamed(v, f, k, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accounted <= budget
        assert peak <= accounted, (peak, accounted)

    def test_large_label_bank_keeps_a_quarter_of_the_budget_for_the_chunk(self):
        # 3,000 downstream images in 10 classes: k1 * q = 24,000 held
        # candidates are charged more than the whole default budget, yet the
        # chunk still gets a quarter of it.
        n, q, d = 3000, 10, 16
        cfg = RunConfig()
        k1 = default_k1(n, q, cfg.stage1_multiplier)
        assert merge_bytes(k1, d, q) > cfg.memory_budget_bytes
        rows = budget_chunk_rows(cfg.memory_budget_bytes, k1, d, q)
        assert rows == cfg.memory_budget_bytes // 4 // bytes_per_row(d, q)
        assert rows > 2000

    def test_tiny_budget_still_makes_progress(self):
        assert budget_chunk_rows(16, 80, feat_dim=64, n_columns=10) == 1
        spec, ds, bank = make_world(6, m=300)
        # k1 = ceil(0.09 * 200 / 10) = 2
        cfg = replace(spec, stage1_multiplier=0.09, memory_budget_bytes=16)
        r = stage1_sample(bank, ds, cfg)
        assert r.k == 2
        assert r.n_selected == 2 * ds.n_classes

    def test_stage2_peak_stays_within_budget_at_rerank_shape(self):
        # A 16,000-row label bank re-ranked against 2,000 images (d = 16):
        # the scratch, the candidates and their cuts stay inside the default
        # budget, so the traced peak is that plus the image features: stage
        # 2 carries no rows.
        m, d, d_img, n, n_classes = 16_000, 16, 32, 2000, 50
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((m, d)).astype(np.float32)
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        ds = random_dataset(seed=7, n=n, n_classes=n_classes, d_img=d_img, d=d)
        cfg = RunConfig(seed=7)
        label_bank = SampleResult(
            selected_ids=np.arange(m, dtype=np.int64),
            assigned_column=np.zeros(m, np.int64), score=np.zeros(m),
            deficits=np.zeros(n_classes, np.int64), k=m, feats=feats)
        gc.collect()
        tracemalloc.start()
        try:
            r = stage2_sample(label_bank, ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.k == 4 and r.n_selected > 0 and r.feats is None
        allowed = cfg.memory_budget_bytes + n * d * 8
        assert peak <= allowed, (peak, allowed)


def make_world(seed, m=8000, rho=0.25, noise=0.8, n_classes=10, npc=20):
    spec = RunConfig(seed=seed, n_classes=n_classes, n_per_class=npc, bank_size=m,
                     in_dist_fraction=rho, weak_pair_rate=0.3, noise_sigma=noise)
    ds = generate_downstream(spec)
    bank = generate_pretrain_bank(spec, ds)
    return spec, ds, bank


class TestStages:
    def test_prototype_only_bank_retrieves_each_class(self):
        # bank holding exactly the two class prototype images must map one
        # record to each class at k1 = 1
        from bankadapt.embank import EmbeddingBank
        from bankadapt.synth import prototypes

        spec = RunConfig(seed=0, n_classes=2, n_per_class=3, bank_size=2,
                         noise_sigma=0.0)
        ds = generate_downstream(spec)
        protos, _ = prototypes(spec)
        emb = FrozenEmbedder.from_seed("image", spec.seed, spec.feat_dim,
                                       spec.image_dim)
        feats = emb.embed_rows(protos).astype(np.float32)
        bank = EmbeddingBank(
            images=protos.astype(np.float32), feats=feats, caption_feats=feats,
            captions=["a photo of class-00.", "a photo of class-01."],
            latent_class=np.array([0, 1], dtype=np.int32))
        # k1 = ceil(0.25 * 6 / 2) = 1
        r = stage1_sample(bank, ds, replace(spec, stage1_multiplier=0.25))
        assert r.k == 1
        assert r.n_selected == 2
        assert r.deficits.tolist() == [0, 0]
        picked_classes = sorted(bank.latent_class[r.selected_ids].tolist())
        assert picked_classes == [0, 1]

    def test_default_sizes_label_bank_at_eight_times_downstream(self):
        spec, ds, bank = make_world(0)
        r = stage1_sample(bank, ds, spec)
        k1 = default_k1(ds.size, ds.n_classes, spec.stage1_multiplier)
        assert r.k == k1 == 8 * ds.size // ds.n_classes
        assert r.n_selected + int(r.deficits.sum()) == 8 * ds.size

    def test_stage2_keeps_half_and_returns_bank_ids(self):
        spec, ds, bank = make_world(1)
        s1 = stage1_sample(bank, ds, spec)
        s2 = stage2_sample(s1, ds, spec)
        assert s2.k == default_k2(s1.n_selected, ds.size, spec.stage2_keep) == 4
        assert s2.n_selected <= s1.n_selected // 2
        assert set(s2.selected_ids.tolist()) <= set(s1.selected_ids.tolist())
        assert len(set(s2.selected_ids.tolist())) == s2.n_selected

    def test_stage1_precision_beats_base_rate(self):
        for seed in range(5):
            spec, ds, bank = make_world(seed, rho=0.5)
            p = sampler_precision(stage1_sample(bank, ds, spec), bank, ds)
            assert p > 0.5

    def test_stage2_refines_stage1_precision(self):
        for seed in range(5):
            spec, ds, bank = make_world(seed)
            s1 = stage1_sample(bank, ds, spec)
            s2 = stage2_sample(s1, ds, spec)
            assert sampler_precision(s2, bank, ds) >= sampler_precision(s1, bank, ds)

    def test_stage_outputs_are_chunk_independent(self):
        spec, ds, bank = make_world(2, m=2000)
        budgets = (1, 100_000, 1 << 22)
        # one row per chunk, mid-size chunks with a partial last chunk, and
        # the whole bank in one chunk in stage 1
        k1 = default_k1(ds.size, ds.n_classes, spec.stage1_multiplier)
        k2 = default_k2(stage1_sample(bank, ds, spec).n_selected, ds.size,
                        spec.stage2_keep)
        for k, q in ((k1, ds.n_classes), (k2, ds.size)):
            rows = [budget_chunk_rows(b, k, spec.feat_dim, q) for b in budgets]
            assert rows[0] == 1 < rows[1] < rows[2]
        base = None
        for budget in budgets:
            cfg = replace(spec, memory_budget_bytes=budget)
            s1 = stage1_sample(bank, ds, cfg)
            s2 = stage2_sample(s1, ds, cfg)
            key = (s2.selected_ids.tolist(), s2.assigned_column.tolist(),
                   s2.score.tolist())
            if base is None:
                base = key
            else:
                assert key == base

    def test_build_world_reads_the_sampler_keys_of_bench(self, monkeypatch):
        # the benchmark's stages take their keep fraction from BENCH
        half = benchmark.build_world(0).selected.size
        monkeypatch.setattr(benchmark, "BENCH",
                            replace(benchmark.BENCH, stage2_keep=0.25))
        quarter = benchmark.build_world(0).selected.size
        assert 0 < quarter < half

    def test_a_bank_file_keeps_latent_classes_at_the_label_bank_only(
            self, tmp_path, monkeypatch):
        # 4 KiB blocks: latent_class comes in three pieces, after feats
        spec, ds, bank = make_world(7, m=3000)
        path = tmp_path / "bank.datb"
        encode_bank_file(bank, path)
        monkeypatch.setattr(embank, "_BLOCK_BYTES", 1 << 12)
        from_file, in_memory = {}, {}
        s1 = stage1_sample(path, ds, spec, from_file)
        assert_same_result(s1, stage1_sample(bank, ds, spec, in_memory))
        latent = from_file["latent"]
        assert latent.known and in_memory["latent"].known
        assert np.array_equal(latent.ids, np.sort(s1.selected_ids))
        assert np.array_equal(latent.at(s1.selected_ids),
                              bank.latent_class[s1.selected_ids])
        s2 = stage2_sample(s1, ds, spec)
        for s in (s1, s2):
            assert (sampler_precision(s, latent, ds)
                    == sampler_precision(s, bank, ds))

    def test_feat_dim_mismatch_rejected(self):
        bank = random_bank(d=4)
        ds = random_dataset(d=5)
        with pytest.raises(ValueError, match="feat_dim"):
            stage1_sample(bank, ds, RunConfig())

    def test_empty_label_bank_rejected_by_stage2(self):
        spec, ds, bank = make_world(3, m=100)
        empty = SampleResult(
            selected_ids=np.zeros(0, np.int64),
            assigned_column=np.zeros(0, np.int64),
            score=np.zeros(0), deficits=np.zeros(ds.n_classes, np.int64), k=1)
        with pytest.raises(ValueError, match="label bank"):
            stage2_sample(empty, ds, spec)


class TestPrecision:
    def test_all_unknown_bank_is_undefined(self):
        bank = random_bank(seed=0)
        bank.latent_class[:] = -1
        ds = random_dataset(seed=0)
        r = SampleResult(selected_ids=np.array([0, 1]),
                         assigned_column=np.array([0, 0]),
                         score=np.zeros(2), deficits=np.zeros(3, np.int64), k=2)
        with pytest.raises(PrecisionUndefinedError):
            sampler_precision(r, bank, ds)

    def test_no_in_distribution_selection_scores_zero(self):
        bank = random_bank(seed=1)
        bank.latent_class[:] = -1
        bank.latent_class[5] = 1  # ground truth exists, selection misses it
        ds = random_dataset(seed=1)
        r = SampleResult(selected_ids=np.array([0, 2]),
                         assigned_column=np.array([0, 1]),
                         score=np.zeros(2), deficits=np.zeros(3, np.int64), k=1)
        assert sampler_precision(r, bank, ds) == 0.0


class TestCsv:
    def test_round_trip(self, tmp_path):
        spec, ds, bank = make_world(4, m=500)
        # k1 = ceil(0.14 * 200 / 10) = 3
        r = stage1_sample(bank, ds, replace(spec, stage1_multiplier=0.14))
        assert r.k == 3
        path = tmp_path / "samples.csv"
        dpath = tmp_path / "deficits.csv"
        save_sample_csv(r, path)
        back = load_sample_csv(path)
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, r.selected_ids)
        assert dpath.read_text().startswith("column,deficit")

    def test_header_is_stable(self, tmp_path):
        spec, ds, bank = make_world(5, m=200)
        r = stage1_sample(bank, ds, replace(spec, stage1_multiplier=0.09))
        assert r.k == 2
        path = tmp_path / "s.csv"
        save_sample_csv(r, path)
        assert path.read_text().splitlines()[0] == "record_id,assigned_column,score"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_sample_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_sample_csv(path)

    @pytest.mark.parametrize("row", ["99999999999999999999,0,0.5", "3,2,abc",
                                     "3,2,0.5,1", " 3,2,0.5"])
    def test_malformed_row_rejected_with_its_line(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"record_id,assigned_column,score\n{row}\n")
        with pytest.raises(ValueError, match=f"{path} line 2:"):
            load_sample_csv(path)
