"""Two-stage zero-shot retrieval of task-related records from the bank.

Stage 1 scores every bank record against the C class text features, assigns
each record to its best class, and keeps the top k1 records per class (the
label bank).  Stage 2 re-scores only the label bank against the frozen
features of the individual downstream images, treating each image as a
category of its own, and keeps the top k2 per image.  Both stages read
their settings from the run's RunConfig and keep no default of their own:
k1 sizes the label bank at stage1_multiplier times the downstream set, k2
keeps stage2_keep of it, and memory_budget_bytes sizes the chunks.

Scoring is exact cosine similarity, computed in row chunks.  A chunk holds
as many rows (bytes_per_row each) as the memory budget leaves after the part
that does not grow with the chunk: the query rows and up to 2*k*q held
candidates (merge_bytes).  That part is charged at most three quarters of
the budget, so a large k*q cannot shrink the chunk below a quarter of it.
Each chunk is normalized row by row and then copied feature-major (d x r),
and its scores fill a (q, r) block: for t = 0, 1, ..., d-1 the block adds
the product of query feature t and the chunk's feature-t row, with separate
elementwise multiply and add rather than a matmul.  Every score is thus the
same float operations in the same ascending-t order whatever the chunk
shape, so scores (and therefore selections) are bit-identical no matter how
the rows are chunked, while every numpy loop runs along the chunk's r rows
instead of the q columns.  Ties are broken toward the lowest class/column
index at assignment and toward the lowest record id within a column.

Candidates are held as three arrays (id, column, score).  Once a column has
k candidates, the score of its k-th is the column's floor, and a later row
enters only with a score strictly above it: its id is larger than every
held id, so it cannot win a tie.  The arrays are sorted by
(column, -score, id) and cut to k per column only when they outgrow 2*k*q
entries, and once at the end, so the result equals a top k taken over the
full score matrix.  A column whose assigned pool is smaller than k reports
a deficit; nothing is backfilled from other columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .embank import DownstreamDataset, EmbeddingBank
from .encoder import FrozenEmbedder

# Int64/float64 vectors a chunk row or a held candidate may need at once in
# the merge: assignment, row score, admitted index, the (id, column, score)
# arrays and their copies while they grow, and the negated scores, sort
# order and rank arrays of a cut.
_MERGE_VECTORS = 12


class DegenerateRowError(ValueError):
    """A zero-norm row has no direction to score."""


class PrecisionUndefinedError(ValueError):
    """No ground-truth latent classes anywhere in the bank."""


def bytes_per_row(feat_dim: int, n_columns: int) -> int:
    """Bytes one chunk row may hold while it is scored and merged: the owned
    float64 copy and its feature-major transpose (16d), the score block and
    the per-feature product temporary (16q), and then either the copy of the
    score block that argmax along axis 0 makes plus argmax's output (8q + 8)
    or the row's merge vectors, which are never alive at the same time."""
    return 16 * feat_dim + 16 * n_columns + 8 * max(n_columns + 1, _MERGE_VECTORS)


def merge_bytes(k: int, feat_dim: int, n_columns: int) -> int:
    """Bytes the selection holds whatever the chunk size: the unit query
    rows (8dq), a few per-column vectors (floors, counts, offsets) and up to
    2kq held candidates with the vectors of their cut."""
    return 8 * n_columns * (feat_dim + 8) + 2 * k * n_columns * 8 * _MERGE_VECTORS


def budget_chunk_rows(memory_budget_bytes: int, k: int, feat_dim: int,
                      n_columns: int) -> int:
    """Rows per chunk: the budget less merge_bytes, over bytes_per_row.  The
    merge is charged at most three quarters of the budget, so the chunk never
    gets less than a quarter of it; past that point the held candidates,
    which grow with the k*q selected, are what the selection holds beyond
    the budget."""
    reserved = min(merge_bytes(k, feat_dim, n_columns),
                   3 * memory_budget_bytes // 4)
    spare = memory_budget_bytes - reserved
    return max(1, spare // bytes_per_row(feat_dim, n_columns))


@dataclass(frozen=True)
class SampleResult:
    """Selected record ids with their column assignment, score and deficits.

    Rows are ordered by (column, rank); deficits[j] is how many records
    column j wanted but could not get from its assigned pool.
    """

    selected_ids: np.ndarray     # (s,) int64
    assigned_column: np.ndarray  # (s,) int64
    score: np.ndarray            # (s,) float64
    deficits: np.ndarray         # (n_columns,) int64
    k: int

    @property
    def n_selected(self) -> int:
        return self.selected_ids.shape[0]


def _normalize_into(dst: np.ndarray, rows: np.ndarray, offset: int,
                    what: str) -> np.ndarray:
    """Write unit-normalized float64 rows into dst[:len(rows)] and return that
    view.  Reusing one destination buffer keeps peak memory at a single block
    per chunk, which is what bytes_per_row accounts for."""
    block = dst[:rows.shape[0]]
    np.copyto(block, rows, casting="unsafe")
    norms = np.sqrt(np.einsum("ij,ij->i", block, block))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateRowError(f"{what} row {offset + int(zero[0])} has zero norm")
    block /= norms[:, None]
    return block


def _scores_fixed_order(unit_t: np.ndarray, unit_cols: np.ndarray,
                        out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out[j, i] = sum_t unit_cols[j, t] * unit_t[t, i] for the d x r
    feature-major chunk unit_t, accumulated in ascending t with elementwise
    ops so the rounding never depends on the chunk shape.  out and tmp are
    flat buffers of at least q * r entries."""
    size = unit_cols.shape[0] * unit_t.shape[1]
    block = out[:size].reshape(unit_cols.shape[0], unit_t.shape[1])
    prod = tmp[:size].reshape(block.shape)
    block.fill(0.0)
    for t in range(unit_t.shape[0]):
        np.multiply(unit_cols[:, t, None], unit_t[t], out=prod)
        np.add(block, prod, out=block)
    return block


def _admit(block: np.ndarray, start: int, floor: np.ndarray, ids: np.ndarray,
           cols: np.ndarray, scores: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates with the rows of a (q, r) score block appended whose
    best score beats their column's floor; the first row is record start.
    The chunk's merge vectors die on return, before the next block is
    scored."""
    assigned = np.argmax(block, axis=0)
    row_score = block[assigned, np.arange(block.shape[1])]
    admit = np.flatnonzero(row_score > floor[assigned])
    if admit.size == 0:
        return ids, cols, scores
    return (np.concatenate([ids, admit + start]),
            np.concatenate([cols, assigned[admit]]),
            np.concatenate([scores, row_score[admit]]))


def _cut_to_k(ids: np.ndarray, cols: np.ndarray, scores: np.ndarray, k: int,
              q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidates in (column, -score, id) order with at most k per
    column, and each column's floor: its k-th score, or -inf below k."""
    order = np.lexsort((ids, -scores, cols))
    counts = np.bincount(cols, minlength=q)
    starts = np.cumsum(counts) - counts
    rank = np.arange(order.size)
    rank -= np.repeat(starts, counts)
    keep = order[rank < k]
    full = counts >= k
    floor = np.full(q, -np.inf)
    floor[full] = scores[order[starts[full] + k - 1]]
    return ids[keep], cols[keep], scores[keep], floor


def select_topk_streamed(v: np.ndarray, f: np.ndarray, k: int,
                         chunk_rows: int) -> SampleResult:
    """Assign each row of v to its most cosine-similar row of f, then keep
    the top k rows per column under (score desc, id asc).

    Scores chunk_rows rows of v at a time and merges them into the
    candidates through the column floors (see the module docstring).  Each
    row is used at most once (its assigned column), so the selected ids are
    distinct by construction.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be at least 1, got {chunk_rows}")
    v = np.asarray(v)
    f = np.asarray(f)
    q_unit = _normalize_into(np.empty(f.shape), f, 0, "query")
    m, d, q = v.shape[0], v.shape[1], q_unit.shape[0]
    rows = min(chunk_rows, max(m, 1))
    scratch_block = np.empty((rows, d))
    scratch_t = np.empty(d * rows)
    scratch_out = np.empty(q * rows)
    scratch_tmp = np.empty_like(scratch_out)
    ids = np.zeros(0, np.int64)
    cols = np.zeros(0, np.int64)
    scores = np.zeros(0)
    floor = np.full(q, -np.inf)
    for start in range(0, m, chunk_rows):
        stop = min(start + chunk_rows, m)
        unit = _normalize_into(scratch_block, v[start:stop], start, "bank")
        unit_t = scratch_t[:unit.size].reshape(d, stop - start)
        np.copyto(unit_t, unit.T)
        block = _scores_fixed_order(unit_t, q_unit, scratch_out, scratch_tmp)
        ids, cols, scores = _admit(block, start, floor, ids, cols, scores)
        if ids.size > 2 * k * q:
            ids, cols, scores, floor = _cut_to_k(ids, cols, scores, k, q)
    ids, cols, scores, _ = _cut_to_k(ids, cols, scores, k, q)
    return SampleResult(selected_ids=ids, assigned_column=cols, score=scores,
                        deficits=k - np.bincount(cols, minlength=q), k=k)


def default_k1(n_downstream: int, n_classes: int, multiplier: float) -> int:
    """Per-class keep count sizing the label bank at multiplier x downstream."""
    return max(1, math.ceil(multiplier * n_downstream / n_classes))


def default_k2(label_bank_size: int, n_downstream: int, keep: float) -> int:
    """Per-image keep count retaining `keep` of the label bank overall."""
    return max(1, math.ceil(keep * label_bank_size / n_downstream))


def stage1_sample(bank: EmbeddingBank, ds: DownstreamDataset,
                  cfg: RunConfig) -> SampleResult:
    """Zero-shot retrieval: bank features against class text features."""
    if bank.feat_dim != ds.feat_dim:
        raise ValueError(f"bank feat_dim {bank.feat_dim} != dataset {ds.feat_dim}")
    k1 = default_k1(ds.size, ds.n_classes, cfg.stage1_multiplier)
    rows = budget_chunk_rows(cfg.memory_budget_bytes, k1, ds.feat_dim,
                             ds.n_classes)
    return select_topk_streamed(bank.feats, ds.class_text_feats, k1, rows)


def stage2_sample(label_bank: SampleResult, bank: EmbeddingBank,
                  ds: DownstreamDataset, cfg: RunConfig) -> SampleResult:
    """Per-image retrieval within the label bank only.

    Each downstream image acts as its own category, embedded by the run
    seed's frozen image embedder; returned ids are bank record ids,
    deduplicated by construction since each label-bank record is assigned
    to exactly one image.
    """
    if label_bank.n_selected == 0:
        raise ValueError("label bank is empty, nothing to re-rank")
    k2 = default_k2(label_bank.n_selected, ds.size, cfg.stage2_keep)
    embedder = FrozenEmbedder.from_seed("image", cfg.seed, ds.feat_dim,
                                        ds.image_dim)
    image_feats = embedder.embed_rows(np.asarray(ds.images, dtype=np.float64))
    pool_feats = bank.feats[label_bank.selected_ids]
    rows = budget_chunk_rows(cfg.memory_budget_bytes, k2, ds.feat_dim, ds.size)
    picked = select_topk_streamed(pool_feats, image_feats, k2, rows)
    return SampleResult(
        selected_ids=label_bank.selected_ids[picked.selected_ids],
        assigned_column=picked.assigned_column,
        score=picked.score,
        deficits=picked.deficits,
        k=k2,
    )


def sampler_precision(result: SampleResult, bank: EmbeddingBank,
                      ds: DownstreamDataset) -> float:
    """Fraction of selected records whose latent class is a downstream class."""
    if bool(np.all(bank.latent_class < 0)):
        raise PrecisionUndefinedError(
            "bank carries no ground-truth latent classes; precision undefined")
    if result.n_selected == 0:
        raise ValueError("empty selection has no precision")
    latent = bank.latent_class[result.selected_ids]
    hits = (latent >= 0) & (latent < ds.n_classes)
    return float(np.mean(hits))


def save_sample_csv(result: SampleResult, path, deficits_path=None) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["record_id", "assigned_column", "score"])
        for rid, col, sc in zip(result.selected_ids, result.assigned_column,
                                result.score):
            w.writerow([int(rid), int(col), repr(float(sc))])
    if deficits_path is not None:
        with open(deficits_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["column", "deficit"])
            for j, d in enumerate(result.deficits):
                w.writerow([j, int(d)])


def load_sample_csv(path) -> SampleResult:
    """Rebuild a SampleResult from its CSV; k and deficits are inferred from
    the per-column counts (a run where every column fell short of k cannot
    distinguish k from the largest observed count)."""
    ids, cols, scores = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["record_id", "assigned_column", "score"]:
            raise ValueError(f"unexpected sample csv header {header}")
        for row in reader:
            ids.append(int(row[0]))
            cols.append(int(row[1]))
            scores.append(float(row[2]))
    n_columns = (max(cols) + 1) if cols else 0
    counts = np.bincount(cols, minlength=n_columns) if cols else np.zeros(0, int)
    k = int(counts.max()) if cols else 0
    return SampleResult(
        selected_ids=np.asarray(ids, dtype=np.int64),
        assigned_column=np.asarray(cols, dtype=np.int64),
        score=np.asarray(scores, dtype=np.float64),
        deficits=(k - counts).astype(np.int64),
        k=k,
    )
