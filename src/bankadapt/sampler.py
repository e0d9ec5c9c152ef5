"""Two-stage zero-shot retrieval of task-related records from the bank.

Stage 1 scores every bank record against the C class text features, assigns
each record to its best class, and keeps the top k1 records per class (the
label bank).  Stage 2 re-scores only the label bank against the frozen
features of the individual downstream images, treating each image as a
category of its own, and keeps the top k2 per image.  Defaults size the
label bank at stage1_multiplier times the downstream set and keep
stage2_keep of it.

Scoring is exact cosine similarity, computed in row chunks under a memory
budget.  The accumulation over the feature dimension runs in fixed index
order with elementwise ops rather than a matmul, so scores (and therefore
selections) are bit-identical no matter how the rows are chunked.  Ties are
broken toward the lowest class/column index at assignment and toward the
lowest record id within a column; per-chunk candidate buffers are truncated
with the same total order, which cannot change the final top-k.  A column
whose assigned pool is smaller than k reports a deficit; nothing is
backfilled from other columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .embank import DownstreamDataset, EmbeddingBank
from .encoder import FrozenEmbedder

DEFAULT_STAGE1_MULTIPLIER = 8.0
DEFAULT_STAGE2_KEEP = 0.5
DEFAULT_CHUNK_ROWS = 8192


class DegenerateRowError(ValueError):
    """A zero-norm row has no direction to score."""


class PrecisionUndefinedError(ValueError):
    """No ground-truth latent classes anywhere in the bank."""


@dataclass(frozen=True)
class SimilarityChunkPlan:
    """How many bank rows to score at once, plus the budget that implies it."""

    chunk_rows: int = DEFAULT_CHUNK_ROWS
    memory_budget_bytes: int | None = None

    def __post_init__(self):
        if self.chunk_rows < 1:
            raise ValueError(f"chunk_rows must be at least 1, got {self.chunk_rows}")

    @staticmethod
    def bytes_per_row(feat_dim: int, n_columns: int) -> int:
        # Per chunk row: the owned float64 copy (8d), two score-block buffers
        # (scores and the per-feature product temporary, 16q), and a flat
        # allowance for the small int64/float64 row vectors (norms, ids,
        # assignment, row scores, the merge loop's transient masks).
        return 8 * feat_dim + 16 * n_columns + 64

    @classmethod
    def from_budget(cls, memory_budget_bytes: int, feat_dim: int,
                    n_columns: int) -> "SimilarityChunkPlan":
        per_row = cls.bytes_per_row(feat_dim, n_columns)
        rows = max(1, memory_budget_bytes // per_row)
        return cls(chunk_rows=rows, memory_budget_bytes=memory_budget_bytes)

    def block_bytes(self, feat_dim: int, n_columns: int) -> int:
        """Planned peak additional allocation for one chunk."""
        return self.chunk_rows * self.bytes_per_row(feat_dim, n_columns)


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


def _normalize_block(rows: np.ndarray, offset: int, what: str) -> np.ndarray:
    rows = np.asarray(rows)
    buf = np.empty((rows.shape[0], rows.shape[1]), dtype=np.float64)
    return _normalize_into(buf, rows, offset, what)


def _scores_fixed_order(unit_rows: np.ndarray, unit_cols: np.ndarray,
                        out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_t unit_rows[i, t] * unit_cols[j, t], accumulated in
    ascending t with elementwise ops so the rounding never depends on the
    chunk shape."""
    r = unit_rows.shape[0]
    out[:r] = 0.0
    for t in range(unit_rows.shape[1]):
        np.multiply(unit_rows[:, t, None], unit_cols[None, :, t], out=tmp[:r])
        np.add(out[:r], tmp[:r], out=out[:r])
    return out[:r]


def similarity_matrix(v: np.ndarray, f: np.ndarray,
                      plan: SimilarityChunkPlan | None = None) -> np.ndarray:
    """Full (m, q) cosine similarity matrix; rows normalized internally."""
    plan = plan or SimilarityChunkPlan()
    v = np.asarray(v)
    q_unit = _normalize_block(f, 0, "query")
    m, q = v.shape[0], q_unit.shape[0]
    out = np.empty((m, q), dtype=np.float64)
    rows = plan.chunk_rows
    scratch_block = np.empty((min(rows, max(m, 1)), v.shape[1]))
    scratch_out = np.empty((min(rows, max(m, 1)), q))
    scratch_tmp = np.empty_like(scratch_out)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        unit = _normalize_into(scratch_block, v[start:stop], start, "bank")
        out[start:stop] = _scores_fixed_order(unit, q_unit, scratch_out, scratch_tmp)
    return out


def _rank_order(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Indices sorting by score descending, then id ascending."""
    return np.lexsort((ids, -scores))


def topk_per_column_dedup(s: np.ndarray, k: int) -> SampleResult:
    """Assign each row to its argmax column, then keep the top k per column.

    Each row is used at most once (its assigned column), so the selected ids
    are distinct by construction.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    s = np.asarray(s, dtype=np.float64)
    m, q = s.shape
    assigned = np.argmax(s, axis=1)          # ties resolve to the lowest column
    row_score = s[np.arange(m), assigned]
    takes = []
    for j in range(q):
        pool = np.flatnonzero(assigned == j)  # row index doubles as record id
        takes.append(pool[_rank_order(row_score[pool], pool)[:k]])
    return _assemble(takes, [row_score[take] for take in takes], k)


def _assemble(cand_ids: list[np.ndarray], cand_scores: list[np.ndarray],
              k: int) -> SampleResult:
    """One result from each column's candidates, already in rank order."""
    counts = np.array([ids.size for ids in cand_ids], dtype=np.int64)
    return SampleResult(
        selected_ids=np.concatenate(cand_ids) if cand_ids else np.zeros(0, np.int64),
        assigned_column=np.repeat(np.arange(counts.size, dtype=np.int64), counts),
        score=np.concatenate(cand_scores) if cand_scores else np.zeros(0),
        deficits=k - counts,
        k=k,
    )


def select_topk_streamed(v: np.ndarray, f: np.ndarray, k: int,
                         plan: SimilarityChunkPlan | None = None) -> SampleResult:
    """Streaming equivalent of topk_per_column_dedup(similarity_matrix(v, f), k).

    Scores one chunk of rows at a time, truncates each column's candidates
    to its current top k under (score desc, id asc), and merges at the end.
    Peak additional memory stays within plan.block_bytes plus the retained
    candidates (at most k per column per chunk boundary).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    plan = plan or SimilarityChunkPlan()
    v = np.asarray(v)
    q_unit = _normalize_block(f, 0, "query")
    m, q = v.shape[0], q_unit.shape[0]
    rows = plan.chunk_rows
    scratch_block = np.empty((min(rows, max(m, 1)), v.shape[1]))
    scratch_out = np.empty((min(rows, max(m, 1)), q))
    scratch_tmp = np.empty_like(scratch_out)
    cand_ids = [np.zeros(0, np.int64) for _ in range(q)]
    cand_scores = [np.zeros(0) for _ in range(q)]
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        unit = _normalize_into(scratch_block, v[start:stop], start, "bank")
        block = _scores_fixed_order(unit, q_unit, scratch_out, scratch_tmp)
        assigned = np.argmax(block, axis=1)
        row_score = block[np.arange(stop - start), assigned]
        row_ids = np.arange(start, stop, dtype=np.int64)
        for j in np.unique(assigned):
            pool = np.flatnonzero(assigned == j)
            merged_ids = np.concatenate([cand_ids[j], row_ids[pool]])
            merged_scores = np.concatenate([cand_scores[j], row_score[pool]])
            order = _rank_order(merged_scores, merged_ids)[:k]
            cand_ids[j] = merged_ids[order]
            cand_scores[j] = merged_scores[order]
    return _assemble(cand_ids, cand_scores, k)


def default_k1(n_downstream: int, n_classes: int,
               multiplier: float = DEFAULT_STAGE1_MULTIPLIER) -> int:
    """Per-class keep count sizing the label bank at multiplier x downstream."""
    return max(1, math.ceil(multiplier * n_downstream / n_classes))


def default_k2(label_bank_size: int, n_downstream: int,
               keep: float = DEFAULT_STAGE2_KEEP) -> int:
    """Per-image keep count retaining `keep` of the label bank overall."""
    return max(1, math.ceil(keep * label_bank_size / n_downstream))


def stage1_sample(bank: EmbeddingBank, ds: DownstreamDataset,
                  k1: int | None = None,
                  plan: SimilarityChunkPlan | None = None) -> SampleResult:
    """Zero-shot retrieval: bank features against class text features."""
    if bank.feat_dim != ds.feat_dim:
        raise ValueError(f"bank feat_dim {bank.feat_dim} != dataset {ds.feat_dim}")
    if k1 is None:
        k1 = default_k1(ds.size, ds.n_classes)
    return select_topk_streamed(bank.feats, ds.class_text_feats, k1, plan)


def stage2_sample(label_bank: SampleResult, bank: EmbeddingBank,
                  ds: DownstreamDataset, embedder: FrozenEmbedder,
                  k2: int | None = None,
                  plan: SimilarityChunkPlan | None = None) -> SampleResult:
    """Per-image retrieval within the label bank only.

    Each downstream image acts as its own category; returned ids are bank
    record ids, deduplicated by construction since each label-bank record is
    assigned to exactly one image.
    """
    if label_bank.n_selected == 0:
        raise ValueError("label bank is empty, nothing to re-rank")
    if k2 is None:
        k2 = default_k2(label_bank.n_selected, ds.size)
    image_feats = embedder.embed_rows(np.asarray(ds.images, dtype=np.float64))
    pool_feats = bank.feats[label_bank.selected_ids]
    picked = select_topk_streamed(pool_feats, image_feats, k2, plan)
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
