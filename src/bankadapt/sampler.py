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
Each chunk is normalized row by row.  A score is defined by one fixed
arithmetic: s = 0, then s = s + q[j, t] * u[i, t] for t = 0, 1, ..., d-1,
each product and sum rounded on its own.  Every score is thus the same
float operations whatever the chunk shape, so scores (and therefore
selections) are bit-identical no matter how the rows are chunked.  Two
paths reach those scores:

- With fewer than _GEMM_MIN_COLUMNS query columns, the chunk is copied
  feature-major (d x r) and a (q, r) block is filled by that arithmetic
  with d elementwise multiply and add passes, each running along the r
  rows.
- From _GEMM_MIN_COLUMNS columns on, one matmul scores the chunk.  A
  matmul sums in its own order, but any order of a dot product of unit
  rows lies within gamma_d = d*u / (1 - d*u) of the exact value (u = 2^-53;
  Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1),
  and so does the fixed-order score.  A row's fixed-order best column
  therefore has a matmul score within twice that of the row's matmul
  maximum; the slack used is 4 gamma_d, widened for float norms not
  exactly 1.  Only the pairs within the slack are scored again, in pieces,
  by the fixed arithmetic, and the row's best is taken among them.  When
  near-ties leave more than _CANDIDATES_PER_ROW such pairs per row, the
  chunk takes the fixed-order block instead.

Both paths assign each row the column of its highest fixed-order score, so
which one runs never changes a bit.  Ties are broken toward the lowest
class/column index at assignment and toward the lowest record id within a
column.  Non-finite rows are refused, as zero-norm rows are: the bound
holds only for finite scores.

Below _GEMM_MIN_COLUMNS columns, once every column holds k candidates (its
floor, below, is finite), each chunk is screened before the fixed-order
block: one matmul of its unit rows, plus the slack, is compared with every
column's floor, and only the rows that reach some floor are scored by the
fixed arithmetic.  The slack covers twice the distance from either score
of a pair to its exact value, so a row screened out has a fixed-order
score below the floor in every column and would have been refused.
Floors only rise, so the screen never changes a bit either.  When more than
half a chunk reaches a floor, the whole chunk is scored unscreened.

The selector is fed rows in ascending record order, in pieces of any
size: the rows of an in-memory bank at once, or each block of a bank file's
feats as the reader checks it, so that feats is never held whole.  Each
piece is scored chunk_rows rows at a time.  Candidates are held in arrays
allocated once with room for 2*k*q entries: id, column, score and, for
stage 1, the row as fed (a bank's stored float32 feats), so that the label
bank carries the feats of its rows and stage 2 re-ranks them without the
bank; stage 2 carries none.  Once a column has k candidates, the score of
its k-th is the column's floor, and a later row enters only with a score
strictly above it: its id is larger than every held id, so it cannot win a
tie.  When a chunk's admitted rows do not fit, the arrays are sorted by
(column, -score, id) and compacted in place to k per column, which frees at
least half of them, and once more at the end, so the result equals a top k
taken over the full score matrix.  A column whose assigned pool is smaller
than k reports a deficit; nothing is backfilled from other columns.
merge_bytes charges every slot of the arrays, a carried row at 4d bytes (a
stored row), and the copy a cut makes to compact the rows it keeps; a
chunk row needs no slot of its own.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .embank import DownstreamDataset, EmbeddingBank, decode_bank_file
from .encoder import FrozenEmbedder

# Int64/float64 vectors a chunk row needs at once while it is admitted: its
# position in the chunk, assignment and row score, and then its column floor
# and the mask of the comparison, or its admitted index and position.
_ADMIT_VECTORS = 5

# Int64/float64 vectors an entry of a cut needs at once beyond its id,
# column and score, at most three: while sorting the negated scores, the
# sort order and lexsort's work array; while ranking the order, the rank
# and the repeated column starts; while compacting the order, the rank and
# the kept index.  One more covers the compacting copy of the id, column
# and score vectors.
_CUT_VECTORS = 4

# Fewest query columns at which a chunk is scored by one matmul and then
# certified; below it the fixed-order block is the cheaper exact path.  The
# crossover, measured on 1M random float32 rows of d = 16 at the default
# budget with one BLAS thread (fixed-order against matmul): q = 10 0.21 s
# against 0.30 s, q = 14 and 16 equal at 0.25-0.26 s, q = 20 0.31 s against
# 0.25 s, q = 50 1.41 s against 0.32 s.  It was measured before the
# fixed-order block was screened against the floors.
_GEMM_MIN_COLUMNS = 16

# A chunk whose near-maximum pairs outnumber this many per row (columns that
# tie or nearly tie) is scored by the fixed-order block instead.
_CANDIDATES_PER_ROW = 4

# Int64/float64 vectors per candidate pair of the matmul path alive at once:
# its row, column and exact score, its row's best score and its tie-masked
# column.
_CANDIDATE_VECTORS = 5


def _slack(feat_dim: int) -> float:
    """A bound on how far the matmul score of a row's fixed-order best pair
    can lie below the row's matmul maximum: 4 gamma_d, widened for unit rows
    whose float norm is up to gamma_(d+2) away from 1."""
    def gamma(n: int) -> float:
        return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
    return 4 * gamma(feat_dim) * (1 + gamma(feat_dim + 2)) ** 2


class DegenerateRowError(ValueError):
    """A zero-norm or non-finite row has no direction to score."""


class PrecisionUndefinedError(ValueError):
    """No ground-truth latent classes anywhere in the bank."""


def _slot_bytes(feat_dim: int, carry_rows: bool) -> int:
    """Bytes one entry of the candidate arrays holds at most: its id, column
    and score and the vectors of a cut over it, and, when rows are carried,
    its row as a bank stores it (float32) and its share of the copy that
    compacts the rows: a cut keeps at most k per column, k*q rows for the
    2kq slots, so half a carried row per entry (2d)."""
    return 24 + 8 * _CUT_VECTORS + (6 * feat_dim if carry_rows else 0)


def bytes_per_row(feat_dim: int, n_columns: int) -> int:
    """Bytes one chunk row may hold while it is scored and merged: the owned
    float64 copy and its feature-major transpose (16d), which also hold the
    rows the screen keeps, the score block and the per-feature product
    temporary (16q), which also hold the screen's matmul and its mask, and
    then the largest of three sets that are never alive at the same time:
    the copy of the score block that argmax along axis 0 makes plus argmax's
    output (8q + 8), which covers the screen's row mask (1) and the positions
    of the rows it keeps, at most half of them, beside argmax over just those
    rows (4 + 4q + 4), the row's admission vectors, and, from
    _GEMM_MIN_COLUMNS columns on, the matmul path's work beyond the block and
    its candidate mask (both held in the two (q, r) buffers): the row's
    maximum and best column (16), up to _CANDIDATES_PER_ROW candidate pairs
    with their vectors, and one piece of gathered query and chunk features
    (16d)."""
    gemm = 0
    if n_columns >= _GEMM_MIN_COLUMNS:
        gemm = 16 + 16 * feat_dim + 8 * _CANDIDATES_PER_ROW * _CANDIDATE_VECTORS
    return (16 * feat_dim + 16 * n_columns
            + max(8 * (n_columns + 1), 8 * _ADMIT_VECTORS, gemm))


def merge_bytes(k: int, feat_dim: int, n_columns: int,
                carry_rows: bool = True) -> int:
    """Bytes the selection holds whatever the chunk size: the unit query
    rows (8dq), a few per-column vectors (floors, counts, offsets) and the
    2kq slots of the candidate arrays.  The matmul reads the query rows in
    place, so its path adds nothing here."""
    return (8 * n_columns * (feat_dim + 8)
            + 2 * k * n_columns * _slot_bytes(feat_dim, carry_rows))


def budget_chunk_rows(memory_budget_bytes: int, k: int, feat_dim: int,
                      n_columns: int, carry_rows: bool = True) -> int:
    """Rows per chunk: the budget less merge_bytes, over bytes_per_row.  The
    merge is charged at most three quarters of the budget, so the chunk never
    gets less than a quarter of it; past that point the held candidates,
    which grow with the k*q selected, are what the selection holds beyond
    the budget."""
    reserved = min(merge_bytes(k, feat_dim, n_columns, carry_rows),
                   3 * memory_budget_bytes // 4)
    spare = memory_budget_bytes - reserved
    return max(1, spare // bytes_per_row(feat_dim, n_columns))


@dataclass(frozen=True)
class SampleResult:
    """Selected record ids with their column assignment, score and
    deficits, and the selected rows when the selection carries them.

    Rows are ordered by (column, rank); deficits[j] is how many records
    column j wanted but could not get from its assigned pool.
    """

    selected_ids: np.ndarray     # (s,) int64
    assigned_column: np.ndarray  # (s,) int64
    score: np.ndarray            # (s,) float64
    deficits: np.ndarray         # (n_columns,) int64
    k: int
    feats: np.ndarray | None = None  # (s, d) the rows as fed, float32 from a bank

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
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        i = int(bad[0])
        problem = "zero" if norms[i] == 0.0 else "a non-finite"
        raise DegenerateRowError(f"{what} row {offset + i} has {problem} norm")
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


def _best_by_gemm(unit: np.ndarray, unit_cols: np.ndarray, out: np.ndarray,
                  mask: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Each chunk row's best column (lowest on ties) and its fixed-order
    score, from one matmul certified by _slack; None when more than
    _CANDIDATES_PER_ROW pairs per row lie within the slack of their row's
    matmul maximum.  out (float64) and mask (bool) are flat buffers of at
    least r * q entries."""
    (r, d), q = unit.shape, unit_cols.shape[0]
    gemm = out[:r * q].reshape(r, q)
    np.matmul(unit, unit_cols.T, out=gemm)
    low = gemm.max(axis=1)
    low -= _slack(d)
    near = mask[:r * q].reshape(r, q)
    np.greater_equal(gemm, low[:, None], out=near)
    if np.count_nonzero(near) > _CANDIDATES_PER_ROW * r:
        return None
    row, col = np.divmod(np.flatnonzero(near), q)
    exact = np.zeros(row.size)
    for lo in range(0, row.size, r):  # pieces of r pairs bound the gathers
        piece = slice(lo, lo + r)
        prod = unit_cols[col[piece]]
        prod *= unit[row[piece]]
        acc = exact[piece]
        for t in range(d):
            acc += prod[:, t]
    # Pairs come in (row, column) order and every row has one at least: its
    # matmul maximum.
    starts = np.searchsorted(row, np.arange(r))
    best = np.maximum.reduceat(exact, starts)
    assigned = np.minimum.reduceat(np.where(exact == best[row], col, q), starts)
    return assigned, best


def _screen(unit: np.ndarray, unit_cols: np.ndarray, floor: np.ndarray,
            out: np.ndarray, mask: np.ndarray) -> np.ndarray | None:
    """The chunk rows whose matmul score plus _slack reaches the floor of
    some column, ascending; None when more than half the rows do.  Any
    other row's fixed-order score lies below the floor in every column, so
    it would be refused.  out (float64) and mask (bool) are flat
    buffers of at least q * r entries."""
    (r, d), q = unit.shape, unit_cols.shape[0]
    gemm = out[:q * r].reshape(q, r)
    np.matmul(unit_cols, unit.T, out=gemm)
    gemm += _slack(d)
    near = mask[:q * r].reshape(q, r)
    # >= rather than >: a sum rounded down onto the floor may stand for a
    # bound above it
    np.greater_equal(gemm, floor[:, None], out=near)
    hit = near.any(axis=0)
    if 2 * np.count_nonzero(hit) > r:
        return None
    return np.flatnonzero(hit)


class TopKSelector:
    """The top k rows per column of the rows fed to it: each row is
    assigned to its most cosine-similar row of f, and each column keeps its
    k best under (score desc, id asc).

    feed takes rows in ascending record order, in pieces of any size, and
    scores them chunk_rows at a time; result returns the selection, with the
    rows of the selected records as fed, stored as carry (a dtype), unless
    carry is None.  Each row is used at most once (its assigned column), so
    the selected ids are distinct by construction.  See the module
    docstring for the scores and the merge.
    """

    def __init__(self, f: np.ndarray, k: int, chunk_rows: int,
                 carry=np.float32):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be at least 1, got {chunk_rows}")
        f = np.asarray(f)
        self._q_unit = _normalize_into(np.empty(f.shape), f, 0, "query")
        q, d = self._q_unit.shape
        self._k, self._chunk_rows, self._next = k, chunk_rows, 0
        self._block = np.empty((chunk_rows, d))
        self._t = np.empty(d * chunk_rows)
        self._out = np.empty(q * chunk_rows)
        self._tmp = np.empty_like(self._out)
        room = 2 * k * q
        self._ids = np.empty(room, np.int64)
        self._cols = np.empty(room, np.int64)
        self._scores = np.empty(room)
        self._held = [self._ids, self._cols, self._scores]
        self._rows = None
        if carry is not None:
            self._rows = np.empty((room, d), carry)
            self._held.append(self._rows)
        self._n = 0
        self._floor = np.full(q, -np.inf)

    def feed(self, rows: np.ndarray, first_record_id: int) -> None:
        """Score rows, record ids first_record_id onwards, and merge them
        into the candidates."""
        if first_record_id < self._next:
            raise ValueError(f"record {first_record_id} fed after record "
                             f"{self._next - 1}: rows go in ascending order")
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self._q_unit.shape[1]:
            raise ValueError(f"bank feat_dim {rows.shape[-1]} != dataset "
                             f"{self._q_unit.shape[1]}")
        for lo in range(0, rows.shape[0], self._chunk_rows):
            self._admit(rows[lo:lo + self._chunk_rows], first_record_id + lo)
        self._next = first_record_id + rows.shape[0]

    def result(self) -> SampleResult:
        """The top k per column of every row fed so far."""
        self._cut()
        n, k = self._n, self._k
        cols = self._cols[:n].copy()
        feats = None if self._rows is None else self._rows[:n].copy()
        return SampleResult(selected_ids=self._ids[:n].copy(),
                            assigned_column=cols, score=self._scores[:n].copy(),
                            deficits=k - np.bincount(cols, minlength=self._floor.size),
                            k=k, feats=feats)

    def _best(self, chunk: np.ndarray,
              start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positions of the chunk rows that may beat a floor, ascending,
        with each one's best column and fixed-order score: every row, or
        the rows the screen keeps."""
        unit = _normalize_into(self._block, chunk, start, "bank")
        (r, d), q = unit.shape, self._floor.size
        kept = None
        if q >= _GEMM_MIN_COLUMNS:
            best = _best_by_gemm(unit, self._q_unit, self._out,
                                 self._tmp.view(np.bool_))
            if best is not None:
                return np.arange(r), *best
        elif self._floor.min() > -np.inf:
            kept = _screen(unit, self._q_unit, self._floor, self._out,
                           self._tmp.view(np.bool_))
        if kept is None:
            unit_t = self._t[:unit.size].reshape(d, r)
            np.copyto(unit_t, unit.T)
        else:  # gather into the free _t, then transpose over the unit rows
            picked = self._t[:kept.size * d].reshape(kept.size, d)
            np.take(unit, kept, axis=0, out=picked, mode="clip")
            unit_t = self._block.reshape(-1)[:picked.size].reshape(d, kept.size)
            np.copyto(unit_t, picked.T)
        block = _scores_fixed_order(unit_t, self._q_unit, self._out, self._tmp)
        assigned = np.argmax(block, axis=0)
        cols = np.arange(block.shape[1])
        return (cols if kept is None else kept), assigned, block[assigned, cols]

    def _admit(self, chunk: np.ndarray, start: int) -> None:
        """Append the chunk's rows whose best score beats their column's
        floor, cutting whenever the arrays are full; the first row is record
        start.  The chunk's merge vectors die on return."""
        at, assigned, row_score = self._best(chunk, start)
        admit = np.flatnonzero(row_score > self._floor[assigned])
        room = self._ids.size
        while admit.size:
            if self._n == room:
                self._cut()  # keeps at most k*q, half the room
            n = self._n
            piece, admit = admit[:room - n], admit[room - n:]
            stop = n + piece.size
            # mode "clip" writes into out directly; "raise" would buffer a copy
            rows = at[piece]
            np.add(rows, start, out=self._ids[n:stop])
            np.take(assigned, piece, out=self._cols[n:stop], mode="clip")
            np.take(row_score, piece, out=self._scores[n:stop], mode="clip")
            if self._rows is not None:
                np.take(chunk, rows, axis=0, out=self._rows[n:stop], mode="clip")
            self._n = stop

    def _cut(self) -> None:
        """Compact the candidates in place to (column, -score, id) order
        with at most k per column, and raise each full column's floor to its
        k-th score."""
        n, k = self._n, self._k
        ids, cols, scores = self._ids[:n], self._cols[:n], self._scores[:n]
        order = np.lexsort((ids, -scores, cols))
        counts = np.bincount(cols, minlength=self._floor.size)
        starts = np.cumsum(counts) - counts
        rank = np.arange(n)
        rank -= np.repeat(starts, counts)
        keep = order[rank < k]
        full = counts >= k
        self._floor[full] = scores[order[starts[full] + k - 1]]
        for held in self._held:
            held[:keep.size] = held[keep]
        self._n = keep.size


def select_topk_streamed(v: np.ndarray, f: np.ndarray, k: int,
                         chunk_rows: int, carry_rows: bool = True) -> SampleResult:
    """The TopKSelector's result for the rows of v fed at once, carrying
    the selected rows of v when carry_rows; the chunk holds no more rows
    than v has."""
    v = np.asarray(v)
    selector = TopKSelector(f, k, min(chunk_rows, max(v.shape[0], 1)),
                            v.dtype if carry_rows else None)
    selector.feed(v, 0)
    return selector.result()


def default_k1(n_downstream: int, n_classes: int, multiplier: float) -> int:
    """Per-class keep count sizing the label bank at multiplier x downstream."""
    return max(1, math.ceil(multiplier * n_downstream / n_classes))


def default_k2(label_bank_size: int, n_downstream: int, keep: float) -> int:
    """Per-image keep count retaining `keep` of the label bank overall."""
    return max(1, math.ceil(keep * label_bank_size / n_downstream))


def stage1_sample(bank: EmbeddingBank | str | os.PathLike, ds: DownstreamDataset,
                  cfg: RunConfig, kept: dict | None = None) -> SampleResult:
    """Zero-shot retrieval, bank features against class text features: the
    label bank, carrying the stored feats of its rows.

    An in-memory bank is fed whole.  A DATB path is read once, keeping only
    latent_class: each block of its feats goes to the selector once the
    block's checks have passed, so feats is never held whole, and a file
    that fails a check raises the decode's error.  kept, when given, gets
    the bank scored under "bank": as given, or as read from the path."""
    k1 = default_k1(ds.size, ds.n_classes, cfg.stage1_multiplier)
    rows = budget_chunk_rows(cfg.memory_budget_bytes, k1, ds.feat_dim,
                             ds.n_classes)
    if isinstance(bank, EmbeddingBank):
        result = select_topk_streamed(bank.feats, ds.class_text_feats, k1, rows)
    else:
        selector = TopKSelector(ds.class_text_feats, k1, rows)
        bank = decode_bank_file(bank, fields=("latent_class",),
                                feats_to=selector.feed)
        result = selector.result()
    if kept is not None:
        kept["bank"] = bank
    return result


def stage2_sample(label_bank: SampleResult, ds: DownstreamDataset,
                  cfg: RunConfig) -> SampleResult:
    """Per-image retrieval within the label bank only, from the feats it
    carries.

    Each downstream image acts as its own category, embedded by the run
    seed's frozen image embedder; returned ids are bank record ids,
    deduplicated by construction since each label-bank record is assigned
    to exactly one image.  The result carries no rows.
    """
    if label_bank.n_selected == 0:
        raise ValueError("label bank is empty, nothing to re-rank")
    k2 = default_k2(label_bank.n_selected, ds.size, cfg.stage2_keep)
    embedder = FrozenEmbedder.from_seed("image", cfg.seed, ds.feat_dim,
                                        ds.image_dim)
    image_feats = embedder.embed_rows(np.asarray(ds.images, dtype=np.float64))
    rows = budget_chunk_rows(cfg.memory_budget_bytes, k2, ds.feat_dim, ds.size,
                             carry_rows=False)
    picked = select_topk_streamed(label_bank.feats, image_feats, k2, rows,
                                  carry_rows=False)
    return replace(picked, selected_ids=label_bank.selected_ids[picked.selected_ids])


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


def save_sample_csv(result: SampleResult, path) -> None:
    """samples.csv at path and, beside it, deficits.csv."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["record_id", "assigned_column", "score"])
        for rid, col, sc in zip(result.selected_ids, result.assigned_column,
                                result.score):
            w.writerow([int(rid), int(col), repr(float(sc))])
    with open(Path(path).with_name("deficits.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["column", "deficit"])
        for j, d in enumerate(result.deficits):
            w.writerow([j, int(d)])


def load_sample_csv(path) -> np.ndarray:
    """The record ids of a samples.csv, int64 in file order.  Every data row
    must be a non-negative integer id, a non-negative integer column and a
    float score; any other row is refused with its line number.  A sampler
    never selects a record twice, so an id that repeats is refused with both
    line numbers."""
    ids, line_of = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["record_id", "assigned_column", "score"]:
            raise ValueError(f"unexpected sample csv header {header}")
        for row in reader:
            try:
                if len(row) != 3 or not (row[0].isdecimal()
                                         and row[1].isdecimal()):
                    raise ValueError
                float(row[2])
                ids.append(np.int64(row[0]))
            except (ValueError, OverflowError):
                raise ValueError(
                    f"{path} line {reader.line_num}: expected a non-negative "
                    "integer record_id and assigned_column and a float score, "
                    f"got {','.join(row)!r}") from None
            first = line_of.setdefault(ids[-1], reader.line_num)
            if first != reader.line_num:
                raise ValueError(f"{path} lines {first} and {reader.line_num}: "
                                 f"record_id {ids[-1]} is selected twice")
    return np.asarray(ids, dtype=np.int64)
