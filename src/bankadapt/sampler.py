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
Every row arrives with its float64 copy and the copy's norms, made by
embank.copy_with_norms (sqrt(einsum("ij,ij->i"))): for a bank file's rows
by the reader's unit-row check, for rows in memory chunk by chunk by
select_topk_streamed.  The selector divides that copy by the norms in
place, and so makes unit rows.  A score is defined by one fixed
arithmetic: s = 0, then s = s + q[j, t] * u[i, t] for t = 0, 1, ..., d-1,
each product and sum rounded on its own.  Every score is thus the same
float operations whatever the chunk shape, so scores (and therefore
selections) are bit-identical no matter how the rows are chunked.

One path reaches those scores.  One matmul scores the chunk, laid out with
its longer side contiguous: (q, r) when the q columns are no more than the
r rows, else (r, q).  A matmul sums in its own order, but any order of a
dot product of unit rows lies within gamma_d = d*u / (1 - d*u) of the exact
value (u = 2^-53; Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., 3.1), and so does the fixed-order score.  The slack used, _slack,
is 4 gamma_d, widened for float norms not exactly 1: it covers twice the
distance between the two scores of a pair.

- Screen.  Once every column holds k candidates (its floor, below, is
  finite), a row whose matmul score plus the slack reaches no column's
  floor has a fixed-order score below the floor in every column and would
  be refused, so it is dropped.  The matmul scores of the rows kept are
  gathered into the free (q, r) buffer.  Floors only rise, so the screen
  never changes a bit.
- Rescoring.  A row's fixed-order best column has a matmul score within
  the slack of the row's matmul maximum.  Only the pairs within the slack
  are scored again by the fixed arithmetic, and their scores are written
  over their matmul scores.  A chunk's pairs are taken all at once when
  they number at most _PAIRS_PER_ROW per chunk row; columns that tie or
  nearly tie make more, and then they are taken in groups within that
  cap, each of whole lines of the layout or of part of one line.  A group
  is scored in pieces of half a chunk of pairs.
- Assignment.  Every score left from the matmul lies below the row's best
  fixed-order score, so each row takes its maximum and the lowest column
  that holds it, by argmax along the contiguous axis: over the (r, q)
  scores, or over a copy of the (q, r) scores into the free buffer.

Ties are broken toward the lowest class/column index at assignment and
toward the lowest record id within a column.  Non-finite rows are refused,
as zero-norm rows are: the bound holds only for finite scores.

The selector is fed rows in ascending record order, in pieces of any
size: an in-memory bank's or the label bank's one chunk at a time, or
each piece of a bank file's feats as the reader checks it, so that feats
is never held whole and each row is copied to float64 and its norm taken
once.  Each piece is scored chunk_rows rows at a time.  Candidates are
held in arrays allocated once with room for 2*k*q entries: id, column,
score and, for stage 1, the row as fed (a bank's stored float32 feats),
so that the label bank carries the feats of its rows and stage 2
re-ranks them without the bank; stage 2 carries none.  Once a column has
k candidates, the score of its k-th is the column's floor, and a later
row enters only with a score strictly above it: its id is larger than
every held id, so it cannot win a tie.  When a chunk's admitted rows do
not fit, the arrays are sorted by (column, -score, id) and compacted in
place to k per column, which frees at least half of them, and once more
at the end, so the result equals a top k taken over the full score
matrix.  A column whose assigned pool is smaller than k reports a
deficit; nothing is backfilled from other columns.  merge_bytes charges
every slot of the arrays, a carried row at 4d bytes (a stored row), and
the copy a cut makes to compact the rows it keeps; a chunk row needs no
slot of its own.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .embank import DownstreamDataset, EmbeddingBank, copy_with_norms, read_bank
from .encoder import FrozenEmbedder

# Int64/float64 vectors an entry of a cut needs at once beyond its id,
# column and score, at most three: while sorting the negated scores, the
# sort order and lexsort's work array; while ranking the order, the rank
# and the repeated column starts; while compacting the order, the rank and
# the kept index.  One more covers the compacting copy of the id, column
# and score vectors.
_CUT_VECTORS = 4

# Bytes a ufunc call may allocate whatever the chunk size: numpy's iterator
# buffers a comparison of scores against a broadcast row or column in up to
# np.getbufsize() (8,192) float64 entries, 64 KiB, and holds about 1 KiB of
# its own (measured with numpy 2.4); the rest covers the small objects a
# chunk's scoring makes beside the vectors bytes_per_row counts.
_UFUNC_BYTES = 72 * 1024

# Near-maximum pairs per chunk row that the rescoring holds at once; a chunk
# with more (columns that tie or nearly tie) is rescored in groups of columns.
_PAIRS_PER_ROW = 3


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
    """Bytes one chunk row may hold while it is scored and merged: its
    float64 unit row (8d), in the copy that is fed with it; its share of
    the two (q, r) buffers (16q), which hold the matmul, the screen's mask,
    the kept rows' matmul scores, the mask of the near-maximum pairs and
    the assignment's copy; its position in the chunk (8); and the
    rescoring's work, which outweighs the few vectors the screen, the
    assignment or the admission hold at once: up to _PAIRS_PER_ROW pairs
    with their two indices and fixed-order score (24 each), and a piece of
    half a chunk of pairs, its gathered query and chunk features (8d) and
    the chunk positions of its rows (4)."""
    return 16 * feat_dim + 16 * n_columns + 12 + 24 * _PAIRS_PER_ROW


def merge_bytes(k: int, feat_dim: int, n_columns: int,
                carry_rows: bool = True) -> int:
    """Bytes the selection holds whatever the chunk size: the unit query
    rows (8dq), a few per-column vectors (floors, counts, offsets), the 2kq
    slots of the candidate arrays and what one ufunc call may allocate
    (_UFUNC_BYTES).  The matmul reads the query rows in place."""
    return (8 * n_columns * (feat_dim + 8) + _UFUNC_BYTES
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


def _unit_rows(rows: np.ndarray, norms: np.ndarray, offset: int,
               what: str) -> np.ndarray:
    """Divide the float64 rows by their norms in place and return them; a
    zero or non-finite norm is refused, naming its row (offset onwards)."""
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        i = int(bad[0])
        problem = "zero" if norms[i] == 0.0 else "a non-finite"
        raise DegenerateRowError(f"{what} row {offset + i} has {problem} norm")
    rows /= norms[:, None]
    return rows


class TopKSelector:
    """The top k rows per column of the rows fed to it: each row is
    assigned to its most cosine-similar row of f, and each column keeps its
    k best under (score desc, id asc).

    feed takes rows in ascending record order, in pieces of any size, each
    with its copy_with_norms, and scores them chunk_rows at a time; result
    returns the selection, with the rows of the selected records as fed,
    stored as carry (a dtype), unless carry is None.  Each row is used at
    most once (its assigned column), so the selected ids are distinct by
    construction.  See the module docstring for the scores and the merge.
    """

    def __init__(self, f: np.ndarray, k: int, chunk_rows: int,
                 carry=np.float32):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be at least 1, got {chunk_rows}")
        self._q_unit = _unit_rows(*copy_with_norms(f), 0, "query")
        q, d = self._q_unit.shape
        self._k, self._chunk_rows, self._next = k, chunk_rows, 0
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

    def feed(self, rows: np.ndarray, first_record_id: int, rows64: np.ndarray,
             norms: np.ndarray) -> None:
        """Score rows, record ids first_record_id onwards, and merge them
        into the candidates.  rows64 and norms are the rows'
        copy_with_norms, as a bank file's reader hands them on (see
        read_bank); rows64 is divided into unit rows in place."""
        if first_record_id < self._next:
            raise ValueError(f"record {first_record_id} fed after record "
                             f"{self._next - 1}: rows go in ascending order")
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self._q_unit.shape[1]:
            raise ValueError(f"bank feat_dim {rows.shape[-1]} != dataset "
                             f"{self._q_unit.shape[1]}")
        if self._rows is not None and rows.dtype != self._rows.dtype:
            raise ValueError(f"rows of dtype {rows.dtype} fed to a selector "
                             f"that carries {self._rows.dtype} rows")
        unit = _unit_rows(rows64, norms, first_record_id, "bank")
        for lo in range(0, rows.shape[0], self._chunk_rows):
            part = slice(lo, lo + self._chunk_rows)
            self._admit(rows[part], unit[part], first_record_id + lo)
        self._next = first_record_id + rows.shape[0]

    def selected_ids(self) -> np.ndarray:
        """The record ids result would return, without copying them or the
        rest of the selection (a view, valid until the next feed)."""
        self._cut()
        return self._ids[:self._n]

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

    def _best(self, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positions of the chunk's unit rows that may beat a floor,
        ascending, with each one's best column (lowest on ties) and
        fixed-order score: every row, or the rows the screen keeps."""
        (r, d), q = unit.shape, self._floor.size
        wide = q > r  # the matmul's longer side runs contiguous
        ax = 1 if wide else 0  # its column axis
        gemm = self._out[:q * r].reshape((r, q) if wide else (q, r))
        if wide:
            np.matmul(unit, self._q_unit.T, out=gemm)
        else:
            np.matmul(self._q_unit, unit.T, out=gemm)
        slack = _slack(d)
        at, scores, free = np.arange(r), gemm, self._tmp
        if self._floor.min() > -np.inf:  # the screen
            floor = self._floor - slack
            reach = self._tmp.view(np.bool_)[:q * r].reshape(gemm.shape)
            np.greater_equal(gemm, floor if wide else floor[:, None], out=reach)
            at = np.flatnonzero(reach.any(axis=ax))
            scores = self._tmp[:q * at.size].reshape(
                (at.size, q) if wide else (q, at.size))
            # mode "clip" writes into out directly; "raise" would buffer a copy
            np.take(gemm, at, axis=1 - ax, out=scores, mode="clip")
            free = self._out
        near = free.view(np.bool_)[:scores.size].reshape(scores.shape)
        np.greater_equal(scores, scores.max(axis=ax, keepdims=True) - slack,
                         out=near)
        for lo, hi in self._groups(near):
            self._rescore(scores, near, unit, at, wide, lo, hi)
        by_row = scores
        if not wide:  # argmax runs along the contiguous axis
            by_row = free[:scores.size].reshape(scores.shape[::-1])
            np.copyto(by_row, scores.T)
        assigned = by_row.argmax(axis=1)
        return at, assigned, by_row[np.arange(at.size), assigned]

    def _groups(self, near: np.ndarray) -> list[tuple[int, int]]:
        """Ranges of near's flat entries, in order, that each mark at most
        _PAIRS_PER_ROW pairs per chunk row: all of them at once when they
        do, else runs of whole lines, and a line that alone marks more is
        split."""
        lines, width = near.shape
        limit = _PAIRS_PER_ROW * self._chunk_rows
        if np.count_nonzero(near) <= limit:
            return [(0, near.size)]
        ends = np.cumsum(np.count_nonzero(near, axis=1))
        groups, lo = [], 0
        while lo < lines:
            held = ends[lo - 1] if lo else 0
            hi = int(np.searchsorted(ends, held + limit, side="right"))
            if hi > lo:
                groups.append((lo * width, hi * width))
            else:
                hi = lo + 1
                groups += [(a, min(a + limit, hi * width))
                           for a in range(lo * width, hi * width, limit)]
            lo = hi
        return groups

    def _rescore(self, scores: np.ndarray, near: np.ndarray, unit: np.ndarray,
                 at: np.ndarray, wide: bool, lo: int, hi: int) -> None:
        """Write the fixed-order score of each pair that near marks in its
        flat entries lo to hi over its matmul score in scores, in pieces of
        half a chunk of pairs.  Both are (n, q) when wide, else (q, n), and
        their entry (i, j), or (j, i), is chunk row at[i] against column j."""
        pos = np.flatnonzero(near.reshape(-1)[lo:hi])
        pos += lo
        line = np.empty_like(pos)
        np.divmod(pos, near.shape[1], out=(line, pos))
        i, j = (line, pos) if wide else (pos, line)
        exact = np.zeros(i.size)
        piece = max(1, self._chunk_rows // 2)
        prod = np.empty((min(piece, i.size), unit.shape[1]))
        for p in range(0, i.size, piece):
            part = slice(p, p + piece)
            acc = exact[part]
            gathered = prod[:acc.size]
            np.take(self._q_unit, j[part], axis=0, out=gathered, mode="clip")
            gathered *= unit[at[i[part]]]
            for t in range(unit.shape[1]):
                acc += gathered[:, t]
        scores[line, pos] = exact

    def _admit(self, chunk: np.ndarray, unit: np.ndarray, start: int) -> None:
        """Append the chunk's rows, whose unit rows are unit, whose best
        score beats their column's floor, cutting whenever the arrays are
        full; the first row is record start.  The chunk's merge vectors die
        on return."""
        at, assigned, row_score = self._best(unit)
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
    """The TopKSelector's result for the rows of v, carrying the selected
    rows of v when carry_rows.  v is fed one chunk at a time, so that only
    one chunk's float64 copy lives at once; the chunk holds no more rows
    than v has."""
    v = np.asarray(v)
    rows = min(chunk_rows, max(v.shape[0], 1))
    selector = TopKSelector(f, k, rows, v.dtype if carry_rows else None)
    for lo in range(0, max(v.shape[0], 1), rows):  # an empty v is fed too
        piece = v[lo:lo + rows]
        selector.feed(piece, lo, *copy_with_norms(piece))
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

    An in-memory bank is fed a chunk at a time.  A DATB path is read once,
    keeping no field: each piece of its feats goes to the selector, with
    the float64 copy and norms of its checks, once the piece's checks have
    passed, so feats is never held whole, and a file that fails a check
    raises the decode's error.  kept, when given, gets under "latent" the
    LatentClasses for precision reporting: the bank's, or, from a path,
    those at the label bank's ids, kept as latent_class is read (it
    follows feats, so the label bank is final by then)."""
    k1 = default_k1(ds.size, ds.n_classes, cfg.stage1_multiplier)
    rows = budget_chunk_rows(cfg.memory_budget_bytes, k1, ds.feat_dim,
                             ds.n_classes)
    if isinstance(bank, EmbeddingBank):
        result = select_topk_streamed(bank.feats, ds.class_text_feats, k1, rows)
        if kept is not None:
            kept["latent"] = LatentClasses.of(bank)
    else:
        selector = TopKSelector(ds.class_text_feats, k1, rows)
        label = []

        def keep_latent(classes, row0):
            if not label:
                ids = np.sort(selector.selected_ids())
                label[:] = ids, np.empty(ids.size, np.int32)
            ids, at_ids = label
            lo, hi = np.searchsorted(ids, (row0, row0 + classes.size))
            at_ids[lo:hi] = classes[ids[lo:hi] - row0]

        _, _, with_latent = read_bank(bank, (), selector.feed, keep_latent)
        result = selector.result()
        # an empty bank's latent_class comes in no piece
        ids, at_ids = label or (np.zeros(0, np.int64), np.zeros(0, np.int32))
        if kept is not None:
            kept["latent"] = LatentClasses(at_ids, with_latent, ids)
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


@dataclass(frozen=True)
class LatentClasses:
    """Ground-truth latent classes, for precision reporting only: those of
    the records at ids (ascending), or of every record when ids is None,
    and whether any record of the bank has one (known)."""

    classes: np.ndarray        # int32, -1 = unknown / out of distribution
    known: bool
    ids: np.ndarray | None = None

    @classmethod
    def of(cls, bank: EmbeddingBank) -> LatentClasses:
        return cls(bank.latent_class, bool(np.any(bank.latent_class >= 0)))

    def at(self, ids: np.ndarray) -> np.ndarray:
        """The latent classes of records ids, each one of self.ids."""
        return self.classes[ids if self.ids is None
                            else np.searchsorted(self.ids, ids)]


def sampler_precision(result: SampleResult, bank: EmbeddingBank | LatentClasses,
                      ds: DownstreamDataset) -> float:
    """Fraction of selected records whose latent class is a downstream
    class, from the bank's latent_class or from LatentClasses that hold the
    selected records'."""
    latent = bank if isinstance(bank, LatentClasses) else LatentClasses.of(bank)
    if not latent.known:
        raise PrecisionUndefinedError(
            "bank carries no ground-truth latent classes; precision undefined")
    if result.n_selected == 0:
        raise ValueError("empty selection has no precision")
    classes = latent.at(result.selected_ids)
    hits = (classes >= 0) & (classes < ds.n_classes)
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
