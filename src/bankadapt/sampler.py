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
A row is scored in float64 only when it may enter the selection (the
screen, below, turns the others away): its float64 copy and norm are made
by embank.copy_with_norms (sqrt(einsum("ij,ij->i"))) and the copy is
divided by the norm in place, which makes a unit row.  A score is defined
by one fixed arithmetic: s = 0, then s = s + q[j, t] * u[i, t] for
t = 0, 1, ..., d-1, each product and sum rounded on its own.  Every score
is thus the same float operations whatever the chunk shape, so scores (and
therefore selections) are bit-identical no matter how the rows are
chunked.

One pass reaches those scores, under one bound.  One matmul scores the
chunk's rows as fed against the query rows, laid out with its longer side
contiguous: (q, r) when the q columns are no more than the r rows, else
(r, q).  The rows are fed as a bank stores them, float32, and are scored
in float32, against the query rounded to float32.  Each row's norm is
the root of its sum of squares (the one read_bank's check took, or taken
here).  A matmul sums in its own order, but any order of a dot product
lies within gamma_d = d*u / (1 - d*u) of the exact value (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 3.1), so a row's score
over its norm lies within _slack32 of the pair's fixed-order score, when
its sum of squares lies in _SCREENED_SUMS.  The other rows (blind: zero,
not finite or out of that range) are kept and take every column, so a
degenerate row still reaches its refusal.

Once every column holds k candidates (its floor, below, is finite), the
scores are divided by the norms, and a row whose score reaches no
column's floor less _slack32 has a fixed-order score below the floor in
every column and would be refused, so it is dropped.  Floors only rise,
so the screen never changes a bit.  The rows kept, and every row until
the floors are set, get their float64 unit rows.  A row's fixed-order
best column then lies within 2 _slack32 of its top score, in units of its
norm: _window widens that for the window's edge, taken in float32.  A
kept row with one column in its window takes it.  A row with more
(columns that tie or nearly tie), and a blind row, has the pairs of its
window scored again by the fixed arithmetic, into a float64 line of -inf,
and takes the lowest column that holds the line's maximum.  The tied
lines' mask of those pairs is walked flat, in spans of _PAIRS_PER_ROW
entries per chunk row, so no span holds more pairs than that.  Every kept
row then gets one fixed-order score, of its (row, best column) pair, in
pieces of half a chunk of pairs.  The scores and the tied lines take
turns in one (q, r) float64 buffer, the screen's and the window's masks
in one (q, r) mask.

Ties are broken toward the lowest class/column index at assignment and
toward the lowest record id within a column.  Non-finite rows are refused,
as zero-norm rows are: the bound holds only for finite scores.

The selector is fed rows in ascending record order, in pieces of any
size: the label bank's whole, or each piece of a bank's feats as
read_bank checks it, with the sums of squares its check took, so that
the read never holds feats whole and each row's squares are summed once.
Each piece is scored chunk_rows rows at a time.  Candidates are held in
arrays allocated once with room for 2*k*q entries: id, column, score and,
for stage 1, the row as fed (a bank's stored float32 feats), so that the
label bank carries the feats of its rows and stage 2 re-ranks them
without the bank; stage 2 carries none.  Once a column has
k candidates, the score of its k-th is the column's floor, and a later
row enters only with a score strictly above it: its id is larger than
every held id, so it cannot win a tie.  When a chunk's admitted rows do
not fit, the arrays are sorted by (column, -score, id) and compacted in
place to k per column, which frees at least half of them, and once more
at the end, so the result equals a top k taken over the full score
matrix.  Wherever column and score tie, positions are already in id
order (a cut leaves them so, and rows come in by ascending id), so a
stable sort by (column, -score) is that order; a cut with no row come
in since the last one does nothing.  A column whose assigned pool is
smaller than k reports a deficit; nothing is backfilled from other
columns.  merge_bytes charges every slot of the arrays, a carried row at
4d bytes (a stored row), and the copy a cut makes to compact the rows it
keeps; a chunk row needs no slot of its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .embank import DownstreamDataset, EmbeddingBank, copy_with_norms, read_bank
from .encoder import FrozenEmbedder

# Int64/float64 vectors an entry of a cut needs at once beyond its id,
# column and score, at most four: while sorting, the negated scores, the
# column key (one or two bytes up to 65,536 columns), the sort order and
# lexsort's work array; while ranking, the order, the rank and the
# repeated column starts; while compacting, the order, the rank, the kept
# index and the compacting copy of one of the id, column and score vectors.
_CUT_VECTORS = 4

# Bytes a ufunc call may allocate whatever the chunk size: numpy's iterator
# buffers a comparison of scores against a broadcast row or column in up to
# np.getbufsize() (8,192) float64 entries, 64 KiB, and holds about 1 KiB of
# its own (measured with numpy 2.4); the rest covers the small objects a
# chunk's scoring makes beside the vectors bytes_per_row counts.
_UFUNC_BYTES = 72 * 1024

# Near-maximum pairs per chunk row that the rescoring holds at once: the
# tied lines' flat mask of them is walked in spans of this many entries per
# chunk row.
_PAIRS_PER_ROW = 3


# The sums of squares of the rows the pass bounds: over them no square,
# product or sum of the pass overflows, and what underflows stays within
# _slack32's last terms.
_SCREENED_SUMS = (2.0 ** -60, 2.0 ** 60)


def _gamma(n: int, u: float = 2.0 ** -53) -> float:
    """Higham's gamma_n = n u / (1 - n u), at unit roundoff u."""
    return n * u / (1 - n * u)


def _slack(feat_dim: int) -> float:
    """A bound on how far the fixed-order score of a pair lies from its
    cosine: 4 gamma_d, widened for unit rows whose float norm is up to
    gamma_(d+2) away from 1, about twice the distance."""
    return 4 * _gamma(feat_dim) * (1 + _gamma(feat_dim + 2)) ** 2


def _slack32(feat_dim: int) -> float:
    """A bound on how far the score of a row (sum of squares in
    _SCREENED_SUMS) in the scoring pass lies from the pair's fixed-order
    score.

    The pass's score of a row x against a query row q is R = P / N, in
    float32: P the matmul score of x against q rounded to float32, N the
    root of x's float32 sum of squares.  With u = 2^-24 and g = gamma_d at
    u (Higham, 3.1), in units of |x||q| or |x|:
    - P lies within u (the query's rounding) + g (1 + u) (the matmul) of
      x.q;
    - N lies within u + g (the sum of squares and its root) of |x|;
    - the division, which only the screen takes, adds u of R.
    So R lies within ((score + norm) / (1 - norm)) (1 + u) + u of the
    cosine x.q / |x|, times |q| <= 1 + gamma_(d+2) at 2^-53.  The
    fixed-order score lies within _slack(d) of that cosine: its distance
    is about 2 gamma_d + 2^-52 at 2^-53.  A float64 floor less the slack
    is rounded once, within 2^-52, before it is rounded down to float32.
    A factor 1 + 2^-40 covers what underflows (each square, product and
    quotient to at most 2^-150, d 2^-88 against a row of sum of squares
    2^-60 or more) and the float64 rounding of this formula."""
    d, u = feat_dim, 2.0 ** -24
    if d * u >= 0.5:
        return math.inf  # no bound: every row is kept and takes every column
    g = _gamma(d, u)
    score, norm = u + g * (1 + u), u + g
    screen = ((score + norm) / (1 - norm) * (1 + u) + u) * (1 + _gamma(d + 2))
    return (screen + _slack(d) + 2.0 ** -52) * (1 + 2.0 ** -40)


def _window(feat_dim: int) -> float:
    """The width, in units of a row's norm N, of the window below the row's
    top score T that holds its fixed-order best column: 2 _slack32, as each
    score lies within _slack32 of its fixed-order score, widened so that
    the edge T - width * N taken in float32 (the width rounded to float32,
    each operation to nearest, u = 2^-24) lies below the exact one.  Those
    roundings move the edge by less than u (|T| + 3 width N), and |T| <=
    (2 + _slack32) N."""
    return 2 * _slack32(feat_dim) * (1 + 2.0 ** -20) + 2.0 ** -21


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
    """Bytes one chunk row may hold while it is scored and merged, when
    the screen keeps it and it ties (every row is kept until the floors
    are set): its share of the (q, r) float64 buffer (8q), which holds the
    matmul's scores, then the tied rows' lines, and of the (q, r) mask (q)
    of the screen's reach, then of the window; one gathered line of that
    mask (q), a kept row's for the argmax or a tied row's pairs; its
    float64 unit row (8d), from copy_with_norms of its stored row (4d,
    gathered while the copy is taken); eight vectors of it at most (64):
    its norm, position, argmax, best column, top score, window edge and
    place among the tied rows, and its flags; and the work of breaking
    ties, which outweighs what the screen, the window or the scoring of
    the best pairs hold at once: the flat index of up to _PAIRS_PER_ROW of
    its pairs (8 each), and a piece of half a chunk of pairs, with their
    gathered query rows and the sums of their products (8d) and each
    pair's line, column, row and fixed-order score (16)."""
    return 16 * feat_dim + 10 * n_columns + 80 + 8 * _PAIRS_PER_ROW


def merge_bytes(k: int, feat_dim: int, n_columns: int,
                carry_rows: bool = True) -> int:
    """Bytes the selection holds whatever the chunk size: the unit query
    rows and their float32 rounding (12dq), a few per-column vectors
    (floors, the screen's thresholds, counts, offsets), the 2kq slots of
    the candidate arrays and what one ufunc call may allocate
    (_UFUNC_BYTES).  The matmul reads the query rows in place."""
    return (4 * n_columns * (3 * feat_dim + 22) + _UFUNC_BYTES
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
    deficits, the selected rows when the selection carries them, and the
    selected records' latent classes when the bank has any.

    Rows are ordered by (column, rank); deficits[j] is how many records
    column j wanted but could not get from its assigned pool.  latent_class
    is ground truth for precision reporting only: None when no record of
    the bank has a latent class.
    """

    selected_ids: np.ndarray     # (s,) int64
    assigned_column: np.ndarray  # (s,) int64
    score: np.ndarray            # (s,) float64
    deficits: np.ndarray         # (n_columns,) int64
    k: int
    feats: np.ndarray | None = None  # (s, d) float32, the rows as fed
    latent_class: np.ndarray | None = None  # (s,) int32, -1 = unknown

    @property
    def n_selected(self) -> int:
        return self.selected_ids.shape[0]


def _unit_rows(rows: np.ndarray, norms: np.ndarray, what: str, offset: int = 0,
               at: np.ndarray | None = None) -> np.ndarray:
    """Divide the float64 rows by their norms in place and return them; a
    zero or non-finite norm is refused, naming its row: offset + i for
    row i, or offset + at[i] when the rows are those at at."""
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        i = int(bad[0])
        problem = "zero" if norms[i] == 0.0 else "a non-finite"
        row = offset + (i if at is None else int(at[i]))
        raise DegenerateRowError(f"{what} row {row} has {problem} norm")
    rows /= norms[:, None]
    return rows


class TopKSelector:
    """The top k rows per column of the rows fed to it: each row is
    assigned to its most cosine-similar row of f, and each column keeps its
    k best under (score desc, id asc).

    feed takes float32 rows in ascending record order, in pieces of any
    size, and scores them chunk_rows at a time; result returns the
    selection, with the rows of the selected records when carry is true.
    Each row is used at most once (its assigned column), so the selected
    ids are distinct by construction.  See the module docstring for the
    scores and the merge.
    """

    def __init__(self, f: np.ndarray, k: int, chunk_rows: int,
                 carry: bool = True):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be at least 1, got {chunk_rows}")
        self._q_unit = _unit_rows(*copy_with_norms(f), "query")
        self._q32 = self._q_unit.astype(np.float32)
        q, d = self._q_unit.shape
        self._slack32, self._window = _slack32(d), _window(d)
        self._k, self._chunk_rows, self._next = k, chunk_rows, 0
        self._out = np.empty(q * chunk_rows)
        self._mask = np.empty(q * chunk_rows, np.bool_)
        room = 2 * k * q
        self._ids = np.empty(room, np.int64)
        self._cols = np.empty(room, np.int64)
        self._scores = np.empty(room)
        self._held = [self._ids, self._cols, self._scores]
        self._rows = None
        if carry:
            self._rows = np.empty((room, d), np.float32)
            self._held.append(self._rows)
        self._n = self._sorted = 0  # candidates held, and held after the last cut
        self._floor = np.full(q, -np.inf)

    def feed(self, rows: np.ndarray, first_record_id: int,
             sums: np.ndarray | None = None) -> None:
        """Score rows, record ids first_record_id onwards, and merge them
        into the candidates.  sums are the rows' sums of squares, as a bank
        file's reader hands them on (see read_bank), which the scoring pass
        overwrites with their roots; when None, the pass takes them."""
        if first_record_id < self._next:
            raise ValueError(f"record {first_record_id} fed after record "
                             f"{self._next - 1}: rows go in ascending order")
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self._q_unit.shape[1]:
            raise ValueError(f"bank feat_dim {rows.shape[-1]} != dataset "
                             f"{self._q_unit.shape[1]}")
        if rows.dtype != np.float32:
            raise ValueError(f"rows of dtype {rows.dtype} fed to a selector "
                             "of float32 rows")
        for lo in range(0, rows.shape[0], self._chunk_rows):
            part = slice(lo, lo + self._chunk_rows)
            self._admit(rows[part], None if sums is None else sums[part],
                        first_record_id + lo)
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

    def _best(self, chunk: np.ndarray, sums: np.ndarray | None,
              start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positions of the chunk's rows (record start first) that may
        beat a floor, ascending, with each one's best column (lowest on
        ties) and fixed-order score, from one matmul of the chunk: every
        row, or the rows the screen keeps, which alone get their float64
        unit rows.  sums, or the squares summed here, become the norms."""
        r, q = chunk.shape[0], self._floor.size
        wide = q > r  # the longer side runs contiguous
        out = self._out.view(np.float32)[:q * r].reshape((r, q) if wide else (q, r))
        with np.errstate(invalid="ignore"):  # a non-finite row is refused below
            if wide:
                np.matmul(chunk, self._q32.T, out=out)
            else:
                np.matmul(self._q32, chunk.T, out=out)
        scores = out if wide else out.T  # (r, q) in either layout
        mask = self._mask[:q * r].reshape(out.shape)
        mask = mask if wide else mask.T  # (r, q) too
        norms = np.einsum("ij,ij->i", chunk, chunk) if sums is None else sums
        lo, hi = _SCREENED_SUMS
        blind = ~((norms >= lo) & (norms <= hi))  # NaN fails both
        np.sqrt(norms, out=norms)
        norms[blind] = 1  # their scores bound nothing
        at, scale = np.arange(r), norms
        if self._floor.min() > -np.inf:  # the screen
            np.divide(scores, norms[:, None], out=scores)
            floor = self._floor - self._slack32
            bar = floor.astype(np.float32)  # rounded down, below
            np.nextafter(bar, -np.inf, out=bar, where=bar > floor)
            np.greater_equal(scores, bar, out=mask)
            keep = mask.any(axis=1)
            keep |= blind
            at, scale = np.flatnonzero(keep), 1
        if wide:  # a row's line runs contiguous: set its argmax aside
            best = np.arange(r), scores.argmax(axis=1)
            top = scores[best]
            scores[best] = -np.inf
            edge = top - self._window * scale
            tied = scores.max(axis=1) >= edge
            scores[best] = top
            assigned = best[1][at]
        else:  # a column runs contiguous: count each row's columns in its window
            edge = scores.max(axis=1) - self._window * scale
            np.greater_equal(scores, edge[:, None], out=mask)
            tied = mask.sum(axis=1, dtype=np.min_scalar_type(q)) > 1
            assigned = mask[at].argmax(axis=1)
        tied |= blind
        tie = np.flatnonzero(tied[at])
        unit = _unit_rows(*copy_with_norms(chunk[at]), "bank", start, at)
        if tie.size:
            if wide:  # the window's mask, drawn only for the tied rows' pairs
                np.greater_equal(scores, edge[:, None], out=mask)
            pairs = mask[at[tie]]
            pairs[blind[at[tie]]] = True  # a blind row takes every column
            self._break_ties(pairs, unit, assigned, tie)
        score = np.empty(at.size)
        for part in self._pieces(at.size):
            score[part] = self._rescore(unit, part, assigned[part])
        return at, assigned, score

    def _break_ties(self, pairs: np.ndarray, unit: np.ndarray,
                    assigned: np.ndarray, tie: np.ndarray) -> None:
        """Set assigned[tie] to the fixed-order best columns, lowest on ties,
        of the kept rows tie of unit, whose pairs within the window are the
        (n, q) mask pairs: those pairs are scored by the fixed arithmetic
        into float64 lines of -inf in the scores' buffer, the pairs of
        _PAIRS_PER_ROW entries per chunk row of the flat mask at a time."""
        lines = self._out[:pairs.size].reshape(pairs.shape)  # the scores are read
        lines.fill(-np.inf)
        flat = pairs.reshape(-1)
        span = _PAIRS_PER_ROW * self._chunk_rows
        for lo in range(0, flat.size, span):
            pos = np.flatnonzero(flat[lo:lo + span])
            pos += lo
            for part in self._pieces(pos.size):
                line, col = np.divmod(pos[part], pairs.shape[1])
                lines.reshape(-1)[pos[part]] = self._rescore(unit, tie[line], col)
        assigned[tie] = lines.argmax(axis=1)

    def _pieces(self, n: int):
        """Slices of half a chunk, rounded up, over n pairs."""
        piece = (self._chunk_rows + 1) // 2
        return (slice(p, p + piece) for p in range(0, n, piece))

    def _rescore(self, unit: np.ndarray, rows, cols: np.ndarray) -> np.ndarray:
        """The fixed-order scores of unit[rows] (rows an index array or a
        slice) against the query columns cols, pair by pair: cumsum adds
        each pair's products in order, and + 0.0 turns a sum of -0.0
        products into +0.0, as 0 + p0 + p1 + ... does."""
        prod = self._q_unit[cols]
        prod *= unit[rows]
        return np.cumsum(prod, axis=1)[:, -1] + 0.0

    def _admit(self, chunk: np.ndarray, sums: np.ndarray | None,
               start: int) -> None:
        """Append the chunk's rows (sums of squares sums, or None) whose
        best score beats their column's floor, cutting whenever the arrays
        are full; the first row is record start.  The chunk's merge vectors
        die on return."""
        at, assigned, row_score = self._best(chunk, sums, start)
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
        k-th score; nothing to do when no row came in since the last cut.
        Positions are in id order wherever (column, score) tie (see the
        module docstring), so lexsort, which is stable, needs no id key;
        it sorts the column key by radix when that fits in 16 bits."""
        n, k, q = self._n, self._k, self._floor.size
        if n == self._sorted:
            return
        cols, scores = self._cols[:n], self._scores[:n]
        order = np.lexsort((-scores, cols.astype(np.min_scalar_type(q - 1))))
        counts = np.bincount(cols, minlength=q)
        starts = np.cumsum(counts) - counts
        rank = np.arange(n)
        rank -= np.repeat(starts, counts)
        keep = order[rank < k]
        full = counts >= k
        self._floor[full] = scores[order[starts[full] + k - 1]]
        for held in self._held:
            held[:keep.size] = held[keep]
        self._n = self._sorted = keep.size


def select_topk_streamed(v: np.ndarray, f: np.ndarray, k: int,
                         chunk_rows: int) -> SampleResult:
    """The TopKSelector's result for the float32 rows of v, carrying no
    rows; the chunk holds no more rows than v has."""
    v = np.asarray(v)
    selector = TopKSelector(f, k, min(chunk_rows, max(v.shape[0], 1)), False)
    selector.feed(v, 0)
    return selector.result()


def default_k1(n_downstream: int, n_classes: int, multiplier: float) -> int:
    """Per-class keep count sizing the label bank at multiplier x downstream."""
    return max(1, math.ceil(multiplier * n_downstream / n_classes))


def default_k2(label_bank_size: int, n_downstream: int, keep: float) -> int:
    """Per-image keep count retaining `keep` of the label bank overall."""
    return max(1, math.ceil(keep * label_bank_size / n_downstream))


def stage1_sample(bank: EmbeddingBank | str | os.PathLike, ds: DownstreamDataset,
                  cfg: RunConfig) -> SampleResult:
    """Zero-shot retrieval, bank features against class text features: the
    label bank, carrying the stored feats of its rows and, for precision
    reporting, their latent classes.

    The bank, a DATB path or an EmbeddingBank, is read once by read_bank:
    each piece of its feats, of at most the chunk's rows, goes to the
    selector with the float32 sums of squares of its checks, once they
    pass, so the read never holds feats whole or sums its squares again.  latent_class
    is kept at the label bank's ids, in their order, which read_bank asks
    for when it reaches that field (it follows feats, so the label bank is
    final by then)."""
    k1 = default_k1(ds.size, ds.n_classes, cfg.stage1_multiplier)
    rows = budget_chunk_rows(cfg.memory_budget_bytes, k1, ds.feat_dim,
                             ds.n_classes)
    selector = TopKSelector(ds.class_text_feats, k1, rows)
    label, _, with_latent = read_bank(bank, ("latent_class",), selector.feed,
                                      selector.selected_ids, rows)
    return replace(selector.result(),
                   latent_class=label.latent_class if with_latent else None)


def stage2_sample(label_bank: SampleResult, ds: DownstreamDataset,
                  cfg: RunConfig) -> SampleResult:
    """Per-image retrieval within the label bank only, from the feats it
    carries.

    Each downstream image acts as its own category, embedded by the run
    seed's frozen image embedder; returned ids are bank record ids,
    deduplicated by construction since each label-bank record is assigned
    to exactly one image.  The result carries no rows; it carries the label
    bank's latent classes of its records.
    """
    if label_bank.n_selected == 0:
        raise ValueError("label bank is empty, nothing to re-rank")
    k2 = default_k2(label_bank.n_selected, ds.size, cfg.stage2_keep)
    embedder = FrozenEmbedder.from_seed("image", cfg.seed, ds.feat_dim,
                                        ds.image_dim)
    image_feats = embedder.embed_rows(np.asarray(ds.images, dtype=np.float64))
    rows = budget_chunk_rows(cfg.memory_budget_bytes, k2, ds.feat_dim, ds.size,
                             carry_rows=False)
    picked = select_topk_streamed(label_bank.feats, image_feats, k2, rows)
    latent = label_bank.latent_class
    return replace(picked, selected_ids=label_bank.selected_ids[picked.selected_ids],
                   latent_class=None if latent is None else latent[picked.selected_ids])


def sampler_precision(result: SampleResult, ds: DownstreamDataset) -> float:
    """Fraction of selected records whose latent class is a downstream
    class, from the latent classes result carries (stage1_sample keeps
    them, and stage2_sample passes them on)."""
    if result.latent_class is None:
        raise PrecisionUndefinedError(
            "bank carries no ground-truth latent classes; precision undefined")
    if result.n_selected == 0:
        raise ValueError("empty selection has no precision")
    classes = result.latent_class
    hits = (classes >= 0) & (classes < ds.n_classes)
    return float(np.mean(hits))
