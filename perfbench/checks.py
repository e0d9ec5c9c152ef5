"""Correctness checks for the outputs of `sample` and `train`.

Every check recomputes what it needs from the input files, read here with
numpy alone, and never compares against a stored copy of earlier output.
The program's frozen image embedder is used for one thing only: embedding
the downstream images that act as stage-2 queries.

Each checker raises CheckError with a message naming the first violation.
"""

from __future__ import annotations

import csv
import io
import math
import re
import struct
from dataclasses import dataclass

import numpy as np

# Sampler defaults that the workloads rely on (RunConfig.stage1_multiplier and
# RunConfig.stage2_keep); the workloads pass neither flag.
STAGE1_MULTIPLIER = 8.0
STAGE2_KEEP = 0.5
SCORE_TOL = 1e-12
LOSS_REL_TOL = 1e-12

METRICS_COLUMNS = ["step", "epoch", "loss_x", "loss_u", "loss_con",
                   "loss_total", "n_confident", "grad_norm", "acc_eval"]


class CheckError(Exception):
    """An output violates a property the method must have."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- readers

_DATB_HEADER = struct.Struct("<4sHHQII")
_DATD_HEADER = struct.Struct("<4sHHQIII")
_DATC_HEADER = struct.Struct("<4sHHIIII")


def _header(path, layout: struct.Struct, magic: bytes) -> tuple:
    with open(path, "rb") as fh:
        fields = layout.unpack(fh.read(layout.size))
    _require(fields[0] == magic and fields[1] == 1,
             f"{path}: expected {magic!r} version 1, got {fields[:2]}")
    return fields


@dataclass(frozen=True)
class BankPayload:
    feats: np.ndarray         # (m, d) float32
    latent_class: np.ndarray  # (m,) int32


def read_bank(path) -> BankPayload:
    """The feats and latent_class blocks of a DATB file."""
    _, _, _, m, d_img, d = _header(path, _DATB_HEADER, b"DATB")
    feats_at = _DATB_HEADER.size + 4 * m * d_img
    feats = np.fromfile(path, dtype="<f4", count=m * d, offset=feats_at)
    latent_at = feats_at + 8 * m * d
    latent = np.fromfile(path, dtype="<i4", count=m, offset=latent_at)
    _require(feats.size == m * d and latent.size == m, f"{path}: truncated")
    return BankPayload(feats=feats.reshape(m, d), latent_class=latent)


@dataclass(frozen=True)
class DatasetPayload:
    images: np.ndarray            # (n, D_img) float32
    labels: np.ndarray            # (n,) int64
    class_text_feats: np.ndarray  # (C, d) float32

    @property
    def n_classes(self) -> int:
        return self.class_text_feats.shape[0]


def read_dataset(path) -> DatasetPayload:
    _, _, _, n, c, d_img, d = _header(path, _DATD_HEADER, b"DATD")
    with open(path, "rb") as fh:
        fh.seek(_DATD_HEADER.size)
        images = np.frombuffer(fh.read(4 * n * d_img), dtype="<f4")
        labels = np.frombuffer(fh.read(4 * n), dtype="<u4")
        text = np.frombuffer(fh.read(4 * c * d), dtype="<f4")
    _require(images.size == n * d_img and labels.size == n and text.size == c * d,
             f"{path}: truncated")
    return DatasetPayload(images=images.reshape(n, d_img),
                          labels=labels.astype(np.int64),
                          class_text_feats=text.reshape(c, d))


def read_checkpoint(path) -> list[np.ndarray]:
    """[w1, b1, w2, b2, head_w, head_b] of a DATC file, in binary64."""
    _, _, _, d_img, h, d, c = _header(path, _DATC_HEADER, b"DATC")
    shapes = [(h, d_img), (h,), (d, h), (d,), (c, d), (c,)]
    with open(path, "rb") as fh:
        fh.seek(_DATC_HEADER.size)
        out = []
        for shape in shapes:
            count = math.prod(shape)
            arr = np.frombuffer(fh.read(8 * count), dtype="<f8")
            _require(arr.size == count, f"{path}: truncated")
            out.append(arr.astype(np.float64).reshape(shape))
    return out


# ---------------------------------------------------------------- sampler


def _unit(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@dataclass(frozen=True)
class StageRef:
    """One stage recomputed: each candidate's best column and score, and the
    top k per column under (score desc, id asc)."""

    ids: np.ndarray         # (r,) bank record ids of the candidates
    scores: np.ndarray      # (r, q) cosine scores, float64
    assigned: np.ndarray    # (r,) argmax column
    best: np.ndarray        # (r,) score at the argmax
    k: int
    selected: np.ndarray    # candidate positions kept, by column then rank
    deficits: np.ndarray    # (q,) k minus what each column could get

    @property
    def n_columns(self) -> int:
        return self.scores.shape[1]


def _stage(ids: np.ndarray, scores: np.ndarray, k: int) -> StageRef:
    assigned = np.argmax(scores, axis=1)
    best = scores[np.arange(scores.shape[0]), assigned]
    order = np.lexsort((ids, -best, assigned))
    col_sorted = assigned[order]
    starts = np.searchsorted(col_sorted, np.arange(scores.shape[1]))
    rank = np.arange(order.size) - starts[col_sorted]
    selected = order[rank < k]
    counts = np.bincount(assigned, minlength=scores.shape[1])
    deficits = np.maximum(k - counts, 0)
    return StageRef(ids=ids, scores=scores, assigned=assigned, best=best, k=k,
                    selected=selected, deficits=deficits)


@dataclass(frozen=True)
class SampleRef:
    stage1: StageRef
    stage2: StageRef
    latent_class: np.ndarray
    n_classes: int

    def in_task(self, ids: np.ndarray) -> np.ndarray:
        latent = self.latent_class[ids]
        return (latent >= 0) & (latent < self.n_classes)

    def stage1_precision(self) -> float:
        ids = self.stage1.ids[self.stage1.selected]
        return int(self.in_task(ids).sum()) / ids.size


def sample_reference(bank_path, dataset_path, seed: int) -> SampleRef:
    """Both retrieval stages recomputed with float64 matrix products."""
    from bankadapt.encoder import FrozenEmbedder

    bank = read_bank(bank_path)
    ds = read_dataset(dataset_path)
    m, n, c = bank.feats.shape[0], ds.images.shape[0], ds.n_classes
    unit_feats = _unit(bank.feats)
    k1 = max(1, math.ceil(STAGE1_MULTIPLIER * n / c))
    s1 = _stage(np.arange(m, dtype=np.int64),
                unit_feats @ _unit(ds.class_text_feats).T, k1)
    pool = s1.ids[s1.selected]
    embedder = FrozenEmbedder.from_seed("image", seed, ds.class_text_feats.shape[1],
                                        ds.images.shape[1])
    queries = embedder.embed_rows(np.asarray(ds.images, dtype=np.float64))
    k2 = max(1, math.ceil(STAGE2_KEEP * pool.size / n))
    s2 = _stage(pool, unit_feats[pool] @ queries.T, k2)
    return SampleRef(stage1=s1, stage2=s2, latent_class=bank.latent_class,
                     n_classes=c)


def parse_samples_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["record_id", "assigned_column", "score"],
             f"samples.csv header is {rows[:1]}")
    try:
        ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
        cols = np.array([int(r[1]) for r in rows[1:]], dtype=np.int64)
        scores = np.array([float(r[2]) for r in rows[1:]], dtype=np.float64)
    except (ValueError, IndexError) as exc:
        raise CheckError(f"samples.csv row does not parse: {exc}") from exc
    return ids, cols, scores


def check_stage2_selection(ref: SampleRef, text: str) -> np.ndarray:
    """Check samples.csv against the recomputed stage 2; return its ids."""
    ids, cols, scores = parse_samples_csv(text)
    s2 = ref.stage2
    _require(ids.size > 0, "samples.csv selects nothing")
    _require(np.unique(ids).size == ids.size, "selected ids are not distinct")
    pos_of = {int(rid): p for p, rid in enumerate(s2.ids)}
    missing = [int(r) for r in ids if int(r) not in pos_of]
    _require(not missing, f"record {missing[:1]} is not in the stage-1 label bank")
    pos = np.array([pos_of[int(r)] for r in ids], dtype=np.int64)
    _require(bool(np.all((cols >= 0) & (cols < s2.n_columns))),
             "assigned column out of range")
    own = s2.scores[pos, cols]
    bad = np.flatnonzero(own < s2.best[pos] - SCORE_TOL)
    _require(bad.size == 0,
             f"record {ids[bad[:1]]} is assigned to column {cols[bad[:1]]}, "
             "which is not its argmax")
    off = np.abs(scores - own)
    _require(float(off.max()) <= SCORE_TOL,
             f"reported score off by {float(off.max()):.3e} at record "
             f"{int(ids[np.argmax(off)])}")
    counts = np.bincount(cols, minlength=s2.n_columns)
    short = np.flatnonzero(counts + s2.deficits != s2.k)
    _require(short.size == 0,
             f"column {short[:1]} keeps {counts[short[:1]]} records with deficit "
             f"{s2.deficits[short[:1]]}, expected k = {s2.k}")
    chosen = np.zeros(s2.ids.size, dtype=bool)
    chosen[pos] = True
    kth = np.full(s2.n_columns, np.inf)
    np.minimum.at(kth, cols, scores)
    rest = np.flatnonzero(~chosen)
    beats = rest[s2.best[rest] > kth[s2.assigned[rest]] + SCORE_TOL]
    _require(beats.size == 0,
             f"unselected record {s2.ids[beats[:1]]} beats the k-th selected "
             f"record of column {s2.assigned[beats[:1]]}")
    return ids


def check_sample_report(ref: SampleRef, ids: np.ndarray, precision_text: str,
                        stdout_text: str) -> float:
    """Check precision.txt and the printed counts; return stage-2 precision."""
    values = dict(re.findall(r"^(stage[12]_precision) = (\S+)$", precision_text,
                             flags=re.M))
    _require(set(values) == {"stage1_precision", "stage2_precision"},
             f"precision.txt holds {sorted(values)}")
    s1_ids = ref.stage1.ids[ref.stage1.selected]
    own1 = ref.stage1_precision()
    own2 = int(ref.in_task(ids).sum()) / ids.size
    for name, own in (("stage1_precision", own1), ("stage2_precision", own2)):
        reported = float(values[name])
        _require(reported == own, f"{name} reads {reported}, own count gives {own}")
    share = float(np.mean(ref.latent_class >= 0))
    _require(own1 > share and own2 > share,
             f"precisions {own1}, {own2} do not exceed the in-distribution "
             f"share {share}")
    counts = re.search(r"stage 1 kept (\d+) records \((\d+) short\), "
                       r"stage 2 kept (\d+) \((\d+) short\)", stdout_text)
    _require(counts is not None, "sample printed no selection counts")
    expected = (s1_ids.size, int(ref.stage1.deficits.sum()), ids.size,
                int(ref.stage2.deficits.sum()))
    _require(tuple(int(g) for g in counts.groups()) == expected,
             f"printed counts {counts.groups()} differ from own {expected}")
    return own2


def check_sample_outputs(ref: SampleRef, samples_text: str, precision_text: str,
                         stdout_text: str) -> float:
    ids = check_stage2_selection(ref, samples_text)
    return check_sample_report(ref, ids, precision_text, stdout_text)


# ---------------------------------------------------------------- train


def check_metrics_csv(text: str, n_train: int, batch_size: int, epochs: int,
                      eta: float, lambda_: float) -> float:
    """Check metrics.csv row by row; return the last held-out accuracy."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == METRICS_COLUMNS, f"metrics.csv header is {rows[:1]}")
    per_epoch = math.ceil(n_train / batch_size)
    _require(len(rows) - 1 == epochs * per_epoch,
             f"metrics.csv has {len(rows) - 1} rows, expected "
             f"{epochs} x {per_epoch}")
    acc = None
    for i, row in enumerate(rows[1:]):
        _require(len(row) == len(METRICS_COLUMNS), f"row {i} has {len(row)} cells")
        try:
            step, epoch, n_conf = int(row[0]), int(row[1]), int(row[6])
            loss_x, loss_u, loss_con, total, grad = (float(row[j])
                                                      for j in (2, 3, 4, 5, 7))
        except ValueError as exc:
            raise CheckError(f"metrics.csv row {i} does not parse: {exc}") from exc
        _require(step == i and epoch == i // per_epoch,
                 f"row {i} is step {step} of epoch {epoch}")
        values = (loss_x, loss_u, loss_con, total, grad)
        _require(all(math.isfinite(v) for v in values), f"row {i} is not finite")
        _require(n_conf >= 0, f"row {i} has negative n_confident")
        expected = loss_x + eta * loss_u + lambda_ * loss_con
        _require(math.isclose(total, expected, rel_tol=LOSS_REL_TOL,
                              abs_tol=LOSS_REL_TOL),
                 f"row {i}: loss_total {total!r} != loss_x + eta*loss_u + "
                 f"lambda*loss_con = {expected!r}")
        last_of_epoch = i % per_epoch == per_epoch - 1
        _require((row[8] != "") == last_of_epoch,
                 f"row {i}: acc_eval present = {row[8] != ''}")
        if row[8]:
            acc = float(row[8])
            _require(0.0 <= acc <= 1.0, f"row {i}: accuracy {acc} outside [0, 1]")
    _require(acc is not None, "metrics.csv reports no held-out accuracy")
    return acc


def own_accuracy(checkpoint_path, eval_path) -> tuple[int, int, int]:
    """(hits, ambiguous, n) of the tanh MLP in the checkpoint on eval images;
    a row is ambiguous when its top two logits lie within 1e-9."""
    w1, b1, w2, b2, head_w, head_b = read_checkpoint(checkpoint_path)
    ds = read_dataset(eval_path)
    x = ds.images.astype(np.float64)
    logits = (np.tanh(x @ w1.T + b1) @ w2.T + b2) @ head_w.T + head_b
    top2 = np.sort(logits, axis=1)[:, -2:]
    ambiguous = int(np.sum(top2[:, 1] - top2[:, 0] <= 1e-9))
    hits = int(np.sum(np.argmax(logits, axis=1) == ds.labels))
    return hits, ambiguous, ds.labels.size


def check_train_outputs(metrics_text: str, stdout_text: str, checkpoint_path,
                        eval_path, *, n_train: int, n_classes: int,
                        batch_size: int, epochs: int, eta: float,
                        lambda_: float) -> float:
    """Check one `train` run; return its held-out accuracy."""
    acc = check_metrics_csv(metrics_text, n_train, batch_size, epochs, eta, lambda_)
    hits, ambiguous, n = own_accuracy(checkpoint_path, eval_path)
    reported_hits = round(acc * n)
    _require(reported_hits / n == acc, f"accuracy {acc} is not a count over {n}")
    _require(abs(reported_hits - hits) <= ambiguous,
             f"reported accuracy {acc} but the checkpoint gets {hits}/{n}")
    printed = re.search(r"eval acc (\d\.\d{4})$", stdout_text.strip())
    _require(printed is not None and printed.group(1) == f"{acc:.4f}",
             f"printed accuracy {printed and printed.group(1)} differs from {acc}")
    _require(acc > 1.0 / n_classes, f"accuracy {acc} does not beat chance")
    return acc
