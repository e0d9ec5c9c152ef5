"""In-memory and on-disk containers for the pre-training bank and downstream data.

Three little-endian binary formats, each ending in a CRC32 of the payload;
each is declared once, here, as a ``Layout`` (DATB, DATD and DATC), which
drives its writer, its reader and ``inspect``:

DATB (embedding bank), header 24 bytes::

    magic b"DATB" | version u16 | flags u16 | m u64 | D_img u32 | d u32
    payload:
        images         m*D_img  float32, row-major
        feats          m*d      float32, unit rows
        caption_feats  m*d      float32, unit rows
        latent_class   m        int32  (-1 = unknown / out of distribution)
        caption table: blob_len u64, then m (offset u64, len u64) pairs,
                       then blob_len bytes of UTF-8
    crc32 u32 over the payload bytes

DATD (downstream dataset), header 28 bytes::

    magic b"DATD" | version u16 | flags u16 | n u64 | C u32 | D_img u32 | d u32
    payload:
        images           n*D_img float32
        labels           n       int32 in [0, C), so the same bytes as uint32
        class_text_feats C*d     float32, unit rows
        names table, descriptions table (same layout as the caption table,
        C entries each)
    crc32 u32 over the payload bytes

DATC, the checkpoint of ``encoder.py``, is laid out the same way: four u32
sizes, then six float64 arrays.

Arrays are stored in binary32; training code converts to binary64 at the edge.
Writers validate invariants and refuse to write a violating container, so a
file that decodes cleanly round-trips bit-exactly.

Reading (``read_fields``) streams the payload once, in file order, with
``readinto``, in blocks of whole rows of about ``_BLOCK_BYTES`` (512 KiB).
A field the caller keeps is read straight into its own array; a field it
skips passes through one reusable block buffer and is dropped.  Either way
every block updates the CRC32 and runs the field's checks, so a decode
that keeps only ``feats`` still checks the whole file: every field fits
the file (checked before any buffer is sized from its length) and no byte
follows the last one; every string-table entry lies inside its blob; each
blob is UTF-8 and no non-empty entry starts or ends inside a multi-byte
character, so every entry decodes; and the layout's finite, unit-row and
label-range checks, which ``validate`` runs on a container in memory in
the same blocks.  A block of a unit-row field (``feats``,
``caption_feats``, ``class_text_feats``) is first screened by the sum of
squares of each row, taken in float32: ``_unit_sums`` gives the range
that certifies a row finite and of a norm the unit-row check accepts.
Only a block holding a row the screen cannot certify is copied to
float64 and its row norms taken (``copy_with_norms``), and both of its
checks read them: a norm is finite exactly when its row is, so the
finite check scans the block only when some norm is not.  So every
verdict and message is the float64 checks' own.  For the
character-boundary check a string table marks its blob's continuation
bytes in a zeroed bitmap (blob_len / 8 bytes), written only for the
blocks that hold one, and, when some block did, reads its offset table a
second time; an ASCII blob touches no page of the bitmap and skips that
read.  Errors are raised once the CRC32
over the whole payload has matched, so a ``ChecksumError`` takes
precedence over any other.  Skipped fields come back as ``None``; string
tables come back as ``StringTable``, their offset table and blob held as
arrays and no entry decoded.  A bank's array fields can also be kept at
some rows only (``decode_bank_file(path, fields, rows=ids)``): every block
then passes through the block buffer, as a skipped field's does, and the
rows at ids are copied out of it into the caller's order, so a few
hundred selected rows of a large bank cost their own bytes and one block;
the ids may also be asked for only when the first kept field is reached.
Each block of an array field can be handed to a feed as it is read
(``read_fields``' ``feeds``), once its checks have passed, with the
float32 sums of squares the screen took for a unit-row field, so that a
caller scans the field without holding it or summing its squares again;
a field of no rows is one empty block.  So the sampler's stage 1 scores a bank's
``feats`` and then keeps its ``latent_class`` at the rows it selected
(see ``read_bank``).  A container in memory is read the same way, in the
same blocks; a bank the program made runs no check.  ``read_sizes`` gives
the sizes alone, of a file from its header before any payload byte.
"""

from __future__ import annotations

import codecs
import math
import os
import struct
import zlib
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

FORMAT_VERSION = 1
UNIT_NORM_TOL = 1e-5

# Bytes of a field the reader takes in with one read, and that the checks
# take at a time in memory: a block, whose temporaries stay near a
# megabyte (the float64 copy of a unit-row block that fails the float32
# screen is twice its bytes).  A multiple of 8, so that a blob's
# continuation bitmap is packed block by block.
_BLOCK_BYTES = 1 << 19
# Entries that StringTable.packed lays out by one gather: its int64 byte
# indices then stay near a megabyte for the synthetic captions (about 20
# bytes each).
_GATHER_ROWS = 1 << 13


class FormatError(ValueError):
    """Bad magic, unsupported version, or malformed structure."""


class TruncatedFileError(ValueError):
    """File shorter (or longer) than the header promises."""


class ChecksumError(ValueError):
    """Payload bytes do not match the stored CRC32."""


class ValidationError(ValueError):
    """Container violates a type invariant."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True, eq=False)
class EmbeddingBank:
    """Pre-training records: raw image vectors, frozen features, captions.

    latent_class holds the generating class for synthetic records (-1 when
    unknown or out of distribution); it is ground truth for precision
    reporting only and is never read by the samplers or the trainer.  A
    bank decoded with only some of DATB.names holds None for the others.
    captions are a list of str, which the writer encodes, or a
    StringTable, as decoded and synthetic banks hold them.
    """

    images: np.ndarray | None         # (m, D_img) float32
    feats: np.ndarray | None          # (m, d) float32, unit rows
    caption_feats: np.ndarray | None  # (m, d) float32, unit rows
    captions: list[str] | StringTable | None
    latent_class: np.ndarray | None   # (m,) int32

    @property
    def size(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True, eq=False)
class DownstreamDataset:
    """Labeled downstream task: images, integer labels, per-class text features."""

    images: np.ndarray            # (n, D_img) float32
    labels: np.ndarray            # (n,) int32 in [0, C)
    class_names: list[str] | StringTable
    class_descriptions: list[str] | StringTable
    class_text_feats: np.ndarray  # (C, d) float32, unit rows

    @property
    def size(self) -> int:
        return self.images.shape[0]

    @property
    def n_classes(self) -> int:
        return self.class_text_feats.shape[0]

    @property
    def image_dim(self) -> int:
        return self.images.shape[1]

    @property
    def feat_dim(self) -> int:
        return self.class_text_feats.shape[1]


def copy_with_norms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A new float64 copy of rows, the caller's to divide in place, and the
    Euclidean norm of each row, as the checks and the sampler take it:
    sqrt(einsum("ij,ij->i")) of the copy.  The reader takes it of a block
    only when _unit_sums cannot certify each row, the sampler of its query
    rows and of the rows its float32 screen keeps."""
    rows64 = np.array(rows, dtype=np.float64, order="C")
    return rows64, np.sqrt(np.einsum("ij,ij->i", rows64, rows64))


@cache
def _unit_sums(feat_dim: int) -> tuple[np.float32, np.float32]:
    """The float32 range [lo, hi] inside which a row's sum of squares S,
    taken in float32 in any order, certifies the row finite and of a norm
    that _off_unit accepts (an empty range for rows too wide to bound).

    For a row x of d = feat_dim entries, |S - |x|^2| <= g |x|^2 + e, with
    g = gamma_d = d u / (1 - d u) at u = 2^-24 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1) and e = d 2^-149 for
    the squares that underflow, 2^-150 each at most, and what the later
    sums carry of them.  _off_unit's norm n is the float64 root, rounded
    once, of the float64 sum of squares, within g' |x|^2 + e' of |x|^2
    (gamma_d and d 2^-1074 at 2^-53), and it accepts 1 - tol <= n <=
    1 + tol, where n - 1 is exact.  Solving both bounds for S gives the
    range; it is narrowed by 2^-40 of itself, which covers e, e' and the
    float64 rounding of these few operations, and rounded inward to
    float32.  A finite S also proves the row finite.  (Rows stored in
    float32, as every unit-row field is, square exactly in float64; a row
    in memory of float64 sums its squares in float64, which the float32
    bound covers.)"""
    d, u, w, tol = feat_dim, 2.0 ** -24, 2.0 ** -53, UNIT_NORM_TOL
    if d * u >= 0.5:
        return np.float32(np.inf), np.float32(-np.inf)
    g, g64 = d * u / (1 - d * u), d * w / (1 - d * w)
    lo = (1 - tol) ** 2 / (1 - w) ** 2 * (1 + g) / (1 - g64) * (1 + 2.0 ** -40)
    hi = (1 + tol) ** 2 / (1 + w) ** 2 * (1 - g) / (1 + g64) * (1 - 2.0 ** -40)
    lo32, hi32 = np.float32(lo), np.float32(hi)
    if float(lo32) < lo:
        lo32 = np.nextafter(lo32, np.float32(np.inf))
    if float(hi32) > hi:
        hi32 = np.nextafter(hi32, np.float32(-np.inf))
    return lo32, hi32


# Each check takes (field name, block of rows, index of the block's first
# row, the block's row norms or None) and returns the block's first
# violation, or None.  The norms are given for a field with a unit-row check
# (see _Violations.visit).

def _non_finite(name: str, block: np.ndarray, row0: int,
                norms: np.ndarray | None) -> str | None:
    # A norm is finite exactly when every entry of its row is (a float32
    # squared stays finite in float64), so finite norms spare the scan.
    if norms is not None and np.isfinite(norms).all():
        return None
    finite = np.isfinite(block)
    if finite.all():
        return None
    idx = np.unravel_index(int(np.argmin(finite)), finite.shape)
    idx = (row0 + int(idx[0]),) + tuple(int(i) for i in idx[1:])
    return f"{name} has non-finite value at index {idx}"


def _off_unit(name: str, block: np.ndarray, row0: int,
              norms: np.ndarray | None) -> str | None:
    if norms is None:  # rows of width 0 (see _Violations.visit), of norm 0
        norms = np.zeros(1)
    off = np.abs(norms - 1.0) > UNIT_NORM_TOL
    if not off.any():
        return None
    i = int(np.argmax(off))
    return (f"{name} row {row0 + i} has norm {norms[i]:.8f}, "
            f"expected 1 within {UNIT_NORM_TOL}")


def _label_outside(n_classes: int, name: str, block: np.ndarray,
                   row0: int, norms: np.ndarray | None) -> str | None:
    bad = (block < 0) | (block >= n_classes)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return f"label {int(block[i])} at index {row0 + i} outside [0, {n_classes})"


@dataclass(frozen=True)
class Layout:
    """One container format, declared once for its writer, its reader and
    inspect.  The header is magic, version u16 and flags u16 (version 1
    defines no flag; read_container refuses any set), then the sizes,
    named by sizes in header order.  fields are the payload fields in
    file order, each (name, stored dtype, the names of the sizes that
    shape it), where a dtype of None is a string table of as many entries
    as its one size.  end is what a trailing-bytes error calls the end of
    the payload, and checks(sizes) gives the (check, field) pairs of the
    array checks (see _Violations), in the order their violations are
    reported."""

    magic: bytes
    header: struct.Struct
    sizes: tuple[str, ...]
    fields: tuple[tuple[str, str | None, tuple[str, ...]], ...]
    end: str
    checks: Callable[[dict], tuple] = lambda sizes: ()

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.fields)


DATB = Layout(
    b"DATB", struct.Struct("<4sHHQII"), ("records", "image_dim", "feat_dim"),
    (("images", "<f4", ("records", "image_dim")),
     ("feats", "<f4", ("records", "feat_dim")),
     ("caption_feats", "<f4", ("records", "feat_dim")),
     ("latent_class", "<i4", ("records",)),
     ("captions", None, ("records",))),
    "caption table",
    lambda sizes: ((_non_finite, "images"), (_non_finite, "feats"),
                   (_non_finite, "caption_feats"), (_off_unit, "feats"),
                   (_off_unit, "caption_feats")))
DATD = Layout(
    b"DATD", struct.Struct("<4sHHQIII"),
    ("images", "classes", "image_dim", "feat_dim"),
    (("images", "<f4", ("images", "image_dim")),
     ("labels", "<i4", ("images",)),
     ("class_text_feats", "<f4", ("classes", "feat_dim")),
     ("class_names", None, ("classes",)),
     ("class_descriptions", None, ("classes",))),
    "string tables",
    lambda sizes: ((partial(_label_outside, sizes["classes"]), "labels"),
                   (_non_finite, "images"), (_non_finite, "class_text_feats"),
                   (_off_unit, "class_text_feats")))
DATC = Layout(
    b"DATC", struct.Struct("<4sHHIIII"),
    ("image_dim", "hidden_dim", "feat_dim", "n_classes"),
    (("w1", "<f8", ("hidden_dim", "image_dim")), ("b1", "<f8", ("hidden_dim",)),
     ("w2", "<f8", ("feat_dim", "hidden_dim")), ("b2", "<f8", ("feat_dim",)),
     ("head_w", "<f8", ("n_classes", "feat_dim")), ("head_b", "<f8", ("n_classes",))),
    "weights")


def _blocks(row_bytes: int, rows: int, max_rows: int | None = None):
    """(first row, rows) of each block of whole rows of about _BLOCK_BYTES,
    of at most max_rows rows when that is given; rows of no bytes make one
    block, and so do no rows, an empty one."""
    step = max(1, _BLOCK_BYTES // row_bytes if row_bytes else rows)
    if max_rows and row_bytes:
        step = min(step, max_rows)
    for start in range(0, max(rows, 1), step):
        yield start, min(step, rows - start)


class _Violations:
    """The first violation of each (check, field) pair in checks, found
    piece by piece and reported in the pairs' order, and the first
    ValueError a feed raised (error), held until the read has passed every
    check."""

    def __init__(self, checks):
        self._checks = checks
        self._found: list[str | None] = [None] * len(checks)
        self.error: ValueError | None = None

    def visit(self, name: str, feed=None):
        """visit(piece, index of its first row), running field name's checks
        and then, until a check finds a violation or a feed raises,
        feed(piece, index of its first row, sums).  A piece of a field with
        a unit-row check has its rows' squares summed in its own dtype
        (float32 as stored), and those sums are its feed's; when they lie
        inside _unit_sums every row is finite and unit, and the field's
        checks, the finite and the unit-row one, pass without running.
        Else the piece's copy_with_norms is taken once, for both checks.
        Other fields get None for sums, and so do rows of width 0, which
        are off-unit without their norms (of 2**40 such rows, 8 TiB)."""
        mine = [i for i, (_, field) in enumerate(self._checks) if field == name]
        unit_rows = any(self._checks[i][0] is _off_unit for i in mine)

        def see(piece: np.ndarray, row0: int) -> None:
            sums = norms = None
            certified = False
            if unit_rows and (piece.size or not piece.shape[0]):
                sums = np.einsum("ij,ij->i", piece, piece)
                lo, hi = _unit_sums(piece.shape[1])
                # min and max carry a NaN, which no bound holds
                certified = not sums.size or lo <= sums.min() and sums.max() <= hi
                if not certified:
                    norms = copy_with_norms(piece)[1]
            for i in mine:
                if self._found[i] is None and not certified:
                    self._found[i] = self._checks[i][0](name, piece, row0, norms)
            if feed is not None and self.error is None and not self.report():
                try:
                    feed(piece, row0, sums)
                except ValueError as exc:
                    self.error = exc
        return see

    def report(self) -> list[str]:
        return [v for v in self._found if v is not None]


def _shapes(layout: Layout, container) -> tuple[dict, list[str]]:
    """The sizes of container's fields, in header order, each taken from the
    first field it shapes, and a violation for each field of another
    shape."""
    found, misshapen = {}, []
    for name, dtype, dims in layout.fields:
        value = getattr(container, name)
        shape = (len(value),) if dtype is None else np.shape(value)
        for dim, n in zip(dims, shape):
            found.setdefault(dim, n)
        want = tuple(found.get(dim) for dim in dims)
        if shape != want:
            misshapen.append(f"{name} shape {shape}, expected {want}")
    return {dim: found.get(dim, 0) for dim in layout.sizes}, misshapen


def validate(layout: Layout, container) -> list[str]:
    """Return a list of container's invariant violations (empty when it is
    valid): each field's shape against the sizes, then, when every shape
    fits, the layout's array checks, in the blocks a file is read in."""
    misshapen = _shapes(layout, container)[1]
    if misshapen:
        return misshapen
    try:
        read_fields(layout, container)
    except ValidationError as exc:
        return exc.violations
    return []


def _packed_table(lengths: np.ndarray) -> np.ndarray:
    """The (count, 2) uint64 table of (offset, len) pairs of entries of
    lengths stored one after another from offset 0."""
    table = np.zeros((lengths.size, 2), dtype=np.uint64)
    table[:, 1] = lengths
    np.cumsum(table[:-1, 1], out=table[1:, 0])
    return table


class StringTable:
    """Strings held as arrays, never decoded: the (count, 2) table of
    (offset, len) pairs and the UTF-8 blob, as a decoded container's string
    tables and a synthetic bank's captions hold them, for the writer to
    store again.
    """

    __slots__ = ("_table", "_blob")

    def __init__(self, table: np.ndarray, blob: np.ndarray):
        self._table = table
        self._blob = blob

    @classmethod
    def of(cls, strings: Sequence[str], index: np.ndarray | None = None) -> StringTable:
        """The strings, or with index the strings[i] for i in index: each
        string is encoded once, into one blob, and the entries of an index
        point into it, overlapping where index repeats a string, so no
        entry's bytes are copied until packed() lays them out."""
        words = [s.encode("utf-8") for s in strings]
        table = _packed_table(np.fromiter(map(len, words), np.uint64, len(words)))
        return cls(table if index is None else table[index],
                   np.frombuffer(b"".join(words), np.uint8))

    def packed(self) -> Iterator:
        """The buffers a container stores of the strings, in order: blob_len,
        the (offset, len) table with each entry's bytes right after the
        previous entry's, and those bytes.  The last two come _GATHER_ROWS
        entries at a time, so that a gather's int64 byte indices are a
        block's only, and no buffer holds the whole table or blob."""
        lengths = self._table[:, 1]
        starts = range(0, len(lengths), _GATHER_ROWS)

        def tables():
            at = np.uint64(0)
            for start in starts:
                table = _packed_table(lengths[start:start + _GATHER_ROWS])
                table[:, 0] += at
                at = table[-1].sum()
                yield table

        yield struct.pack("<Q", int(lengths.sum()))
        yield from (np.ascontiguousarray(table, "<u8") for table in tables())
        for start, table in zip(starts, tables()):
            old = self._table[start:start + _GATHER_ROWS].astype(np.int64)
            at = table[:, 0].astype(np.int64)
            # byte j of an entry packed at at[e] is old byte j + old[e, 0] - at[e]
            index = np.repeat(old[:, 0] - at, old[:, 1])
            index += np.arange(at[0], at[-1] + old[-1, 1])
            yield self._blob[index]

    def __len__(self) -> int:
        return self._table.shape[0]


def _fill(fh, view: memoryview, what: str) -> None:
    """Read exactly len(view) bytes into view."""
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            raise TruncatedFileError(f"file ended while reading {what}")
        got += n


def _first_split(entries: np.ndarray, continuation: np.ndarray,
                 limit: np.uint64) -> int | None:
    """The first non-empty entry that starts or ends on a continuation byte
    (its bit set in the packed bitmap); every entry lies inside the blob."""
    off, ln = entries[:, 0], entries[:, 1]
    split = np.zeros(len(off), dtype=bool)
    for pos in (off, off + ln):
        inside = (ln > 0) & (pos < limit)
        p = pos[inside]
        split[inside] |= ((continuation[p >> 3] >> (7 - (p & 7))) & 1).astype(bool)
    return int(np.argmax(split)) if split.any() else None


class _PayloadReader:
    """The payload fields of one open container, read once in file order.

    Every byte goes through the CRC32 and the visit of its field.  A
    structural error is raised as soon as it is found, and the checks'
    violations by finish, but each only once the CRC32 over the whole
    payload has matched.
    """

    def __init__(self, fh, file_size: int, pos: int):
        self._fh = fh
        self._file_size = file_size
        self._pos = pos
        self._end = file_size - 4  # the stored crc32 follows the payload
        self._crc = 0
        self._block = np.empty(0, np.uint8)

    def _buffer(self, nbytes: int) -> np.ndarray:
        """The reusable block buffer; it outgrows _BLOCK_BYTES only for a
        row longer than that."""
        if self._block.size < nbytes:
            self._block = np.empty(max(nbytes, _BLOCK_BYTES), np.uint8)
        return self._block[:nbytes]

    def _consume(self, dst: np.ndarray, what: str) -> None:
        """Fill the contiguous array dst from the file and fold it into the CRC32."""
        if dst.nbytes == 0:
            return
        view = memoryview(dst).cast("B")
        _fill(self._fh, view, what)
        self._crc = zlib.crc32(view, self._crc)
        self._pos += dst.nbytes

    def _fail(self, error: Exception):
        """Raise error once the rest of the payload has matched its CRC32."""
        while self._pos < self._end:
            self._consume(self._buffer(min(_BLOCK_BYTES, self._end - self._pos)),
                          "the payload")
        self._check_crc()
        raise error

    def _check_crc(self) -> None:
        stored = bytearray(4)
        _fill(self._fh, memoryview(stored), "the crc32")
        (stored_crc,) = struct.unpack("<I", stored)
        actual_crc = self._crc & 0xFFFFFFFF
        if stored_crc != actual_crc:
            raise ChecksumError(
                f"payload crc32 {actual_crc:#010x} does not match stored {stored_crc:#010x}")

    def _expect(self, what: str, nbytes: int) -> None:
        """Fail unless the payload holds nbytes more."""
        if self._pos + nbytes > self._end:
            self._fail(TruncatedFileError(
                f"truncated while reading {what}: expected "
                f"{self._pos + nbytes + 4} bytes, file has {self._file_size}"))

    def array(self, what: str, shape: tuple, dtype, keep: bool = True,
              visit=None, ids: np.ndarray | None = None,
              max_rows: int | None = None) -> np.ndarray | None:
        """The next field, shape items of dtype stored little-endian: an
        array when keep is true, else None; with ids (int64 row indices),
        only the rows at ids, in ids' order, where an id outside the field
        leaves its row unset (read_fields refuses it).  Each block of it (see
        _blocks) goes through visit(block, index of its first row)."""
        stored = np.dtype(dtype).newbyteorder("<")
        rows, row_shape = shape[0], tuple(shape[1:])
        row_bytes = math.prod(row_shape) * stored.itemsize
        self._expect(what, rows * row_bytes)
        out = order = None
        if keep and ids is not None:
            # the rows at ids in ascending order, so each block finds its own
            # by one search; order maps them back to the caller's positions
            order = np.argsort(ids, kind="stable")
            at = ids[order]
            out = np.empty((ids.size,) + row_shape, stored)
        elif keep:
            out = np.empty(shape, stored)
        for start, n in _blocks(row_bytes, rows, max_rows):
            if out is None or order is not None:
                block = self._buffer(n * row_bytes).view(stored).reshape((n,) + row_shape)
            else:
                block = out[start:start + n]
            self._consume(block, what)
            if order is not None:
                lo, hi = np.searchsorted(at, (start, start + n))
                out[order[lo:hi]] = block[at[lo:hi] - start]
            if visit is not None:
                visit(block, start)
        return None if out is None else out.astype(stored.newbyteorder("="), copy=False)

    def table(self, what: str, count: int, keep: bool = True) -> StringTable | None:
        """The next string table, checked entry by entry (see the module
        docstring): a StringTable when keep is true, else None."""
        blob_len = int(self.array(f"{what} blob length", (1,), np.uint64)[0])
        limit = np.uint64(blob_len)
        table_at = self._pos
        outside = None

        def bounds(entries, row0):
            nonlocal outside
            if outside is None:
                off, ln = entries[:, 0], entries[:, 1]
                # ln > blob_len - off, without the wrap-around when off > blob_len
                bad = (off > limit) | (ln > limit - np.minimum(off, limit))
                if bad.any():
                    outside = row0 + int(np.argmax(bad))

        table = self.array(f"{what} offset table", (count, 2), np.uint64, keep,
                           bounds)
        # the bitmap is sized from blob_len, so blob_len must fit the file first
        self._expect(f"{what} blob", blob_len)
        # zeroed pages are mapped only once written, so the bits of a block
        # without a continuation byte cost no memory
        continuation = np.zeros(-(-blob_len // 8), np.uint8)
        seen_continuation = False
        decoder = codecs.getincrementaldecoder("utf-8")()
        not_utf8 = None

        def utf8(chunk, row0):
            nonlocal not_utf8, seen_continuation
            stop = row0 + chunk.size
            # continuation bytes, 0x80 to 0xBF, are the int8 values below -64
            inner = chunk.view(np.int8) < -64
            if inner.any():
                seen_continuation = True
                continuation[row0 // 8:-(-stop // 8)] = np.packbits(inner)
            if not_utf8 is None:
                try:
                    decoder.decode(memoryview(chunk), final=stop == blob_len)
                except UnicodeDecodeError as exc:
                    not_utf8 = exc.reason

        blob = self.array(f"{what} blob", (blob_len,), np.uint8, keep, utf8)
        # The entries before the first one outside the blob, against the
        # bitmap: from memory when kept, else read again from the file
        # (their bytes are already in the CRC32).  A blob without a
        # continuation byte splits no character.
        checked = 0
        if seen_continuation:
            checked = count if outside is None else outside
        split = None
        reread = table is None and checked > 0
        if reread:
            self._fh.seek(table_at)
        for start, n in _blocks(16, checked) if checked else ():
            if table is None:
                entries = self._buffer(16 * n).view("<u8").reshape(n, 2)
                _fill(self._fh, memoryview(entries).cast("B"), f"{what} offset table")
            else:
                entries = table[start:start + n]
            split = _first_split(entries, continuation, limit)
            if split is not None:
                split += start
                break
        if reread:
            self._fh.seek(self._pos)
        if split is not None:
            self._fail(FormatError(
                f"{what} entry {split} splits a multi-byte UTF-8 character"))
        if outside is not None:
            self._fail(FormatError(f"{what} entry {outside} points outside the blob"))
        if not_utf8 is not None:
            self._fail(FormatError(f"{what} blob is not valid UTF-8: {not_utf8}"))
        return None if table is None else StringTable(table, blob)

    def finish(self, what: str, violations: Sequence[str] = ()) -> None:
        """Check that the payload ends here and matches its CRC32, then raise
        violations, if any."""
        if self._pos != self._end:
            self._fail(FormatError(
                f"{self._end - self._pos} trailing bytes after the {what}"))
        self._check_crc()
        if violations:
            raise ValidationError(list(violations))


def write_container(path, header: bytes, parts) -> None:
    """Write header, payload parts (contiguous buffers, bytes or arrays, of
    any size) and the payload's crc32."""
    crc = 0
    with open(path, "wb") as fh:
        fh.write(header)
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def write_file(path, layout: Layout, container) -> None:
    """Write container in layout, refused with its violations unless valid."""
    violations = validate(layout, container)
    if violations:
        raise ValidationError(violations)

    def parts():
        # one at a time: a string table's blocks are packed as they are written
        for name, dtype, _ in layout.fields:
            value = getattr(container, name)
            if dtype:
                yield np.ascontiguousarray(value, dtype)
            else:
                yield from (value if isinstance(value, StringTable)
                            else StringTable.of(value)).packed()

    sizes = _shapes(layout, container)[0].values()
    write_container(path, layout.header.pack(layout.magic, FORMAT_VERSION, 0, *sizes),
                    parts())


@contextmanager
def read_container(path, layout: Layout):
    """Open a container file of layout and check its size, magic, version
    and flags (version 1 defines no flag, so any set one is refused).

    Yields its header's sizes, by name, and a reader at the start of the
    payload; the caller reads every field in order and then calls its
    finish."""
    header = layout.header
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < header.size + 4:
            raise TruncatedFileError(
                f"expected at least {header.size + 4} bytes, file has {size}")
        head = bytearray(header.size)
        _fill(fh, memoryview(head), "the header")
        magic, version, flags, *sizes = header.unpack(head)
        if magic != layout.magic:
            raise FormatError(f"bad magic {magic!r}, expected {layout.magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}, expected {FORMAT_VERSION}")
        if flags:
            raise FormatError(f"unknown header flags {flags:#06x}: version "
                              f"{FORMAT_VERSION} defines none")
        yield dict(zip(layout.sizes, sizes)), _PayloadReader(fh, size, header.size)


def _refuse_outside(ids: np.ndarray, m: int) -> None:
    """Refuse int64 record ids unless each lies inside a bank of m records,
    naming the first that does not."""
    bad = np.flatnonzero((ids < 0) | (ids >= m))
    if bad.size:
        raise ValidationError([f"selected record id {int(ids[bad[0]])} is "
                               f"outside the bank's {m} records"])


class _InMemory(nullcontext):
    """A container of layout in memory, opened and read as read_container and
    _PayloadReader open and read its file, in the same blocks."""

    def __init__(self, layout: Layout, container):
        super().__init__((_shapes(layout, container)[0], self))
        self._container = container

    def array(self, what, shape, dtype, keep, visit, ids, max_rows):
        field = getattr(self._container, what)
        row_bytes = math.prod(shape[1:]) * np.dtype(dtype).itemsize
        for start, n in _blocks(row_bytes, shape[0], max_rows):
            visit(field[start:start + n], start)
        if not keep or ids is None:
            return field if keep else None
        _refuse_outside(ids, shape[0])  # before the gather, which needs it
        return field[ids]

    def table(self, what, count, keep):
        return getattr(self._container, what) if keep else None

    def finish(self, what, violations):
        if violations:
            raise ValidationError(list(violations))


def _opened(layout: Layout, source):
    """source, a file of layout or a container of layout in memory, opened
    as read_container opens a file: its sizes and a reader of its payload."""
    return (read_container(source, layout) if isinstance(source, (str, os.PathLike))
            else _InMemory(layout, source))


def read_sizes(layout: Layout, source) -> dict:
    """The sizes of source, a file of layout or a container of layout in
    memory, by name: a file's header, after read_container's checks, with
    no byte of its payload read."""
    with _opened(layout, source) as (sizes, _):
        return sizes


def read_fields(layout: Layout, source, keep: Sequence[str] = (), checked=True,
                feeds=None, ids=None, max_rows=None) -> tuple[dict, dict]:
    """The fields of source, a file of layout or a container of layout in
    memory, that keep names (the others None), and its header's sizes, both
    by name, after every check of the layout, unless checked is false.

    feeds maps a field to its feed, which gets each block of the field
    once its checks have passed (see _Violations.visit); a ValueError a
    feed raises is raised once source has passed every check.  max_rows
    maps a field to the most rows a block of it holds.  With ids (int64
    indices of the rows the header's first size counts, or a function that
    returns them, called once, when the first kept array field is
    reached), a kept array field holds only the rows at ids, and an id
    outside is refused once source has passed every check."""
    feeds, max_rows = feeds or {}, max_rows or {}
    with _opened(layout, source) as (sizes, rd):
        found = _Violations(layout.checks(sizes) if checked else ())
        kept = {}
        for name, dtype, dims in layout.fields:
            shape = tuple(sizes[dim] for dim in dims)
            if dtype is None:
                kept[name] = rd.table(name, shape[0], name in keep)
                continue
            if callable(ids) and name in keep:
                ids = np.asarray(ids(), dtype=np.int64)
            kept[name] = rd.array(name, shape, dtype, name in keep,
                                  found.visit(name, feeds.get(name)), ids,
                                  max_rows.get(name))
        rd.finish(layout.end, found.report())
    if found.error is not None:
        raise found.error
    if ids is not None and not callable(ids):
        _refuse_outside(ids, sizes[layout.sizes[0]])
    return kept, sizes


def encode_bank_file(bank: EmbeddingBank, path) -> None:
    write_file(path, DATB, bank)


def read_bank(source, fields: Sequence[str] = DATB.names, feats_to=None,
              rows=None, feed_rows=None) -> tuple[EmbeddingBank, dict, bool]:
    """The bank keeping fields, its header's sizes, and whether any record
    has a latent class, from source: a DATB path, or an EmbeddingBank, read
    the same way but not checked (see the module docstring).

    With rows (record ids, or a function that returns them, called once,
    when the first kept field is reached), each kept field holds only the
    rows at rows, in rows' order; the others still go through every check.
    An id outside the bank is refused, from a file once the whole file has
    passed them.  captions cannot be kept by rows.

    feats_to is the feed of feats (see read_fields): it gets each piece of
    feats as (rows, index of its first row, sums), where sums are the
    float32 sums of squares of its rows that the checks' screen took from
    a file, the feed's to overwrite, and None from a bank in memory.  A
    piece is a block of the read, of at most feed_rows rows when that is
    given; an empty bank's feats is one empty (0, d) piece."""
    unknown = sorted(set(fields) - set(DATB.names))
    if unknown:
        raise ValueError(f"unknown bank fields {unknown}, expected some of {DATB.names}")
    if rows is not None and "captions" in fields:
        raise ValueError("captions cannot be kept by rows")
    ids = rows if rows is None or callable(rows) else np.asarray(rows, dtype=np.int64)
    known = []  # whether each block of latent_class holds a latent class
    feeds = {"feats": feats_to,
             "latent_class": lambda classes, *_: known.append((classes >= 0).any())}
    # a bank the program made is valid, so it runs no check
    kept, sizes = read_fields(DATB, source, fields,
                              not isinstance(source, EmbeddingBank), feeds, ids,
                              {"feats": feed_rows})
    return EmbeddingBank(**kept), sizes, any(known)


def decode_bank_file(source, fields: Sequence[str] = DATB.names,
                     rows=None) -> EmbeddingBank:
    """The bank read_bank reads from source, a DATB path or an EmbeddingBank,
    keeping only the named DATB.names (the others are None), and of those,
    with rows (record ids), only the rows at rows, in rows' order."""
    return read_bank(source, fields, rows=rows)[0]


def encode_dataset_file(ds: DownstreamDataset, path) -> None:
    write_file(path, DATD, ds)


def decode_dataset_file(path) -> DownstreamDataset:
    return DownstreamDataset(**read_fields(DATD, path, DATD.names)[0])
