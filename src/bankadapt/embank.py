"""In-memory and on-disk containers for the pre-training bank and downstream data.

Two little-endian binary formats, both ending in a CRC32 of the payload:

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
        labels           n       uint32
        class_text_feats C*d     float32, unit rows
        names table, descriptions table (same layout as the caption table,
        C entries each)
    crc32 u32 over the payload bytes

Arrays are stored in binary32; training code converts to binary64 at the edge.
Writers validate invariants and refuse to write a violating container, so a
file that decodes cleanly round-trips bit-exactly.

Reading (``read_container``, shared with the DATC checkpoint in
``encoder.py``) streams the payload once, in file order, with ``readinto``.
A field the caller keeps is read straight into its own array; a field it
skips passes through one reusable block buffer of ``_BLOCK_BYTES`` and is
dropped.  Either way every block updates the CRC32 and runs the field's
checks, so a decode that keeps only ``feats`` still checks the whole file:
every field fits the file (checked before any buffer is sized from its
length) and no byte follows the last one; every string-table entry lies
inside its blob; each blob is UTF-8 and no non-empty entry starts or ends
inside a multi-byte character, so every entry decodes; and the finite,
unit-row and label-range invariants of ``validate_bank``/
``validate_dataset``.  For the character-boundary check a string table
keeps a bitmap of its blob's continuation bytes (blob_len / 8 bytes) and
reads its offset table a second time.  Errors are raised once the CRC32
over the whole payload has matched, so a ``ChecksumError`` takes
precedence over any other.  Skipped fields come back as ``None``; string
tables come back as ``StringTable``, which decodes an entry only when it
is read.  A bank's ``feats`` can also be handed to a consumer piece by
piece as it is read, each piece once its checks have passed, so that a
caller can scan the field without holding it (see ``decode_bank_file``).
"""

from __future__ import annotations

import codecs
import math
import os
import struct
import zlib
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

FORMAT_VERSION = 1
UNIT_NORM_TOL = 1e-5

_BANK_MAGIC = b"DATB"
_DATASET_MAGIC = b"DATD"
_BANK_HEADER = struct.Struct("<4sHHQII")
_DATASET_HEADER = struct.Struct("<4sHHQIII")
# Bytes of a field the reader takes in with one read, and bytes the checks
# take at a time, in memory and while reading, so that their temporaries
# stay near a megabyte; both multiples of 8, so that a blob's continuation
# bitmap is packed piece by piece.  The block buffer of skipped fields is
# freed when the decode ends, and glibc then raises its dynamic mmap and
# trim thresholds to its size: at 4 MiB the n x n temporaries of each
# training step stay in the heap instead of being mapped and faulted in
# anew (train-full: 7,000 minor page faults against 39,000 with 1 MiB
# blocks, and about 12% less time).
_BLOCK_BYTES = 1 << 22
_CHECK_BYTES = 1 << 20

BANK_FIELDS = ("images", "feats", "caption_feats", "latent_class", "captions")


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
    bank decoded with only some of BANK_FIELDS holds None for the others.
    captions may be a list or a StringTable; decoded and synthetic banks
    hold a StringTable.
    """

    images: np.ndarray | None         # (m, D_img) float32
    feats: np.ndarray | None          # (m, d) float32, unit rows
    caption_feats: np.ndarray | None  # (m, d) float32, unit rows
    captions: Sequence[str] | None
    latent_class: np.ndarray | None   # (m,) int32

    @property
    def size(self) -> int:
        return self.images.shape[0]

    @property
    def image_dim(self) -> int:
        return self.images.shape[1]

    @property
    def feat_dim(self) -> int:
        return self.feats.shape[1]


@dataclass(frozen=True, eq=False)
class DownstreamDataset:
    """Labeled downstream task: images, integer labels, per-class text features."""

    images: np.ndarray            # (n, D_img) float32
    labels: np.ndarray            # (n,) int32 in [0, C)
    class_names: Sequence[str]
    class_descriptions: Sequence[str]
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


# Each check takes (field name, block of rows, index of the block's first
# row) and returns the block's first violation, or None.

def _non_finite(name: str, block: np.ndarray, row0: int) -> str | None:
    finite = np.isfinite(block)
    if finite.all():
        return None
    idx = np.unravel_index(int(np.argmin(finite)), finite.shape)
    idx = (row0 + int(idx[0]),) + tuple(int(i) for i in idx[1:])
    return f"{name} has non-finite value at index {idx}"


def _off_unit(name: str, block: np.ndarray, row0: int) -> str | None:
    if block.size == 0:
        return None
    # np.linalg.norm(x, axis=1) is sqrt(add.reduce(x * x, axis=1)); the
    # squares are taken in place so the float64 copy is the only temporary
    squares = block.astype(np.float64)
    np.multiply(squares, squares, out=squares)
    norms = np.sqrt(np.add.reduce(squares, axis=1))
    off = np.abs(norms - 1.0) > UNIT_NORM_TOL
    if not off.any():
        return None
    i = int(np.argmax(off))
    return (f"{name} row {row0 + i} has norm {norms[i]:.8f}, "
            f"expected 1 within {UNIT_NORM_TOL}")


def _label_outside(n_classes: int, name: str, block: np.ndarray,
                   row0: int) -> str | None:
    bad = (block < 0) | (block >= n_classes)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return f"label {int(block[i])} at index {row0 + i} outside [0, {n_classes})"


# (check, field) pairs, in the order their violations are reported.
_BANK_CHECKS = ((_non_finite, "images"), (_non_finite, "feats"),
                (_non_finite, "caption_feats"), (_off_unit, "feats"),
                (_off_unit, "caption_feats"))


def _dataset_checks(n_classes: int) -> tuple:
    return ((partial(_label_outside, n_classes), "labels"),
            (_non_finite, "images"), (_non_finite, "class_text_feats"),
            (_off_unit, "class_text_feats"))


def _pieces(arr: np.ndarray):
    """arr in pieces of whole rows of about _CHECK_BYTES, each with the
    index of its first row; rows of no bytes come in one piece."""
    row_bytes = arr[:1].nbytes
    rows = max(1, _CHECK_BYTES // row_bytes if row_bytes else arr.shape[0])
    for start in range(0, arr.shape[0], rows):
        yield arr[start:start + rows], start


class _Violations:
    """The first violation of each (check, field) pair in checks, found
    piece by piece and reported in the pairs' order."""

    def __init__(self, checks):
        self._checks = checks
        self._found: list[str | None] = [None] * len(checks)

    def visit(self, name: str):
        """visit(piece, index of its first row), running field name's checks."""
        mine = [i for i, (_, field) in enumerate(self._checks) if field == name]

        def see(piece: np.ndarray, row0: int) -> None:
            for i in mine:
                if self._found[i] is None:
                    self._found[i] = self._checks[i][0](name, piece, row0)
        return see

    def report(self) -> list[str]:
        return [v for v in self._found if v is not None]


def _check_arrays(checks, container) -> list[str]:
    """The violations of checks over the container's arrays in memory."""
    found = _Violations(checks)
    for name in dict.fromkeys(field for _, field in checks):
        see = found.visit(name)
        for piece, row0 in _pieces(getattr(container, name)):
            see(piece, row0)
    return found.report()


def validate_bank(bank: EmbeddingBank) -> list[str]:
    """Return a list of invariant violations (empty when the bank is valid)."""
    v: list[str] = []
    m = bank.images.shape[0]
    if bank.images.ndim != 2 or bank.feats.ndim != 2 or bank.caption_feats.ndim != 2:
        v.append("images, feats and caption_feats must be 2-d arrays")
        return v
    if bank.feats.shape[0] != m or bank.caption_feats.shape[0] != m:
        v.append(f"row counts disagree: images {m}, feats {bank.feats.shape[0]}, "
                 f"caption_feats {bank.caption_feats.shape[0]}")
    if bank.caption_feats.shape[1] != bank.feats.shape[1]:
        v.append("feats and caption_feats must share the feature dimension")
    if len(bank.captions) != m:
        v.append(f"expected {m} captions, got {len(bank.captions)}")
    if bank.latent_class.shape != (m,):
        v.append(f"latent_class shape {bank.latent_class.shape}, expected ({m},)")
    return v + _check_arrays(_BANK_CHECKS, bank)


def validate_dataset(ds: DownstreamDataset) -> list[str]:
    v: list[str] = []
    n = ds.images.shape[0]
    C = ds.class_text_feats.shape[0]
    if ds.labels.shape != (n,):
        v.append(f"labels shape {ds.labels.shape}, expected ({n},)")
        return v
    if len(ds.class_names) != C or len(ds.class_descriptions) != C:
        v.append(f"expected {C} class names and descriptions, got "
                 f"{len(ds.class_names)} and {len(ds.class_descriptions)}")
    return v + _check_arrays(_dataset_checks(C), ds)


def _packed_table(lengths: np.ndarray) -> np.ndarray:
    """The (count, 2) uint64 table of (offset, len) pairs of entries of
    lengths stored one after another from offset 0."""
    table = np.zeros((lengths.size, 2), dtype=np.uint64)
    table[:, 1] = lengths
    np.cumsum(table[:-1, 1], out=table[1:, 0])
    return table


def _encode_string_table(strings: Sequence[str]) -> list:
    """The string table of strings as the buffers to write, in order:
    blob_len, the (offset, len) table, and the blob holding the entries'
    bytes one after another.  A StringTable is written from its arrays (see
    StringTable.packed) without decoding an entry."""
    if isinstance(strings, StringTable):
        table, blob = strings.packed()
    else:
        blobs = [s.encode("utf-8") for s in strings]
        table = _packed_table(np.fromiter(map(len, blobs), np.uint64, len(blobs)))
        blob = b"".join(blobs)
    return [struct.pack("<Q", len(blob)), np.ascontiguousarray(table, "<u8"), blob]


class StringTable(Sequence):
    """Read-only strings held as arrays, each decoded when read.

    Holds the (count, 2) table of (offset, len) pairs and the UTF-8 blob as
    arrays, as a decoded container's string tables and a synthetic bank's
    captions do.  Compares equal to a list of the same strings.
    """

    __slots__ = ("_table", "_blob")

    def __init__(self, table: np.ndarray, blob: np.ndarray):
        self._table = table
        self._blob = blob

    @classmethod
    def gathered(cls, vocabulary: Sequence[str], index: np.ndarray) -> StringTable:
        """The strings vocabulary[i] for i in index, packed, made without a
        string per entry: the vocabulary's bytes, padded to one width, are
        gathered by index and the padding masked out."""
        words = [w.encode("utf-8") for w in vocabulary]
        lengths = np.array([len(w) for w in words], dtype=np.int64)
        padded = np.zeros((len(words), int(lengths.max(initial=0))), np.uint8)
        for row, w in zip(padded, words):
            row[:len(w)] = np.frombuffer(w, np.uint8)
        used = np.arange(padded.shape[1]) < lengths[:, None]
        return cls(_packed_table(lengths[index]), padded[index][used[index]])

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """The table and blob with each entry's bytes right after the
        previous entry's, and no other bytes: these arrays when they are so
        already, else a copy repacked by one gather."""
        lengths = self._table[:, 1].astype(np.int64)
        table = _packed_table(lengths)
        if self._blob.size == lengths.sum() and np.array_equal(table, self._table):
            return self._table, self._blob
        shift = self._table[:, 0].astype(np.int64) - table[:, 0].astype(np.int64)
        return table, self._blob[np.repeat(shift, lengths) + np.arange(lengths.sum())]

    def __len__(self) -> int:
        return self._table.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        off, ln = (int(v) for v in self._table[i])
        return self._blob[off:off + ln].tobytes().decode("utf-8")

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, StringTable)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented


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
    structural error is raised as soon as it is found, and the visits'
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
              visit=None) -> np.ndarray | None:
        """The next field, shape items of dtype stored little-endian: an
        array when keep is true, else None.  Each piece of it (see
        _pieces) goes through visit(piece, index of its first row)."""
        stored = np.dtype(dtype).newbyteorder("<")
        rows, row_shape = shape[0], tuple(shape[1:])
        row_bytes = math.prod(row_shape) * stored.itemsize
        self._expect(what, rows * row_bytes)
        out = np.empty(shape, stored) if keep else None
        step = max(1, _BLOCK_BYTES // row_bytes if row_bytes else rows)
        for start in range(0, rows, step):
            n = min(step, rows - start)
            if out is None:
                block = self._buffer(n * row_bytes).view(stored).reshape((n,) + row_shape)
            else:
                block = out[start:start + n]
            self._consume(block, what)
            if visit is not None:
                for piece, at in _pieces(block):
                    visit(piece, start + at)
        return None if out is None else out.astype(dtype, copy=False)

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
        continuation = np.empty(-(-blob_len // 8), np.uint8)
        decoder = codecs.getincrementaldecoder("utf-8")()
        not_utf8 = None

        def utf8(chunk, row0):
            nonlocal not_utf8
            stop = row0 + chunk.size
            # continuation bytes, 0x80 to 0xBF, are the int8 values below -64
            continuation[row0 // 8:-(-stop // 8)] = np.packbits(chunk.view(np.int8) < -64)
            if not_utf8 is None:
                try:
                    decoder.decode(memoryview(chunk), final=stop == blob_len)
                except UnicodeDecodeError as exc:
                    not_utf8 = exc.reason

        blob = self.array(f"{what} blob", (blob_len,), np.uint8, keep, utf8)
        # The entries before the first one outside the blob, against the
        # bitmap: from memory when kept, else read again from the file
        # (their bytes are already in the CRC32).
        checked = count if outside is None else outside
        step = max(1, _CHECK_BYTES // 16)
        split = None
        if table is None:
            self._fh.seek(table_at)
        for start in range(0, checked, step):
            n = min(step, checked - start)
            if table is None:
                entries = self._buffer(16 * n).view("<u8").reshape(n, 2)
                _fill(self._fh, memoryview(entries).cast("B"), f"{what} offset table")
            else:
                entries = table[start:start + n]
            split = _first_split(entries, continuation, limit)
            if split is not None:
                split += start
                break
        if table is None:
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


def _f32_rows(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype="<f4")


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


@contextmanager
def read_container(path, magic: bytes, header: struct.Struct,
                   version: int = FORMAT_VERSION):
    """Open a container and check its size, magic and version.

    Yields the header fields and a reader at the start of the payload; the
    caller reads every field in order and then calls its finish."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < header.size + 4:
            raise TruncatedFileError(
                f"expected at least {header.size + 4} bytes, file has {size}")
        head = bytearray(header.size)
        _fill(fh, memoryview(head), "the header")
        fields = header.unpack(head)
        if fields[0] != magic:
            raise FormatError(f"bad magic {fields[0]!r}, expected {magic!r}")
        if fields[1] != version:
            raise FormatError(f"unsupported version {fields[1]}, expected {version}")
        yield fields, _PayloadReader(fh, size, header.size)


def encode_bank_file(bank: EmbeddingBank, path) -> None:
    violations = validate_bank(bank)
    if violations:
        raise ValidationError(violations)
    m, d_img, d = bank.size, bank.image_dim, bank.feat_dim
    write_container(path, _BANK_HEADER.pack(_BANK_MAGIC, FORMAT_VERSION, 0, m, d_img, d), [
        _f32_rows(bank.images),
        _f32_rows(bank.feats),
        _f32_rows(bank.caption_feats),
        np.ascontiguousarray(bank.latent_class, dtype="<i4"),
        *_encode_string_table(bank.captions),
    ])


def _read_bank(path, fields: Sequence[str], feats_to=None
               ) -> tuple[EmbeddingBank, tuple, bool]:
    """The bank keeping fields, its header's (m, D_img, d), and whether any
    record has a latent class.  With feats_to, each piece of feats goes to
    feats_to(rows, index of its first row) once its checks have run, until
    a check finds a violation; a ValueError feats_to raises stops the
    feeding and is raised once the whole file has passed every check.  An
    empty bank's feats is fed as one empty (0, d) piece, so that feats_to
    sees the header's width either way."""
    unknown = sorted(set(fields) - set(BANK_FIELDS))
    if unknown:
        raise ValueError(f"unknown bank fields {unknown}, expected some of {BANK_FIELDS}")
    with read_container(path, _BANK_MAGIC, _BANK_HEADER) as (header, rd):
        _, _, _, m, d_img, d = header
        found = _Violations(_BANK_CHECKS)
        visits = {name: found.visit(name)
                  for name in ("images", "feats", "caption_feats")}
        feed_error = None
        if feats_to is not None:
            check_feats = visits["feats"]

            def feed(piece, row0):
                nonlocal feed_error
                check_feats(piece, row0)
                if feed_error is None and not found.report():
                    try:
                        feats_to(piece, row0)
                    except ValueError as exc:
                        feed_error = exc
            visits["feats"] = feed
        kept = {name: rd.array(name, (m, width), np.float32, name in fields,
                               visits[name])
                for name, width in (("images", d_img), ("feats", d),
                                    ("caption_feats", d))}
        if feats_to is not None and m == 0:
            feed(np.zeros((0, d), np.float32), 0)
        with_latent = False

        def see_latent(piece, row0):
            nonlocal with_latent
            with_latent = with_latent or bool((piece >= 0).any())

        kept["latent_class"] = rd.array("latent_class", (m,), np.int32,
                                        "latent_class" in fields, see_latent)
        kept["captions"] = rd.table("captions", m, "captions" in fields)
        rd.finish("caption table", found.report())
    if feed_error is not None:
        raise feed_error
    return EmbeddingBank(**kept), (m, d_img, d), with_latent


def decode_bank_file(path, fields: Sequence[str] = BANK_FIELDS,
                     feats_to=None) -> EmbeddingBank:
    """Decode a DATB file, keeping only the named BANK_FIELDS (the others
    are None); every check runs on every field either way.  feats_to, if
    given, is fed feats piece by piece as it is read and checked (see
    _read_bank)."""
    return _read_bank(path, fields, feats_to)[0]


def describe_bank_file(path) -> tuple[int, int, int, bool]:
    """A DATB file's record count, image and feature dimensions, and whether
    any record has a latent class, after every decode check, keeping no
    field."""
    _, header, with_latent = _read_bank(path, ())
    return (*header, with_latent)


def encode_dataset_file(ds: DownstreamDataset, path) -> None:
    violations = validate_dataset(ds)
    if violations:
        raise ValidationError(violations)
    n, C, d_img, d = ds.size, ds.n_classes, ds.image_dim, ds.feat_dim
    header = _DATASET_HEADER.pack(_DATASET_MAGIC, FORMAT_VERSION, 0, n, C, d_img, d)
    write_container(path, header, [
        _f32_rows(ds.images),
        np.ascontiguousarray(ds.labels, dtype="<u4"),
        _f32_rows(ds.class_text_feats),
        *_encode_string_table(ds.class_names),
        *_encode_string_table(ds.class_descriptions),
    ])


def _read_dataset(path, keep: bool) -> tuple[DownstreamDataset | None, tuple]:
    """The dataset when keep is true, else None, and its header's (n, C,
    D_img, d)."""
    with read_container(path, _DATASET_MAGIC, _DATASET_HEADER) as (header, rd):
        _, _, _, n, C, d_img, d = header
        found = _Violations(_dataset_checks(C))
        images = rd.array("images", (n, d_img), np.float32, keep, found.visit("images"))
        labels = rd.array("labels", (n,), np.int32, keep, found.visit("labels"))
        class_text_feats = rd.array("class_text_feats", (C, d), np.float32, keep,
                                    found.visit("class_text_feats"))
        names = rd.table("class names", C, keep)
        descriptions = rd.table("class descriptions", C, keep)
        rd.finish("string tables", found.report())
    if not keep:
        return None, (n, C, d_img, d)
    return DownstreamDataset(images=images, labels=labels, class_names=names,
                             class_descriptions=descriptions,
                             class_text_feats=class_text_feats), (n, C, d_img, d)


def decode_dataset_file(path) -> DownstreamDataset:
    return _read_dataset(path, True)[0]


def describe_dataset_file(path) -> tuple[int, int, int, int]:
    """A DATD file's image and class counts and its image and feature
    dimensions, after every decode check, keeping no field."""
    return _read_dataset(path, False)[1]
