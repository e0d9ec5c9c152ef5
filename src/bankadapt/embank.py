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
``encoder.py``) takes one pass over the file into a single uint8 buffer.
Magic, version and the CRC32 are checked on that buffer, and every numeric
payload is an array view of it, converted only on a big-endian host.
Decoding then checks, before anything is returned: every field fits the
file and no byte follows the last one; every string-table entry lies inside
its blob; each blob is UTF-8 and no non-empty entry starts or ends inside a
multi-byte character, so every entry decodes; and the container invariants
of ``validate_bank``/``validate_dataset``.  String tables come back as
``StringTable``, which decodes an entry only when it is read: the samplers
never read the bank's captions.
"""

from __future__ import annotations

import codecs
import os
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

FORMAT_VERSION = 1
UNIT_NORM_TOL = 1e-5

_BANK_MAGIC = b"DATB"
_DATASET_MAGIC = b"DATD"
_BANK_HEADER = struct.Struct("<4sHHQII")
_DATASET_HEADER = struct.Struct("<4sHHQIII")
# Rows (or string-table entries) per block when validating, so that no
# temporary grows with the row count.
_VALIDATE_BLOCK_ROWS = 1 << 12
_UTF8_CHUNK = 1 << 20


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
    reporting only and is never read by the samplers or the trainer.
    """

    images: np.ndarray         # (m, D_img) float32
    feats: np.ndarray          # (m, d) float32, unit rows
    caption_feats: np.ndarray  # (m, d) float32, unit rows
    captions: Sequence[str]
    latent_class: np.ndarray   # (m,) int32

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


def _check_finite(name: str, arr: np.ndarray, out: list[str]) -> None:
    for start in range(0, arr.shape[0], _VALIDATE_BLOCK_ROWS):
        bad = ~np.isfinite(arr[start:start + _VALIDATE_BLOCK_ROWS])
        if bad.any():
            idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
            idx = (start + int(idx[0]),) + tuple(int(i) for i in idx[1:])
            out.append(f"{name} has non-finite value at index {idx}")
            return


def _check_unit_rows(name: str, arr: np.ndarray, out: list[str]) -> None:
    if arr.size == 0:
        return
    for start in range(0, arr.shape[0], _VALIDATE_BLOCK_ROWS):
        block = arr[start:start + _VALIDATE_BLOCK_ROWS]
        norms = np.linalg.norm(block.astype(np.float64), axis=1)
        off = np.abs(norms - 1.0) > UNIT_NORM_TOL
        if off.any():
            i = int(np.argmax(off))
            out.append(f"{name} row {start + i} has norm {norms[i]:.8f}, "
                       f"expected 1 within {UNIT_NORM_TOL}")
            return


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
    _check_finite("images", bank.images, v)
    _check_finite("feats", bank.feats, v)
    _check_finite("caption_feats", bank.caption_feats, v)
    _check_unit_rows("feats", bank.feats, v)
    _check_unit_rows("caption_feats", bank.caption_feats, v)
    return v


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
    if n and (ds.labels.min() < 0 or ds.labels.max() >= C):
        bad = int(np.argmax((ds.labels < 0) | (ds.labels >= C)))
        v.append(f"label {int(ds.labels[bad])} at index {bad} outside [0, {C})")
    _check_finite("images", ds.images, v)
    _check_finite("class_text_feats", ds.class_text_feats, v)
    _check_unit_rows("class_text_feats", ds.class_text_feats, v)
    return v


def _encode_string_table(strings: Sequence[str]) -> bytes:
    blobs = [s.encode("utf-8") for s in strings]
    table = np.zeros((len(blobs), 2), dtype="<u8")
    table[:, 1] = np.fromiter(map(len, blobs), dtype=np.uint64, count=len(blobs))
    np.cumsum(table[:-1, 1], out=table[1:, 0])
    blob_len = int(table[:, 1].sum())
    return struct.pack("<Q", blob_len) + table.tobytes() + b"".join(blobs)


class StringTable(Sequence):
    """Read-only strings of a decoded container, each decoded when read.

    Holds the (count, 2) table of (offset, len) pairs and the UTF-8 blob as
    views of the file buffer.  Compares equal to a list of the same strings.
    """

    __slots__ = ("_table", "_blob")

    def __init__(self, table: np.ndarray, blob: np.ndarray):
        self._table = table
        self._blob = blob

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


class _Cursor:
    """Consecutive payload fields as views of one file buffer."""

    def __init__(self, buf: np.ndarray, pos: int):
        self.buf = buf
        self.pos = pos
        self.end = len(buf) - 4  # the stored crc32 follows the payload

    def take(self, n: int, what: str) -> np.ndarray:
        if self.pos + n > self.end:
            raise TruncatedFileError(
                f"truncated while reading {what}: expected {self.pos + n + 4} bytes, "
                f"file has {len(self.buf)}")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def take_array(self, count: int, dtype, what: str) -> np.ndarray:
        """count little-endian items, as a view unless the host is big-endian."""
        dtype = np.dtype(dtype)
        raw = self.take(count * dtype.itemsize, what)
        return raw.view(dtype.newbyteorder("<")).astype(dtype, copy=False)

    def finish(self, what: str) -> None:
        if self.pos != self.end:
            raise FormatError(f"{self.end - self.pos} trailing bytes after the {what}")


def _check_entries(table: np.ndarray, blob: np.ndarray, what: str) -> None:
    """Every entry lies inside the blob and no non-empty one starts or ends
    inside a multi-byte UTF-8 character; checked in blocks of entries."""
    limit = np.uint64(len(blob))
    for start in range(0, len(table), _VALIDATE_BLOCK_ROWS):
        off = table[start:start + _VALIDATE_BLOCK_ROWS, 0]
        ln = table[start:start + _VALIDATE_BLOCK_ROWS, 1]
        # ln > blob_len - off, without the wrap-around when off > blob_len
        outside = (off > limit) | (ln > limit - np.minimum(off, limit))
        if outside.any():
            raise FormatError(
                f"{what} entry {start + int(np.argmax(outside))} points outside the blob")
        split = np.zeros(len(off), dtype=bool)
        for pos in (off, off + ln):
            inside = (ln > 0) & (pos < limit)
            split[inside] |= (blob[pos[inside]] & 0xC0) == 0x80
        if split.any():
            raise FormatError(f"{what} entry {start + int(np.argmax(split))} "
                              f"splits a multi-byte UTF-8 character")


def _check_utf8(blob: np.ndarray, what: str) -> None:
    decoder = codecs.getincrementaldecoder("utf-8")()
    data = memoryview(blob)
    try:
        for start in range(0, len(data), _UTF8_CHUNK):
            decoder.decode(data[start:start + _UTF8_CHUNK])
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} blob is not valid UTF-8: {exc.reason}") from None


def _decode_string_table(cur: _Cursor, count: int, what: str) -> StringTable:
    """Entries are checked here so that each one decodes when it is read."""
    (blob_len,) = struct.unpack("<Q", cur.take(8, f"{what} blob length"))
    table = cur.take_array(2 * count, np.uint64, f"{what} offset table").reshape(count, 2)
    blob = cur.take(blob_len, f"{what} blob")
    _check_entries(table, blob, what)
    _check_utf8(blob, what)
    return StringTable(table, blob)


def _f32_rows(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def write_container(path, header: bytes, parts) -> None:
    """Write header, payload parts and the payload's crc32."""
    crc = 0
    with open(path, "wb") as fh:
        fh.write(header)
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _read_file(path) -> np.ndarray:
    """The whole file as one uint8 buffer, read straight into it (np.fromfile
    took about twice as long on a 240 MiB bank, 2-core Linux VM)."""
    with open(path, "rb", buffering=0) as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        view = memoryview(buf)
        pos = 0
        while pos < len(buf):
            n = fh.readinto(view[pos:])
            if not n:
                break
            pos += n
    return buf[:pos]


def read_container(path, magic: bytes, header: struct.Struct,
                   version: int = FORMAT_VERSION) -> tuple[tuple, _Cursor]:
    """Read the file once; check its magic, version and crc32.

    Returns the header fields and a cursor over the payload."""
    buf = _read_file(path)
    if len(buf) < header.size + 4:
        raise TruncatedFileError(
            f"expected at least {header.size + 4} bytes, file has {len(buf)}")
    fields = header.unpack_from(buf, 0)
    if fields[0] != magic:
        raise FormatError(f"bad magic {fields[0]!r}, expected {magic!r}")
    if fields[1] != version:
        raise FormatError(f"unsupported version {fields[1]}, expected {version}")
    (stored_crc,) = struct.unpack_from("<I", buf, len(buf) - 4)
    actual_crc = zlib.crc32(buf[header.size:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"payload crc32 {actual_crc:#010x} does not match stored {stored_crc:#010x}")
    return fields, _Cursor(buf, header.size)


def encode_bank_file(bank: EmbeddingBank, path) -> None:
    violations = validate_bank(bank)
    if violations:
        raise ValidationError(violations)
    m, d_img, d = bank.size, bank.image_dim, bank.feat_dim
    write_container(path, _BANK_HEADER.pack(_BANK_MAGIC, FORMAT_VERSION, 0, m, d_img, d), [
        _f32_rows(bank.images),
        _f32_rows(bank.feats),
        _f32_rows(bank.caption_feats),
        np.ascontiguousarray(bank.latent_class, dtype="<i4").tobytes(),
        _encode_string_table(bank.captions),
    ])


def decode_bank_file(path) -> EmbeddingBank:
    fields, cur = read_container(path, _BANK_MAGIC, _BANK_HEADER)
    _, _, flags, m, d_img, d = fields
    images = cur.take_array(m * d_img, np.float32, "images").reshape(m, d_img)
    feats = cur.take_array(m * d, np.float32, "feats").reshape(m, d)
    caption_feats = cur.take_array(m * d, np.float32, "caption_feats").reshape(m, d)
    latent = cur.take_array(m, np.int32, "latent_class")
    captions = _decode_string_table(cur, m, "captions")
    cur.finish("caption table")
    bank = EmbeddingBank(images=images, feats=feats, caption_feats=caption_feats,
                         captions=captions, latent_class=latent)
    violations = validate_bank(bank)
    if violations:
        raise ValidationError(violations)
    return bank


def encode_dataset_file(ds: DownstreamDataset, path) -> None:
    violations = validate_dataset(ds)
    if violations:
        raise ValidationError(violations)
    n, C, d_img, d = ds.size, ds.n_classes, ds.image_dim, ds.feat_dim
    header = _DATASET_HEADER.pack(_DATASET_MAGIC, FORMAT_VERSION, 0, n, C, d_img, d)
    write_container(path, header, [
        _f32_rows(ds.images),
        np.ascontiguousarray(ds.labels, dtype="<u4").tobytes(),
        _f32_rows(ds.class_text_feats),
        _encode_string_table(ds.class_names),
        _encode_string_table(ds.class_descriptions),
    ])


def decode_dataset_file(path) -> DownstreamDataset:
    fields, cur = read_container(path, _DATASET_MAGIC, _DATASET_HEADER)
    _, _, flags, n, C, d_img, d = fields
    images = cur.take_array(n * d_img, np.float32, "images").reshape(n, d_img)
    labels = cur.take_array(n, np.uint32, "labels").view(np.int32)
    class_text_feats = cur.take_array(C * d, np.float32, "class_text_feats").reshape(C, d)
    names = _decode_string_table(cur, C, "class names")
    descriptions = _decode_string_table(cur, C, "class descriptions")
    cur.finish("string tables")
    ds = DownstreamDataset(images=images, labels=labels, class_names=names,
                           class_descriptions=descriptions,
                           class_text_feats=class_text_feats)
    violations = validate_dataset(ds)
    if violations:
        raise ValidationError(violations)
    return ds
