import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankadapt import embank
from bankadapt.cli import main
from bankadapt.embank import (
    UNIT_NORM_TOL,
    ChecksumError,
    DATB,
    DATD,
    DownstreamDataset,
    EmbeddingBank,
    FormatError,
    StringTable,
    TruncatedFileError,
    ValidationError,
    decode_bank_file,
    decode_dataset_file,
    encode_bank_file,
    encode_dataset_file,
    validate,
)
from bankadapt.encoder import EncoderParams, init_params, load_params, save_params

from conftest import decoded, random_bank, random_dataset, unit_rows


def assert_banks_equal(a: EmbeddingBank, b: EmbeddingBank):
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.feats, b.feats)
    np.testing.assert_array_equal(a.caption_feats, b.caption_feats)
    np.testing.assert_array_equal(a.latent_class, b.latent_class)
    assert decoded(a.captions) == decoded(b.captions)


class TestBankRoundTrip:
    def test_random_bank_round_trips_bit_exactly(self, tmp_path):
        bank = random_bank(seed=0)
        path = tmp_path / "bank.datb"
        encode_bank_file(bank, path)
        assert_banks_equal(decode_bank_file(path), bank)

    def test_encode_is_byte_deterministic(self, tmp_path):
        bank = random_bank(seed=1)
        p1, p2 = tmp_path / "a.datb", tmp_path / "b.datb"
        encode_bank_file(bank, p1)
        encode_bank_file(bank, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_bank_round_trips(self, tmp_path):
        bank = EmbeddingBank(
            images=np.zeros((0, 4), np.float32),
            feats=np.zeros((0, 4), np.float32),
            caption_feats=np.zeros((0, 4), np.float32),
            captions=[],
            latent_class=np.zeros(0, np.int32),
        )
        path = tmp_path / "empty.datb"
        encode_bank_file(bank, path)
        # 24-byte header, 8-byte empty caption table, 4-byte crc
        assert path.stat().st_size == 36
        assert decode_bank_file(path).size == 0

    def test_unicode_captions_survive(self, tmp_path):
        bank = random_bank(seed=2, m=3)
        object.__setattr__(bank, "captions", ["café", "写真", ""])
        path = tmp_path / "u.datb"
        encode_bank_file(bank, path)
        assert decoded(decode_bank_file(path).captions) == ["café", "写真", ""]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(0, 40),
           d_img=st.integers(1, 9), d=st.integers(1, 9))
    def test_round_trip_property(self, tmp_path_factory, seed, m, d_img, d):
        bank = random_bank(seed=seed, m=m, d_img=d_img, d=d)
        path = tmp_path_factory.mktemp("rt") / "bank.datb"
        encode_bank_file(bank, path)
        assert_banks_equal(decode_bank_file(path), bank)


class TestBankErrors:
    def test_bad_magic_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.datb"
        encode_bank_file(random_bank(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            decode_bank_file(path)

    def test_version_mismatch_is_explicit(self, tmp_path):
        path = tmp_path / "v.datb"
        encode_bank_file(random_bank(), path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 99"):
            decode_bank_file(path)

    def test_truncation_names_expected_and_actual_bytes(self, tmp_path):
        path = tmp_path / "t.datb"
        encode_bank_file(random_bank(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((TruncatedFileError, ChecksumError)) as exc:
            decode_bank_file(path)
        # either the crc catches the mangled tail or the cursor reports sizes
        if isinstance(exc.value, TruncatedFileError):
            assert "bytes" in str(exc.value)

    def test_hundred_random_payload_corruptions_all_detected(self, tmp_path):
        path = tmp_path / "c.datb"
        encode_bank_file(random_bank(seed=3, m=25), path)
        good = path.read_bytes()
        rng = np.random.default_rng(0)
        for _ in range(100):
            data = bytearray(good)
            idx = int(rng.integers(24, len(good) - 4))
            flip = int(rng.integers(1, 256))
            data[idx] ^= flip
            path.write_bytes(bytes(data))
            with pytest.raises((ChecksumError, TruncatedFileError, FormatError,
                                ValidationError)):
                decode_bank_file(path)

    def test_corrupting_only_the_stored_crc_is_detected(self, tmp_path):
        path = tmp_path / "crc.datb"
        encode_bank_file(random_bank(), path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            decode_bank_file(path)

    def test_non_unit_feat_row_refused_at_write(self, tmp_path):
        bank = random_bank(seed=4)
        bank.feats[5] *= 2.0
        with pytest.raises(ValidationError, match="feats row 5"):
            encode_bank_file(bank, tmp_path / "x.datb")

    def test_non_finite_image_refused_at_write(self, tmp_path):
        bank = random_bank(seed=5)
        bank.images[2, 1] = np.nan
        with pytest.raises(ValidationError, match="images"):
            encode_bank_file(bank, tmp_path / "x.datb")

    def test_mismatched_caption_count_reported(self):
        bank = random_bank(seed=6)
        object.__setattr__(bank, "captions", bank.captions[:-1])
        assert any("captions" in v for v in validate(DATB, bank))


class TestDatasetRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = random_dataset(seed=0)
        path = tmp_path / "ds.datd"
        encode_dataset_file(ds, path)
        back = decode_dataset_file(path)
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.class_text_feats, ds.class_text_feats)
        assert decoded(back.class_names) == ds.class_names
        assert decoded(back.class_descriptions) == ds.class_descriptions

    def test_label_out_of_range_refused(self, tmp_path):
        ds = random_dataset(seed=1)
        ds.labels[3] = 7
        with pytest.raises(ValidationError, match=r"label 7 at index 3"):
            encode_dataset_file(ds, tmp_path / "x.datd")

    def test_bank_magic_rejected_by_dataset_decoder(self, tmp_path):
        path = tmp_path / "b.datb"
        encode_bank_file(random_bank(), path)
        with pytest.raises(FormatError, match="magic"):
            decode_dataset_file(path)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "ds.datd"
        encode_dataset_file(random_dataset(seed=2), path)
        data = bytearray(path.read_bytes())
        data[40] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises((ChecksumError, ValidationError)):
            decode_dataset_file(path)

    def test_validate_dataset_accepts_good_data(self):
        assert validate(DATD, random_dataset(seed=3)) == []

    def test_unit_norm_tolerance_is_enforced(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(seed=4)
        feats = unit_rows(rng, ds.n_classes, ds.feat_dim, dtype=np.float64)
        feats[1] *= 1.0 + 5e-5  # just outside the 1e-5 tolerance
        object.__setattr__(ds, "class_text_feats", feats.astype(np.float32))
        assert any("class_text_feats row 1" in v for v in validate(DATD, ds))


def rewrite_payload(path, header_size, edit):
    """Apply edit to the payload and store its new crc32, so that decoding
    gets past the checksum to the structure checks behind it."""
    data = bytearray(path.read_bytes()[:-4])
    payload = bytearray(data[header_size:])
    edit(payload)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    path.write_bytes(bytes(data[:header_size]) + bytes(payload) + struct.pack("<I", crc))


CAPTIONS = ["café", "写真", "plain-2", "thing-3", "über", "end"]


def set_entry(i, off, ln):
    def edit(payload, table):
        struct.pack_into("<QQ", payload, table + 8 + 16 * i, off, ln)
    return edit


def poke_blob(pos, value):
    def edit(payload, table):
        payload[table + 8 + 16 * len(CAPTIONS) + pos] = value
    return edit


CAPTION_CORRUPTIONS = {
    # the blob is 33 bytes: "café" 0-5, "写真" 5-11, "plain-2" 11-18, ...
    "entry past the blob": (set_entry(3, 32, 2), "entry 3 points outside"),
    "offset 2**64-1": (set_entry(2, 2**64 - 1, 2), "entry 2 points outside"),
    "length 2**64-1": (set_entry(2, 1, 2**64 - 1), "entry 2 points outside"),
    "invalid utf-8 in one entry": (poke_blob(13, 0xFF), "not valid UTF-8"),
    "entry ends inside a character": (set_entry(0, 0, 4), "entry 0 splits"),
    "entry starts inside a character": (set_entry(1, 6, 5), "entry 1 splits"),
    "trailing bytes after the table": (lambda payload, table: payload.extend(b"\0\0"),
                                       "2 trailing bytes after the caption table"),
}


class TestCaptionTableCorruption:
    @pytest.fixture
    def files(self, tmp_path):
        bank = random_bank(seed=7, m=len(CAPTIONS))
        object.__setattr__(bank, "captions", CAPTIONS)
        bank_path, ds_path = tmp_path / "bank.datb", tmp_path / "train.datd"
        encode_bank_file(bank, bank_path)
        encode_dataset_file(random_dataset(seed=7), ds_path)
        table = 4 * bank.size * (bank.images.shape[1] + 2 * bank.feats.shape[1] + 1)
        return bank_path, ds_path, table

    def test_the_fixture_decodes(self, files):
        assert decoded(decode_bank_file(files[0]).captions) == CAPTIONS

    @pytest.mark.parametrize("case", CAPTION_CORRUPTIONS)
    def test_corrupt_table_fails_at_decode_and_sample_exits_one(self, files, tmp_path,
                                                                 case):
        bank_path, ds_path, table = files
        edit, message = CAPTION_CORRUPTIONS[case]
        rewrite_payload(bank_path, 24, lambda payload: edit(payload, table))
        with pytest.raises(FormatError, match=message):
            decode_bank_file(bank_path)
        assert main(["sample", "--bank", str(bank_path), "--dataset", str(ds_path),
                     "--out_dir", str(tmp_path / "out")]) == 1


def encode_string_table_per_entry(strings):
    """Reference layout: blob_len u64, one (offset, len) u64 pair per entry,
    then the UTF-8 blob, packed entry by entry."""
    blobs = [x.encode("utf-8") for x in strings]
    parts, pos = [], 0
    for b in blobs:
        parts.append(struct.pack("<QQ", pos, len(b)))
        pos += len(b)
    return struct.pack("<Q", pos) + b"".join(parts) + b"".join(blobs)


def decoded_string_table(strings, tail: bytes = b"") -> StringTable:
    """The StringTable a decode returns for strings written per entry, with
    tail appended to the blob and covered by no entry."""
    data = encode_string_table_per_entry(strings) + tail
    table = np.frombuffer(data, "<u8", count=2 * len(strings), offset=8)
    return StringTable(table.reshape(-1, 2), np.frombuffer(data, np.uint8,
                                                           offset=8 + table.nbytes))


# b"h\xc3\xa9llo w\xc3\xb6rld \xf0\x9f\x99\x82 xyz": entries 0, 1 and 4
# overlap, and no entry covers the spaces, the emoji or "xyz"
def stored_string_table(strings) -> bytes:
    """The bytes a container stores of strings: packed()'s buffers joined."""
    table = strings if isinstance(strings, StringTable) else StringTable.of(strings)
    return b"".join(table.packed())


OVERLAPPING = StringTable(
    np.array([[0, 6], [1, 5], [0, 0], [7, 6], [3, 3]], dtype=np.uint64),
    np.frombuffer("héllo wörld 🙂 xyz".encode("utf-8"), np.uint8))


@pytest.mark.parametrize("strings", [
    [],
    [""],
    ["", "", ""],
    ["a photo of thing-0.", "b", "", "caption three"],
    ["naïve café", "", "日本語のキャプション", "emoji 🙂 end", "x"],
    [f"entry {i} " + "é" * (i % 5) for i in range(1000)],
    decoded_string_table(["naïve café", "", "日本語", "x"]),
    decoded_string_table(["naïve café", "", "x"], tail="日本".encode("utf-8")),
    OVERLAPPING,
    StringTable(np.zeros((0, 2), np.uint64), np.zeros(0, np.uint8)),
    # an index that repeats some entries of its vocabulary and skips others
    StringTable.of(["", "naïve", "日本語", "x", "skipped"],
                   np.array([1, 0, 2, 2, 3, 0, 1])),
    StringTable.of(["naïve", "x"], np.zeros(0, np.int64)),
    StringTable.of(["", "naïve café", "", "日本語", "emoji 🙂 end"]),
])
def test_string_table_bytes_match_the_per_entry_layout(strings):
    assert stored_string_table(strings) == encode_string_table_per_entry(decoded(strings))


def test_a_gather_in_blocks_packs_the_bytes_of_one_gather(monkeypatch):
    vocabulary = ["", "naïve", "日本語", "x", "a photo of distractor-09."]
    index = np.random.default_rng(0).integers(0, len(vocabulary), 23)
    strings = StringTable.of(vocabulary, index)
    whole = stored_string_table(strings)
    monkeypatch.setattr(embank, "_GATHER_ROWS", 4)
    blocks = list(strings.packed())
    # blob_len, then the table and the bytes of 23 entries in 6 blocks each
    assert len(blocks) == 1 + 2 * 6
    assert b"".join(blocks) == whole == encode_string_table_per_entry(
        [vocabulary[i] for i in index])


def test_packing_a_table_holds_one_block():
    """Writing packed()'s buffers of 200,000 entries pointing into a shared
    vocabulary (about 4 MB of entry bytes, 7.2 MB stored) traces one
    block's bytes (20 x _GATHER_ROWS) and the int64 byte indices of its
    gather with the offsets added to them (16 x 20 x _GATHER_ROWS), within
    1 MiB: 3.1 MiB against 3.7 allowed.  Laying out the whole table and
    blob first took 9.7 MiB, and gathering every entry at once 66 MiB."""
    vocabulary = [f"a photo of thing-{k:02d}." for k in range(50)]  # 20 bytes
    index = np.random.default_rng(0).integers(0, len(vocabulary), 200_000)
    strings = StringTable.of(vocabulary, index)
    crc = size = 0
    tracemalloc.start()
    try:
        for part in strings.packed():
            crc, size = zlib.crc32(part, crc), size + memoryview(part).nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 8 + 16 * index.size + 20 * index.size
    assert peak <= 17 * 20 * embank._GATHER_ROWS + (1 << 20), peak
    assert crc == zlib.crc32(encode_string_table_per_entry(
        [vocabulary[i] for i in index]))


def test_non_packed_string_tables_are_repacked():
    assert decoded(OVERLAPPING) == ["héllo", "éllo", "", "wörld", "llo"]
    assert stored_string_table(OVERLAPPING) == encode_string_table_per_entry(
        decoded(OVERLAPPING))


def test_string_tables_come_back_as_arrays(tmp_path):
    ds = random_dataset(seed=5)
    path = tmp_path / "ds.datd"
    encode_dataset_file(ds, path)
    names = decode_dataset_file(path).class_names
    assert isinstance(names, StringTable) and len(names) == len(ds.class_names)
    assert decoded(names) == ds.class_names
    with pytest.raises(TypeError):
        names[0] = "x"


def test_decode_peak_memory_stays_near_the_file_size(tmp_path):
    path = tmp_path / "big.datb"
    encode_bank_file(random_bank(seed=8, m=100_000, d_img=20, d=16), path)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bank = decode_bank_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.size == 100_000
    assert peak <= 1.25 * path.stat().st_size


def whole_array_violations(bank):
    """The finite and unit-row checks of validate(DATB, bank) on whole arrays."""
    out = []
    for name in ("images", "feats", "caption_feats"):
        bad = ~np.isfinite(getattr(bank, name))
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            out.append(f"{name} has non-finite value at index {idx}")
    for name in ("feats", "caption_feats"):
        norms = np.linalg.norm(getattr(bank, name).astype(np.float64), axis=1)
        off = np.abs(norms - 1.0) > UNIT_NORM_TOL
        if off.any():
            i = int(np.argmax(off))
            out.append(f"{name} row {i} has norm {norms[i]:.8f}, "
                       f"expected 1 within {UNIT_NORM_TOL}")
    return out


@pytest.mark.parametrize("extra", [0, 1, 37])
def test_blocked_validation_matches_whole_array_checks(monkeypatch, extra):
    rows = 16  # 32-byte rows in every field, so 16 rows per block
    monkeypatch.setattr(embank, "_BLOCK_BYTES", 32 * rows)
    m = 2 * rows + extra
    bank = random_bank(seed=9, m=m, d_img=8, d=8)
    assert validate(DATB, bank) == [] == whole_array_violations(bank)
    bank.images[rows + 3, 4] = np.inf
    bank.images[2 * rows - 1, 0] = np.nan
    bank.feats[m - 1] *= 1.0 + 3e-5
    bank.caption_feats[rows] *= 1.0 - 3e-5
    bank.caption_feats[rows + 9] *= 2.0
    got = validate(DATB, bank)
    assert got == whole_array_violations(bank)
    assert [v.split(" has ")[0] for v in got] == [
        "images", f"feats row {m - 1}", f"caption_feats row {rows}"]
    assert f"index ({rows + 3}, 4)" in got[0]


CONTAINERS = {
    "DATB": (lambda p: encode_bank_file(random_bank(seed=10), p), decode_bank_file, 24),
    "DATD": (lambda p: encode_dataset_file(random_dataset(seed=10), p),
             decode_dataset_file, 28),
    "DATC": (lambda p: save_params(init_params(10, 6, 5, 4, 3), p), load_params, 24),
}


@pytest.mark.parametrize("fmt", CONTAINERS)
class TestSharedReader:
    """DATB, DATD and DATC go through one reader and one set of checks."""

    def write(self, tmp_path, fmt):
        write, read, header_size = CONTAINERS[fmt]
        path = tmp_path / f"file.{fmt.lower()}"
        write(path)
        return path, read, header_size

    def test_bad_magic_and_version(self, tmp_path, fmt):
        path, read, _ = self.write(tmp_path, fmt)
        good = path.read_bytes()
        path.write_bytes(b"XXXX" + good[4:])
        with pytest.raises(FormatError, match="magic"):
            read(path)
        path.write_bytes(good[:4] + struct.pack("<H", 7) + good[6:])
        with pytest.raises(FormatError, match="version 7"):
            read(path)

    def test_unknown_header_flags_are_refused(self, tmp_path, fmt):
        path, read, _ = self.write(tmp_path, fmt)
        good = path.read_bytes()
        for flags in (0x0001, 0x8000):
            path.write_bytes(good[:6] + struct.pack("<H", flags) + good[8:])
            with pytest.raises(FormatError, match=f"flags {flags:#06x}"):
                read(path)

    def test_short_payload_with_a_matching_crc(self, tmp_path, fmt):
        path, read, header_size = self.write(tmp_path, fmt)
        rewrite_payload(path, header_size, lambda payload: payload.pop())
        with pytest.raises(TruncatedFileError, match="truncated while reading"):
            read(path)

    def test_trailing_byte_with_a_matching_crc(self, tmp_path, fmt):
        path, read, header_size = self.write(tmp_path, fmt)
        rewrite_payload(path, header_size, lambda payload: payload.append(0))
        with pytest.raises(FormatError, match="1 trailing bytes"):
            read(path)

    def test_shorter_than_a_header(self, tmp_path, fmt):
        path, read, header_size = self.write(tmp_path, fmt)
        path.write_bytes(path.read_bytes()[:header_size + 3])
        with pytest.raises(TruncatedFileError, match="expected at least"):
            read(path)


# --- the streaming reader ----------------------------------------------------

KEEP = ("feats", "latent_class")
ARRAY_FIELDS = ("images", "feats", "caption_feats", "latent_class")


def write_bank_unchecked(bank, path):
    """encode_bank_file without its validation, for banks that break an
    invariant on purpose."""
    header = embank.DATB.header.pack(b"DATB", embank.FORMAT_VERSION, 0, bank.size,
                                      bank.images.shape[1], bank.feats.shape[1])
    embank.write_container(path, header, [
        np.ascontiguousarray(a, dtype).tobytes() for a, dtype in (
            (bank.images, "<f4"), (bank.feats, "<f4"), (bank.caption_feats, "<f4"),
            (bank.latent_class, "<i4"))] + [stored_string_table(bank.captions)])


class ReferenceParse:
    """A container file parsed in file order with struct and np.frombuffer,
    without the reader or the layouts: the header by its struct format,
    then each field as it is taken, then the stored crc32 of the payload."""

    def __init__(self, path, header: str):
        self.data = path.read_bytes()
        self.header = struct.unpack_from(header, self.data)
        self.start = self.pos = struct.calcsize(header)

    def take(self, count, dtype):
        arr = np.frombuffer(self.data, dtype, count, self.pos)
        self.pos += arr.nbytes
        return arr

    def strings(self, count):
        """A string table of count entries, as a list."""
        (blob_len,) = self.take(1, "<u8")
        table = self.take(2 * count, "<u8").reshape(count, 2)
        blob = self.take(int(blob_len), np.uint8).tobytes()
        return [blob[int(o):int(o) + int(n)].decode("utf-8") for o, n in table]

    def end(self):
        """Check that the crc32 of the payload, and nothing else, follows."""
        assert len(self.data) == self.pos + 4
        (crc,) = struct.unpack_from("<I", self.data, self.pos)
        assert crc == zlib.crc32(self.data[self.start:self.pos])


def reference_decode(path):
    """The DATB layout parsed by ReferenceParse."""
    ref = ReferenceParse(path, "<4sHHQII")
    magic, version, _, m, d_img, d = ref.header
    assert (magic, version) == (b"DATB", 1)
    bank = EmbeddingBank(images=ref.take(m * d_img, "<f4").reshape(m, d_img),
                         feats=ref.take(m * d, "<f4").reshape(m, d),
                         caption_feats=ref.take(m * d, "<f4").reshape(m, d),
                         latent_class=ref.take(m, "<i4"), captions=ref.strings(m))
    ref.end()
    return bank


def reference_decode_dataset(path):
    """The DATD layout parsed by ReferenceParse; labels are stored uint32."""
    ref = ReferenceParse(path, "<4sHHQIII")
    magic, version, _, n, C, d_img, d = ref.header
    assert (magic, version) == (b"DATD", 1)
    ds = DownstreamDataset(images=ref.take(n * d_img, "<f4").reshape(n, d_img),
                           labels=ref.take(n, "<u4"),
                           class_text_feats=ref.take(C * d, "<f4").reshape(C, d),
                           class_names=ref.strings(C),
                           class_descriptions=ref.strings(C))
    ref.end()
    return ds


def reference_load_params(path):
    """The DATC layout parsed by ReferenceParse."""
    ref = ReferenceParse(path, "<4sHHIIII")
    magic, version, _, d_img, h, d, c = ref.header
    assert (magic, version) == (b"DATC", 1)
    params = [ref.take(math.prod(shape), "<f8").reshape(shape)
              for shape in ((h, d_img), (h,), (d, h), (d,), (c, d), (c,))]
    ref.end()
    return EncoderParams(*params)


def unicode_bank(seed, m):
    bank = random_bank(seed=seed, m=m, d_img=5, d=4)
    object.__setattr__(bank, "captions",
                       [f"é{i}写真" * (i % 4) + "🙂" * (i % 3) for i in range(m)])
    return bank


def test_full_decode_equals_a_reference_parse(tmp_path):
    path = tmp_path / "bank.datb"
    encode_bank_file(unicode_bank(11, 50), path)
    assert_banks_equal(decode_bank_file(path), reference_decode(path))


def test_dataset_decode_equals_a_reference_parse(tmp_path):
    """Labels up to C - 1, unicode names and a description left empty."""
    ds = random_dataset(seed=17, n=40, n_classes=5, d_img=3, d=6)
    ds.labels[:] = np.arange(40) % 5
    object.__setattr__(ds, "class_names", ["café", "写真", "", "b", "🙂 end"])
    object.__setattr__(ds, "class_descriptions", ["", "x", "naïve", "日本語", "y"])
    path = tmp_path / "train.datd"
    encode_dataset_file(ds, path)
    ref, back = reference_decode_dataset(path), decode_dataset_file(path)
    assert ref.labels.max() == ds.n_classes - 1
    for name in ("images", "labels", "class_text_feats"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ref, name))
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
    assert back.labels.dtype == np.int32
    for name in ("class_names", "class_descriptions"):
        assert decoded(getattr(back, name)) == getattr(ref, name) == getattr(ds, name)


def test_checkpoint_load_equals_a_reference_parse(tmp_path):
    params = init_params(18, 7, 5, 4, 3)
    path = tmp_path / "encoder.datc"
    save_params(params, path)
    ref, back = reference_load_params(path), load_params(path)
    assert path.stat().st_size == 24 + 8 * (5 * 7 + 5 + 4 * 5 + 4 + 3 * 4 + 3) + 4
    for mine, theirs, saved in zip(back.fields(), ref.fields(), params.fields()):
        assert mine.dtype == np.float64
        np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(mine, saved)


def test_selective_decode_keeps_only_the_named_fields(tmp_path):
    path = tmp_path / "bank.datb"
    encode_bank_file(unicode_bank(12, 30), path)
    ref = reference_decode(path)
    bank = decode_bank_file(path, fields=KEEP)
    np.testing.assert_array_equal(bank.feats, ref.feats)
    np.testing.assert_array_equal(bank.latent_class, ref.latent_class)
    assert bank.images is None and bank.caption_feats is None and bank.captions is None
    assert bank.feats.shape[1] == 4
    assert decoded(decode_bank_file(path, fields=("captions",)).captions) == ref.captions
    with pytest.raises(ValueError, match="unknown bank fields"):
        decode_bank_file(path, fields=("feats", "labels"))


def poke_f32(offset, scale=None, value=None):
    """Set (or scale) the float32 at payload byte offset."""
    def edit(payload):
        (old,) = struct.unpack_from("<f", payload, offset)
        struct.pack_into("<f", payload, offset, old * scale if value is None else value)
    return edit


def scale_row(offset, width, factor):
    def edit(payload):
        for c in range(width):
            poke_f32(offset + 4 * c, scale=factor)(payload)
    return edit


# The 6-record CAPTIONS fixture (d_img 6, d 4): images at payload byte 0,
# feats at 144, caption_feats at 240, latent_class at 336, the caption table
# at 360 (its u64 blob length first, top byte at 367).  The crc cases edit
# the file and keep its stored crc32; the others edit the payload and store
# its new crc32.
def flip_images_byte(data):
    data[24 + 5] ^= 0x40


STREAM_CASES = {
    "crc flip in images": (flip_images_byte, ChecksumError, "does not match stored"),
    "crc flip and a trailing byte": (
        lambda data: (flip_images_byte(data), data.insert(-4, 0)),
        ChecksumError, "does not match stored"),
    "crc flip in the caption blob length": (
        lambda data: data.__setitem__(24 + 367, data[24 + 367] ^ 0x80),
        ChecksumError, "does not match stored"),
    "crc flip and a caption entry outside the blob": (
        lambda data: (flip_images_byte(data), set_entry(3, 32, 2)(data, 24 + 360)),
        ChecksumError, "does not match stored"),
    "NaN in images": (poke_f32(4 * (3 * 6 + 2), value=float("nan")), ValidationError,
                      r"^images has non-finite value at index \(3, 2\)$"),
    "non-unit feats row": (scale_row(144 + 16 * 3, 4, 2.0), ValidationError,
                           r"^feats row 3 has norm \d\.\d{8}, expected 1 within 1e-05$"),
    "non-unit caption_feats row": (scale_row(240 + 16 * 5, 4, 2.0), ValidationError,
                                   r"^caption_feats row 5 has norm \d\.\d{8}, "
                                   r"expected 1 within 1e-05$"),
    "caption entry outside the blob": (lambda p: set_entry(3, 32, 2)(p, 360),
                                       FormatError, "^captions entry 3 points outside"),
    "caption entry splits a character": (lambda p: set_entry(0, 0, 4)(p, 360),
                                         FormatError, "^captions entry 0 splits a multi"),
    "non-UTF-8 blob": (lambda p: poke_blob(13, 0xFF)(p, 360), FormatError,
                       "^captions blob is not valid UTF-8: invalid start byte$"),
    "short payload": (lambda p: p.pop(), TruncatedFileError,
                      r"^truncated while reading captions blob: expected 525 bytes, "
                      r"file has 524$"),
    # 2**63 more blob bytes than the file holds: no bitmap is sized from them
    "caption blob length 2**63 too long": (
        lambda p: p.__setitem__(367, p[367] ^ 0x80), TruncatedFileError,
        r"^truncated while reading captions blob: expected 9223372036854776333 bytes, "
        r"file has 525$"),
    "trailing byte": (lambda p: p.append(0), FormatError,
                      "^1 trailing bytes after the caption table$"),
}


@pytest.mark.parametrize("block", [None, 48])
@pytest.mark.parametrize("case", STREAM_CASES)
def test_every_check_runs_on_skipped_fields(tmp_path, monkeypatch, case, block):
    """A decode that keeps only feats and latent_class, or every array field
    at rows 4 and 1 only (each fault lies in another row or in the caption
    table), raises what a full decode raises, with the same message, also
    when rows and characters cross block edges (48-byte blocks); a crc32
    mismatch takes precedence over any other error."""
    if block:
        monkeypatch.setattr(embank, "_BLOCK_BYTES", block)
    bank = random_bank(seed=7, m=len(CAPTIONS))
    object.__setattr__(bank, "captions", CAPTIONS)
    path = tmp_path / "bank.datb"
    encode_bank_file(bank, path)
    edit, error, message = STREAM_CASES[case]
    if case.startswith("crc"):
        data = bytearray(path.read_bytes())
        edit(data)
        path.write_bytes(bytes(data))
    else:
        rewrite_payload(path, 24, edit)
    with pytest.raises(error, match=message) as full:
        decode_bank_file(path)
    with pytest.raises(error, match=message) as selective:
        decode_bank_file(path, fields=KEEP)
    assert str(selective.value) == str(full.value)
    with pytest.raises(error, match=message) as by_rows:
        decode_bank_file(path, fields=ARRAY_FIELDS, rows=[4, 1])
    assert str(by_rows.value) == str(full.value)


@pytest.mark.parametrize("block", [None, 48])
@pytest.mark.parametrize("ids", [[1, 2, 3, 4, 5, 6], [9, 0, 7, 2, 12, 5], [0, 12],
                                 [4, 11, 4], []],
                         ids=["across block edges", "unsorted", "first and last",
                              "repeated", "none"])
def test_rows_keep_what_a_full_decode_gathers(tmp_path, monkeypatch, block, ids):
    """decode_bank_file(rows=ids) holds, in ids' order, exactly the rows a
    full decode holds at ids; 48-byte blocks hold two image rows, three
    feature rows and twelve classes of the 13 records."""
    if block:
        monkeypatch.setattr(embank, "_BLOCK_BYTES", block)
    path = tmp_path / "bank.datb"
    encode_bank_file(unicode_bank(13, 13), path)
    ref = reference_decode(path)
    rows = decode_bank_file(path, fields=ARRAY_FIELDS, rows=ids)
    at = np.array(ids, dtype=np.int64)
    for name in ARRAY_FIELDS:
        kept = getattr(rows, name)
        assert kept.shape == getattr(ref, name)[at].shape, name
        np.testing.assert_array_equal(kept, getattr(ref, name)[at])
    assert rows.captions is None
    only = decode_bank_file(path, fields=("caption_feats",), rows=ids)
    assert only.images is None and only.feats is None
    np.testing.assert_array_equal(only.caption_feats, ref.caption_feats[at])


def test_rows_outside_the_bank_are_refused_once_the_file_has_passed(tmp_path):
    path = tmp_path / "bank.datb"
    encode_bank_file(random_bank(seed=8, m=13), path)
    with pytest.raises(ValidationError,
                       match="^selected record id 13 is outside the bank's 13 "
                             "records$"):
        decode_bank_file(path, fields=("images",), rows=[2, 13, -1])
    with pytest.raises(ValidationError, match="^selected record id -1 is outside"):
        decode_bank_file(path, fields=(), rows=[-1, 13])
    with pytest.raises(ValueError, match="captions cannot be kept by rows"):
        decode_bank_file(path, fields=("captions",), rows=[0])
    data = bytearray(path.read_bytes())
    data[24 + 5] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        decode_bank_file(path, fields=("images",), rows=[2, 13])


def test_a_late_block_of_multi_byte_characters_is_still_checked(tmp_path,
                                                                monkeypatch):
    """Under 48-byte blocks, only the last block of the caption blob holds
    continuation bytes, and the last entry starts inside a character there:
    every decode refuses it.  An ASCII blob sets no bit and never compares
    an entry against the bitmap."""
    monkeypatch.setattr(embank, "_BLOCK_BYTES", 48)
    m = 20
    captions = [f"plain caption {i}" for i in range(m - 1)] + ["tail \u00e9\u5199"]
    bank = random_bank(seed=9, m=m)
    object.__setattr__(bank, "captions", captions)
    path = tmp_path / "bank.datb"
    encode_bank_file(bank, path)
    table = 4 * m * (bank.images.shape[1] + 2 * bank.feats.shape[1] + 1)
    first_multi_byte = sum(len(c) for c in captions[:-1]) + len("tail ")
    assert first_multi_byte >= 6 * 48
    rewrite_payload(path, 24, lambda p: set_entry(m - 1, first_multi_byte + 1, 4)(
        p, table))
    for fields, rows in ((DATB.names, None), (KEEP, None),
                         (ARRAY_FIELDS, [0, 5])):
        with pytest.raises(FormatError, match=f"^captions entry {m - 1} splits a "
                                              "multi-byte UTF-8 character$"):
            decode_bank_file(path, fields=fields, rows=rows)

    def refuse(*args):
        raise AssertionError("an ASCII blob was compared against the bitmap")

    monkeypatch.setattr(embank, "_first_split", refuse)
    encode_bank_file(random_bank(seed=9, m=m), path)
    assert decode_bank_file(path, fields=KEEP).feats.shape == (m, 4)


def test_rows_of_no_bytes_are_read_as_one_block(tmp_path, monkeypatch):
    """A header that promises 2**40 records with no image or feature bytes
    fails at latent_class, as a whole-file parse does, after one read per
    zero-width field rather than one per block of empty rows."""
    payload = bytes(64)
    path = tmp_path / "wide.datb"
    path.write_bytes(embank.DATB.header.pack(b"DATB", embank.FORMAT_VERSION, 0,
                                              1 << 40, 0, 0)
                     + payload + struct.pack("<I", zlib.crc32(payload)))
    reads = []
    consume = embank._PayloadReader._consume
    monkeypatch.setattr(embank._PayloadReader, "_consume", lambda rd, dst, what: (
        reads.append(what), consume(rd, dst, what)))
    with pytest.raises(TruncatedFileError,
                       match="^truncated while reading latent_class: expected "
                             "4398046511132 bytes, file has 92$"):
        decode_bank_file(path, fields=KEEP)
    assert reads == ["images", "feats", "caption_feats", "the payload"]


@pytest.mark.parametrize("block", [8, 48, 1 << 22])
def test_blocks_that_end_inside_a_row_change_nothing(tmp_path, monkeypatch, block):
    """48-byte blocks end inside 20-byte image rows, 16-byte feature rows,
    table entries and multi-byte characters, so those rows go whole to the
    next block; 13 records leave a one-row tail block in every numeric
    field.  8-byte blocks are shorter than a row, which then gets a block
    of its own.  Decoded values and violations must equal the whole-array
    ones."""
    m = 13
    bank = unicode_bank(13, m)
    good, bad = tmp_path / "good.datb", tmp_path / "bad.datb"
    encode_bank_file(bank, good)
    monkeypatch.setattr(embank, "_BLOCK_BYTES", block)
    assert_banks_equal(decode_bank_file(good), reference_decode(good))
    bank.images[1, 4] = np.inf      # last row of the first 48-byte block
    bank.images[2, 0] = np.nan      # first row of the second
    bank.feats[m - 1] *= 1.0 + 3e-5  # the one-row tail block
    bank.caption_feats[3] *= 2.0     # first row of the second block
    bank.caption_feats[m - 1, 0] = np.nan
    write_bank_unchecked(bank, bad)
    for fields in (DATB.names, KEEP):
        with pytest.raises(ValidationError) as exc:
            decode_bank_file(bad, fields=fields)
        assert exc.value.violations == whole_array_violations(bank)
    assert [v.split(" has ")[0] for v in exc.value.violations] == [
        "images", f"caption_feats", f"feats row {m - 1}", "caption_feats row 3"]


def test_selective_decode_peak_is_the_kept_fields_a_block_and_the_bitmap(
        tmp_path, monkeypatch):
    """Beside the kept arrays and the captions' continuation bitmap, the
    reader holds one block buffer and the temporaries of the checks on it:
    at most four blocks (the unit-row check's float64 copy is two, the
    UTF-8 check's mask, bytes and text about three)."""
    block = 1 << 16
    monkeypatch.setattr(embank, "_BLOCK_BYTES", block)
    path = tmp_path / "big.datb"
    bank = random_bank(seed=14, m=100_000, d_img=20, d=16)
    encode_bank_file(bank, path)
    blob_len = sum(len(c.encode("utf-8")) for c in bank.captions)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kept = decode_bank_file(path, fields=KEEP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept_bytes = kept.feats.nbytes + kept.latent_class.nbytes
    allowed = kept_bytes + blob_len / 8 + 5 * block
    assert peak <= allowed, (peak, allowed)
    assert allowed < path.stat().st_size / 3


FEATS_FAULTS = {"nan row": ValidationError, "zero row": ValidationError,
                "off-unit row": ValidationError, "flipped byte": ChecksumError,
                "truncated": TruncatedFileError}


@pytest.mark.parametrize("fault", FEATS_FAULTS)
def test_sample_reports_the_decode_error_of_a_faulty_bank(tmp_path, monkeypatch,
                                                          capsys, fault):
    """sample scores feats while the bank is read, block by block; a file
    that fails a check exits 1 with the decode's own error, never with the
    scorer's refusal of a degenerate row.  The fault sits in row 3,000 of
    5,000, so the blocks before it are scored first."""
    m, d = 5000, 16
    monkeypatch.setattr(embank, "_BLOCK_BYTES", 1 << 14)  # 256 feats rows
    bank = random_bank(seed=23, m=m, d_img=8, d=d)
    row = 3000
    if fault == "nan row":
        bank.feats[row, 2] = np.nan
    elif fault == "zero row":
        bank.feats[row] = 0.0
    elif fault == "off-unit row":
        bank.feats[row] *= 2.0
    bank_path, ds_path = tmp_path / "bank.datb", tmp_path / "train.datd"
    write_bank_unchecked(bank, bank_path)
    encode_dataset_file(random_dataset(seed=23, n=12, n_classes=3, d_img=8, d=d),
                        ds_path)
    data = bytearray(bank_path.read_bytes())
    if fault == "flipped byte":
        data[24 + 4 * m * 8 + 4 * (d * row + 1) + 3] ^= 0x40  # an exponent byte
    elif fault == "truncated":  # 100 bytes short, with the crc32 of the rest
        del data[-104:]
        data += struct.pack("<I", zlib.crc32(data[24:]) & 0xFFFFFFFF)
    bank_path.write_bytes(bytes(data))
    with pytest.raises(FEATS_FAULTS[fault]) as decoded:
        decode_bank_file(bank_path)
    capsys.readouterr()
    assert main(["sample", "--bank", str(bank_path), "--dataset", str(ds_path),
                 "--out_dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {decoded.value}\n"
    assert "zero norm" not in err and "non-finite norm" not in err


def verdicts(bank, path):
    """The violations of validate(DATB, bank), of a full decode and of a decode
    that keeps only feats and latent_class, of bank written to path."""
    write_bank_unchecked(bank, path)
    found = [validate(DATB, bank)]
    for fields in (DATB.names, KEEP):
        try:
            decode_bank_file(path, fields=fields)
            found.append([])
        except ValidationError as exc:
            found.append(exc.violations)
    return found


def edge_rows(rng, target, heads, d=16):
    """float32 rows whose float64 norms step across target by about an ulp
    at a time: for each of heads random heads of d - 1 coordinates, 41 rows
    whose small last coordinate runs over consecutive float32 values."""
    out = []
    while len(out) < heads:
        head = rng.standard_normal(d - 1)
        head *= target * (1 - 5e-10) / np.linalg.norm(head)
        head = head.astype(np.float32)
        rest = target * target - float(np.sum(head.astype(np.float64) ** 2))
        if not 0 < rest < 2e-9:
            continue
        last = np.float32(np.sqrt(rest))
        rows = np.empty((41, d), np.float32)
        rows[:, :-1] = head
        rows[:, -1] = last + np.arange(-20, 21, dtype=np.float32) * np.spacing(last)
        out.append(rows)
    return np.vstack(out)


@pytest.mark.parametrize("edge", [1 + UNIT_NORM_TOL, 1 - UNIT_NORM_TOL])
def test_a_norm_at_the_tolerance_edge_gets_one_verdict(tmp_path, edge):
    """validate(DATB, bank) and the decode take a row's norm as
    sqrt(einsum("ij,ij->i")) of its float64 copy, as the sampler does, and
    give one verdict.  whole_array_violations takes np.linalg.norm, which
    sums the squares by add.reduce in another order: the two norms can
    differ in their last ulp, and their verdicts differ exactly for a row
    whose two norms lie on either side of 1 +- 1e-5, which takes a norm
    within about an ulp of the edge (float32 rows, d = 16; with numpy 2.4
    on x86-64 such rows turn up at both edges, and the two sums may agree
    on another build)."""
    rows = edge_rows(np.random.default_rng(31), edge, 12)
    wide = rows.astype(np.float64)
    einsum_off = np.abs(np.sqrt(np.einsum("ij,ij->i", wide, wide)) - 1) > UNIT_NORM_TOL
    reduce_off = np.abs(np.linalg.norm(wide, axis=1) - 1) > UNIT_NORM_TOL
    flips = np.flatnonzero(einsum_off[1:] != einsum_off[:-1])
    split = np.flatnonzero(einsum_off != reduce_off)
    assert flips.size
    base = random_bank(seed=31, m=1, d_img=3, d=16)
    for i in sorted({*flips, *(flips + 1), *split[:6]}):
        bank = EmbeddingBank(images=base.images, feats=rows[i:i + 1],
                             caption_feats=base.caption_feats,
                             captions=base.captions, latent_class=base.latent_class)
        found = verdicts(bank, tmp_path / "edge.datb")
        assert found[0] == found[1] == found[2]
        assert bool(found[0]) == einsum_off[i]
        assert (found[0] == whole_array_violations(bank)) == (i not in split)


def float64_violations(bank):
    """The finite and unit-row checks of validate(DATB, bank), on whole
    arrays and in float64 alone: each row's norm is sqrt(einsum) of its
    float64 copy, as copy_with_norms takes it."""
    out = []
    for name in ("images", "feats", "caption_feats"):
        bad = ~np.isfinite(getattr(bank, name))
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            out.append(f"{name} has non-finite value at index {idx}")
    for name in ("feats", "caption_feats"):
        wide = getattr(bank, name).astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", wide, wide))
        off = np.abs(norms - 1.0) > UNIT_NORM_TOL
        if off.any():
            i = int(np.argmax(off))
            out.append(f"{name} row {i} has norm {norms[i]:.8f}, "
                       f"expected 1 within {UNIT_NORM_TOL}")
    return out


def screen_cases(kind, d=16):
    """float32 rows for the reader's float32 screen, by kind, each row
    either side of a boundary where the float64 check or the screen's
    float32 sum may go wrong."""
    rng = np.random.default_rng(41)
    if kind in ("above 1 + tol", "below 1 - tol"):
        # the rows on either side of each step of the float64 verdict, each
        # about an ulp of the norm from 1 +- 1e-5
        edge = 1 + UNIT_NORM_TOL if kind == "above 1 + tol" else 1 - UNIT_NORM_TOL
        rows = edge_rows(rng, edge, 12, d)
        wide = rows.astype(np.float64)
        off = np.abs(np.sqrt(np.einsum("ij,ij->i", wide, wide)) - 1) > UNIT_NORM_TOL
        flips = np.flatnonzero(off[1:] != off[:-1])
        assert flips.size
        return rows[sorted({*flips, *(flips + 1)})]
    if kind in ("inside the certified range", "outside the certified range"):
        # rows whose float32 sums of squares step across the ends of the
        # range that certifies them, a float32 ulp at a time
        lo, hi = embank._unit_sums(d)
        rows = np.vstack([edge_rows(rng, math.sqrt(float(end)), 6, d)
                          for end in (lo, hi)])
        sums = np.einsum("ij,ij->i", rows, rows)
        inside = (sums >= lo) & (sums <= hi)
        assert inside.any() and not inside.all()
        return rows[inside if kind == "inside the certified range" else ~inside]
    base = unit_rows(rng, 4, d)
    if kind == "nan":
        base[:, 3] = np.nan
    elif kind == "inf":
        base[:, 3] = [np.inf, -np.inf, np.inf, -np.inf]
    elif kind == "squares overflow":  # entries near 2**64, so squares past 2**128
        base *= np.float32(2.0 ** 64) * np.array([[1], [0.75], [3], [4]], np.float32)
    elif kind == "squares underflow":  # subnormal entries, whose squares are 0
        base *= np.float32(2.0 ** -130) * np.array([[1], [2.0 ** -10], [0], [1]],
                                                   np.float32)
    else:  # "subnormal entries" in a unit row, which stays unit
        base[:, :6] = np.float32(2.0 ** -140)
        base[:, 6:] /= np.linalg.norm(base[:, 6:], axis=1, keepdims=True)
    return base


@pytest.mark.parametrize("kind", [
    "above 1 + tol", "below 1 - tol", "inside the certified range",
    "outside the certified range", "nan", "inf", "squares overflow",
    "squares underflow", "subnormal entries"])
def test_the_float32_screen_gives_the_verdicts_of_the_float64_check(
        tmp_path, monkeypatch, kind):
    """Each case row, in feats and in caption_feats, gets from validate, a
    full decode and a decode that skips caption_feats the verdicts and
    messages of the float64 check alone (float64_violations).  Only the
    8-row blocks the screen cannot certify are copied to float64: those
    holding a case row, unless the row is certified."""
    monkeypatch.setattr(embank, "_BLOCK_BYTES", 8 * 64)  # 8 rows of feats
    copied = []
    copy = embank.copy_with_norms
    monkeypatch.setattr(embank, "copy_with_norms",
                        lambda rows: copied.append(len(rows)) or copy(rows))
    rows = screen_cases(kind)
    base = random_bank(seed=41, m=20, d_img=3, d=16)
    lo, hi = embank._unit_sums(16)
    for row in rows:
        sums = float(np.einsum("i,i->", row, row))
        certified = lo <= sums <= hi
        feats, caption_feats = base.feats.copy(), base.caption_feats.copy()
        feats[3] = caption_feats[13] = row
        bank = EmbeddingBank(images=base.images, feats=feats,
                             caption_feats=caption_feats, captions=base.captions,
                             latent_class=base.latent_class)
        copied.clear()
        found = verdicts(bank, tmp_path / "case.datb")
        assert found == [float64_violations(bank)] * 3, (kind, row)
        # three reads, two blocks each (rows 0-7 of feats, 8-15 of
        # caption_feats), unless the row is certified
        assert copied == ([] if certified else [8, 8] * 3), (kind, row)
        if kind in ("inside the certified range", "subnormal entries"):
            assert certified and found[0] == []
        if kind in ("outside the certified range", "nan", "inf",
                    "squares overflow", "squares underflow"):
            assert not certified
        if kind in ("nan", "inf", "squares overflow", "squares underflow"):
            assert found[0]


def test_a_row_of_float32_max_is_off_unit_and_finite(tmp_path):
    """Its squares stay finite in float64, so its norm is finite and the
    non-finite check, which reads the norms first, finds nothing."""
    bank = random_bank(seed=32, m=40, d_img=5, d=16)
    bank.feats[17] = np.finfo(np.float32).max
    found = verdicts(bank, tmp_path / "max.datb")
    assert found == [whole_array_violations(bank)] * 3
    assert [v.split(" has ")[0] for v in found[0]] == ["feats row 17"]


@pytest.mark.parametrize("nan_row, inf_row", [(3, 9), (9, 3)])
def test_nan_and_inf_rows_in_one_piece(tmp_path, nan_row, inf_row):
    """The first non-finite entry of the piece is named, and the inf row,
    whose norm is inf, is off-unit too; the NaN row's NaN norm is not."""
    bank = random_bank(seed=33, m=40, d_img=5, d=16)
    bank.feats[nan_row, 5] = np.nan
    bank.feats[inf_row, ::2] = np.inf
    bank.feats[inf_row, 1::2] = -np.inf
    found = verdicts(bank, tmp_path / "nonfinite.datb")
    assert found == [whole_array_violations(bank)] * 3
    first = (3, 5) if nan_row == 3 else (3, 0)
    assert found[0] == [f"feats has non-finite value at index {first}",
                        f"feats row {inf_row} has norm inf, expected 1 within 1e-05"]


def test_a_piece_of_no_bytes_gets_no_float64_copy():
    """A piece of 2**40 rows of width 0, as a header with d = 0 makes:
    norms for it would take 8 TiB, so none are taken; the rows are off-unit,
    so the piece never reaches its feed."""
    fed = []
    found = embank._Violations(DATB.checks({}))
    see = found.visit("feats", lambda *piece: fed.append(piece))
    tracemalloc.start()
    try:
        see(np.empty((1 << 40, 0), np.float32), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    assert fed == [] and found.report() == [
        "feats row 0 has norm 0.00000000, expected 1 within 1e-05"]


def test_unit_rows_of_width_0_are_off_unit(tmp_path):
    """A row of no entries has norm 0, so it is no unit row: in memory, in
    a bank file, whose feats never reach a consumer, and in a dataset."""
    m = 3
    bank = EmbeddingBank(images=np.zeros((m, 2), np.float32),
                         feats=np.zeros((m, 0), np.float32),
                         caption_feats=np.zeros((m, 0), np.float32),
                         captions=["a", "b", "c"],
                         latent_class=np.full(m, -1, np.int32))
    expected = [f"{name} row 0 has norm 0.00000000, expected 1 within 1e-05"
                for name in ("feats", "caption_feats")]
    assert validate(DATB, bank) == expected
    with pytest.raises(ValidationError):
        encode_bank_file(bank, tmp_path / "never.datb")
    path = tmp_path / "narrow.datb"
    write_bank_unchecked(bank, path)
    fed = []
    with pytest.raises(ValidationError) as raised:
        embank.read_bank(path, (), lambda *piece: fed.append(piece))
    assert raised.value.violations == expected and fed == []
    ds = DownstreamDataset(images=np.zeros((2, 2), np.float32),
                           labels=np.zeros(2, np.int32), class_names=["x"],
                           class_descriptions=["y"],
                           class_text_feats=np.zeros((1, 0), np.float32))
    assert validate(DATD, ds) == [
        "class_text_feats row 0 has norm 0.00000000, expected 1 within 1e-05"]


def test_a_bank_in_memory_is_read_as_its_file(tmp_path, monkeypatch):
    """read_fields hands an EmbeddingBank's feats and latent_class to their
    feeds in the pieces it hands its DATB file's, bit for bit, checking the
    bank in memory as validate does: each piece of feats with the same
    first row and float32 sums of squares, each of latent_class with
    none."""
    bank = random_bank(seed=5, m=40, d=4)
    path = tmp_path / "bank.datb"
    encode_bank_file(bank, path)
    monkeypatch.setattr(embank, "_BLOCK_BYTES", 3 * 16)  # 3 feats rows a piece
    handed = []
    for source in (bank, path):
        feats, latent = [], []
        feeds = {"feats": lambda rows, row0, sums: feats.append(
                     (row0, rows.tobytes(), sums.dtype, sums.tobytes())),
                 "latent_class": lambda classes, row0, sums: latent.append(
                     (row0, classes.tobytes(), sums))}
        embank.read_fields(DATB, source, (), True, feeds)
        handed.append((feats, latent))
    (feats, latent), (file_feats, file_latent) = handed
    assert [piece[0] for piece in feats] == list(range(0, 40, 3))
    assert feats == file_feats
    assert {dtype for _, _, dtype, _ in feats} == {np.dtype(np.float32)}
    assert [row0 for row0, _, _ in latent] == [0, 12, 24, 36]
    assert latent == file_latent
    assert {sums for _, _, sums in latent} == {None}
    assert b"".join(piece for _, piece, _ in latent) == bank.latent_class.tobytes()


def test_rows_are_asked_for_once_after_the_last_piece_of_feats(tmp_path,
                                                             monkeypatch):
    """read_bank calls a rows function once, when it reaches the first kept
    field, here caption_feats, after the last piece of feats, from a file
    and in memory alike, and still refuses an id outside the bank."""
    bank = random_bank(seed=8, m=40, d=4)
    path = tmp_path / "bank.datb"
    encode_bank_file(bank, path)
    monkeypatch.setattr(embank, "_BLOCK_BYTES", 3 * 16)  # 3 feats rows a piece
    for source in (bank, path):
        events = []

        def ids():
            events.append("rows")
            return [7, 2, 39]
        kept = embank.read_bank(source, ("caption_feats", "latent_class"),
                                lambda rows, row0, *unit: events.append(row0),
                                ids)[0]
        assert events == [*range(0, 40, 3), "rows"]
        assert np.array_equal(kept.caption_feats, bank.caption_feats[[7, 2, 39]])
        assert np.array_equal(kept.latent_class, bank.latent_class[[7, 2, 39]])
        with pytest.raises(ValidationError,
                           match="^selected record id 40 is outside the bank's 40 "):
            embank.read_bank(source, ("latent_class",), rows=lambda: [3, 40])


def test_a_bank_in_memory_runs_no_check_of_the_feats_it_hands_on(monkeypatch):
    """A bank the program made runs no check, not even of the feats handed
    to feats_to, which need none: it takes no float64 copy and no sum of
    squares, and its feed gets each piece of feats with sums None, for the
    selector to take.  The same bank as a file would fail its checks."""
    bank = random_bank(seed=6, m=40, d=4)
    bank.feats[5] *= 2  # off-unit, which only a check would see
    monkeypatch.setattr(embank, "_BLOCK_BYTES", 3 * 16)
    copied, summed = [], []
    copy = embank.copy_with_norms
    monkeypatch.setattr(embank, "copy_with_norms",
                        lambda rows: copied.append(len(rows)) or copy(rows))
    monkeypatch.setattr(embank, "_unit_sums",
                        lambda d: summed.append(d) or (np.float32(1), np.float32(1)))
    rows = decode_bank_file(bank, ("images", "caption_feats"), rows=[7, 2])
    assert np.array_equal(rows.images, bank.images[[7, 2]])
    fed = []
    embank.read_bank(bank, (), lambda rows, row0, sums: fed.append((len(rows), sums)))
    assert fed == [(3, None)] * 13 + [(1, None)]
    assert copied == summed == []
    assert validate(DATB, bank) == [
        f"feats row 5 has norm {np.linalg.norm(bank.feats[5].astype(np.float64)):.8f}, "
        f"expected 1 within {UNIT_NORM_TOL}"]
