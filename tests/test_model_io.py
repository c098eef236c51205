import hashlib
import io
import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

from segspectral import (
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
    NGramModel,
    SynthSpec,
    generate_synthetic,
    ingest_corpus,
    load_model,
    save_model,
)
from segspectral.cli import main
from segspectral.model_io import MAGIC, VERSION, _encode_model


def roundtrip(model: NGramModel) -> NGramModel:
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    return load_model(buf)


def test_roundtrip_trained_model():
    m = ingest_corpus(["天安门广场", "天安门", "门口"], source="toy.txt")
    back = roundtrip(m)
    assert back == m  # equality covers keys, counts, source and line count
    # the file holds no sds: they are worked out from the counts, to the bit
    assert (back.log_sd_bi.hex(), back.log_sd_tri.hex()) == (m.log_sd_bi.hex(), m.log_sd_tri.hex())


def test_roundtrip_empty_model():
    assert roundtrip(NGramModel()) == NGramModel()
    # A model leaves comparing with what is not a model to the other side.
    assert NGramModel.__eq__(NGramModel(), "x") is NotImplemented
    assert NGramModel() != "x" and NGramModel() != None  # noqa: E711


def test_roundtrip_via_path(tmp_path):
    m = ingest_corpus(["天安门"], source="p")
    path = tmp_path / "model.bin"
    save_model(m, path)
    assert load_model(path) == m


def golden_lines() -> list[str]:
    """A fixed synthetic corpus of several ingest chunks, then edge lines:
    mixed scripts, a NUL, a lone surrogate, U+20000 (not Chinese here),
    Extension A, and CRLF-ended text."""
    lines, _ = generate_synthetic(SynthSpec(vocab_size=60, sentences=2000, seed=11))
    return lines + [
        "天安门abc广场123。",
        "天\x00安门",
        "门\ud800场广",
        "天\U00020000安门",
        "\u3400\u4dbf\u3400\u4e00",
        "天安门广场\r\n广场\r\n",
    ]


def test_golden_model_bytes():
    # One corpus gives one file, and one pair of sds, on every supported
    # Python version.
    buf = io.BytesIO()
    model = ingest_corpus(golden_lines(), source="golden")
    save_model(model, buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == (
        "e06d88165cde4f90f52f90a40170be24aec59e9fc792c2939c998e0331a02aec"
    )
    assert (model.log_sd_bi.hex(), model.log_sd_tri.hex()) == ("0x1.e94655e75d0e6p-1", "0x1.5e40c7d4b0d09p-1")


def test_encoding_is_canonical():
    a = NGramModel.from_counts(uni={"天": 1, "安": 2})
    b = NGramModel.from_counts(uni={"安": 2, "天": 1})
    assert _encode_model(a) == _encode_model(b)


def test_bad_magic():
    data = bytearray(_encode_model(NGramModel()))
    data[:4] = b"NOPE"
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(io.BytesIO(bytes(data)))
    for short in (b"garbage", b"NO"):  # shorter than a header
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(io.BytesIO(short))


def test_unsupported_version():
    data = bytearray(_encode_model(NGramModel()))
    data[4:6] = struct.pack("<H", VERSION + 1)
    with pytest.raises(ModelVersionError, match=f"version {VERSION + 1}"):
        load_model(io.BytesIO(bytes(data)))


def test_truncation():
    data = _encode_model(ingest_corpus(["天安门"]))
    for cut in (3, 5, 10, len(data) - 1):
        with pytest.raises(ModelTruncatedError):
            load_model(io.BytesIO(data[:cut]))


def test_checksum_mismatch():
    data = bytearray(_encode_model(ingest_corpus(["天安门"], source="x")))
    data[-5] ^= 0xFF  # last payload byte, just before the stored CRC
    with pytest.raises(ModelChecksumError, match="checksum"):
        load_model(io.BytesIO(bytes(data)))


def test_trailing_garbage():
    data = _encode_model(NGramModel())
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(io.BytesIO(data + b"x"))


def test_magic_constant():
    assert _encode_model(NGramModel())[:4] == MAGIC == b"SGSP"


def counts_of_order(order, alphabet=st.characters(), counts=st.integers(min_value=1, max_value=2**40)):
    return st.dictionaries(st.text(alphabet, min_size=order, max_size=order), counts, max_size=8)


@given(
    uni=counts_of_order(1),
    bi=counts_of_order(2),
    tri=counts_of_order(3),
    source=st.text(max_size=20),
)
def test_roundtrip_property(uni, bi, tri, source):
    m = NGramModel.from_counts(uni, bi, tri, source=source, line_count=len(uni))
    assert roundtrip(m) == m


# Keys of Chinese characters, the range ends among them, characters
# outside the Basic Multilingual Plane up to the last code point, a lone
# surrogate and NUL; counts over the whole 64-bit range but 0, which no
# stored key has.
hostile = st.sampled_from(["天", "门", "一", "鿿", "\U00020000", "\U0010ffff", "\ud800", "\x00"])
hostile_counts = st.integers(min_value=1, max_value=2**64 - 1)


@given(
    uni=counts_of_order(1, hostile, hostile_counts),
    bi=counts_of_order(2, hostile, hostile_counts),
    tri=counts_of_order(3, hostile, hostile_counts),
)
def test_roundtrip_property_on_hostile_keys(uni, bi, tri):
    m = NGramModel.from_counts(uni, bi, tri)
    back = load_model(io.BytesIO(_encode_model(m)))
    assert back == m
    assert back.counts.dtype == np.uint64 and back.counts.tobytes() == m.counts.tobytes()
    assert (back.log_sd_bi.hex(), back.log_sd_tri.hex()) == (m.log_sd_bi.hex(), m.log_sd_tri.hex())
    for got, want in ((back.uni, uni), (back.bi, bi), (back.tri, tri)):
        assert got == want
        assert list(got) == sorted(want)  # code-point key order


@given(
    uni=counts_of_order(1, hostile, hostile_counts),
    bi=counts_of_order(2, hostile, hostile_counts),
    tri=counts_of_order(3, hostile, hostile_counts),
    source=st.text(max_size=20),
    line_count=st.integers(min_value=0, max_value=2**64),
)
def test_every_model_that_constructs_round_trips(uni, bi, tri, source, line_count):
    try:
        m = NGramModel.from_counts(uni, bi, tri, source=source, line_count=line_count)
    except ValueError:
        reject()
    back = roundtrip(m)
    assert back == m
    assert (back.log_sd_bi.hex(), back.log_sd_tri.hex()) == (m.log_sd_bi.hex(), m.log_sd_tri.hex())


@pytest.mark.parametrize(
    "order, counts",
    [("uni", {"天安": 1}), ("bi", {"天": 1, "天安": 2}), ("tri", {"天安": 3}), ("bi", {"": 1})],
)
def test_from_counts_refuses_a_key_of_another_length(order, counts):
    with pytest.raises(ValueError, match="does not have"):
        NGramModel.from_counts(**{order: counts})


@pytest.mark.parametrize("count", [2**64, 2**70, -1, 1.5, True, "3"], ids=repr)
def test_count_outside_uint64_is_refused_at_construction(count):
    message = f"count {re.escape(repr(count))} is not an integer from 1 to 2\\*\\*64 - 1"
    with pytest.raises(ValueError, match=message):
        NGramModel.from_counts(uni={"天": 1, "安": count})
    # the largest 64-bit count is kept, and saved
    assert roundtrip(NGramModel.from_counts(bi={"天安": 2**64 - 1})).bi == {"天安": 2**64 - 1}


def test_zero_count_is_refused(tmp_path, capsys):
    # An absent key is count 0, so a stored one is at least 1: in a count
    # dict, in the arrays and in a file.
    with pytest.raises(ValueError, match="count 0 is not an integer from 1 to"):
        NGramModel.from_counts(uni={"天": 1}, bi={"天安": 0})
    trained = ingest_corpus(["天安门"], source="x")
    zeroed = trained.counts.copy()
    zeroed[1] = 0
    message = f"key {int(trained.keys[1]):#018x} has count 0, and a stored count must be at least 1"
    with pytest.raises(ValueError, match=message):
        NGramModel(trained.keys, zeroed)
    data = assembled(payload_parts()[0], sections_of(trained.keys, zeroed))
    with pytest.raises(ModelFormatError, match=message):
        load_model(io.BytesIO(data))
    rc, err = segment_exit(tmp_path, data, capsys)
    assert rc == 1
    assert err == f"error: cannot load model {tmp_path / 'model.bin'}: {message}\n"


def framed(payload: bytes) -> bytes:
    """A current-version file around payload, with a valid CRC."""
    header = struct.pack("<4sHQ", MAGIC, VERSION, len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(payload))


def split_payload(data: bytes) -> tuple[dict, bytes]:
    """The header object of a file and the sections after it."""
    payload = data[14:-4]
    (size,) = struct.unpack_from("<I", payload)
    return json.loads(payload[4 : 4 + size].decode("utf-8")), payload[4 + size :]


def with_header(raw: bytes, sections: bytes) -> bytes:
    """A file with CRC-valid header bytes raw, then sections."""
    return framed(struct.pack("<I", len(raw)) + raw + sections)


def assembled(header: dict, sections: bytes) -> bytes:
    return with_header(json.dumps(header).encode("utf-8"), sections)


def payload_parts() -> tuple[dict, bytes]:
    return split_payload(_encode_model(ingest_corpus(["天安门"], source="x")))


def test_framed_payload_round_trips():
    # any JSON spelling of the header loads, not only the canonical one
    data = assembled(*payload_parts())
    assert load_model(io.BytesIO(data)) == ingest_corpus(["天安门"], source="x")


DROP = object()
# A map entry of the version-3 header, which a version-6 header no longer holds.
V3_ENTRY = {"keys": 3, "bytes": 8, "sep": "\n", "big": []}


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("keys", None, "1"),
        ("keys", None, True),
        ("keys", None, -1),
        ("keys", None, 6.0),
        ("keys", None, [6]),
        ("log_sd_bi", None, 1),
        ("log_sd_tri", None, None),
        ("log_sd_bi", None, 0.0),
        ("log_sd_tri", None, -1.5),
        ("log_sd_bi", None, float("nan")),
        ("log_sd_tri", None, float("inf")),
        ("line_count", None, -1),
        ("line_count", None, False),
        ("source", None, 3),
        ("source", None, "\udcff"),
        ("extra", None, 0),
        ("total_uni", None, 0),
        ("source", None, DROP),
        ("uni", None, V3_ENTRY),
        ("tri", "big", DROP),
        ("bi", "order", 2),
        ("bi", "sep", ""),
        ("uni", "sep", "\n\x0b"),
        ("tri", "sep", 10),
        ("uni", "big", {}),
        ("bi", "big", [[0]]),
        ("uni", "big", [[3, 2**64]]),
        ("uni", "big", [[1, 2**64], [0, 2**64]]),
        ("uni", "big", [[0, 2**64], [0, 2**64]]),
        ("tri", "big", [[-1, 2**64]]),
        ("bi", "big", [[0, 2**64 - 1]]),
        ("tri", "big", [[0, 2.0**70]]),
        ("uni", "big", [[0, True]]),
        ("bi", "big", [[0, "18446744073709551616"]]),
    ],
    ids=[
        "count-string", "count-true", "count-negative", "count-float", "counts-list",
        "sd-int", "sd-null", "sd-zero", "sd-negative", "sd-nan", "sd-inf",
        "line-count-negative", "line-count-bool", "source-int",
        "source-surrogate", "extra-key", "total-uni-key", "missing-source", "missing-uni",
        "missing-map-field", "extra-map-field", "sep-empty", "sep-two-chars", "sep-int",
        "big-not-a-list", "big-not-a-pair", "big-index-past-keys", "big-index-decreasing",
        "big-index-repeated", "big-index-negative", "big-count-below-2-64", "big-count-float",
        "big-count-true", "big-count-string",
    ],
)
def test_crc_valid_payload_with_wrong_content(key, field, value):
    # Each case breaks the header of a file whose sections stay valid. A
    # case with a field puts a version-3 map entry, that field changed or
    # dropped, into the header, and so does missing-uni: a version-6
    # header holds no map entries, whatever they hold. total-uni-key puts
    # back the unigram total that version 4 wrote, and each sd case one of
    # the log-count sds that versions 1 to 5 wrote, of any value.
    header, sections = payload_parts()
    target, name = (header, key) if field is None else (header.setdefault(key, dict(V3_ENTRY)), field)
    if value is DROP:
        del target[name]
    else:
        target[name] = value
    with pytest.raises(ModelFormatError):
        load_model(io.BytesIO(assembled(header, sections)))


def sections_of(keys, counts) -> bytes:
    return np.asarray(keys, "<u8").tobytes() + np.asarray(counts, "<u8").tobytes()


def keys_file(change) -> bytes:
    """The file of ingest_corpus(["天安门"]) with its key list changed by
    change, each new key with count 1."""
    header, sections = payload_parts()
    n = header["keys"]
    keys = np.frombuffer(sections, "<u8", n).tolist()
    counts = dict(zip(keys, np.frombuffer(sections, "<u8", n, 8 * n).tolist()))
    keys = change(keys)
    return assembled({**header, "keys": len(keys)}, sections_of(keys, [counts.get(k, 1) for k in keys]))


BI, UNI = 1 << 63, 3 << 62
TIAN, AN = ord("天"), ord("安")


def added(*extra):
    return lambda keys: sorted(keys + list(extra))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda h, s: assembled(h, s[:-8]), "6 keys and counts take 96 bytes, but 88 follow it"),
        (lambda h, s: assembled(h, s + b"\x00"), "take 96 bytes, but 97 follow it"),
        (lambda h, s: assembled({**h, "keys": 5}, s), "5 keys and counts take 80 bytes, but 96 follow it"),
        (lambda h, s: assembled({**h, "keys": 0}, s), "0 keys and counts take 0 bytes, but 96 follow it"),
        (lambda h, s: keys_file(added(UNI | 0x110000)), "order 1 holds a code point past U\\+10FFFF"),
        (lambda h, s: keys_file(lambda k: k[:3] + k[2:5]), "not strictly increasing"),
        (lambda h, s: framed(struct.pack("<I", 10**6) + b"{}"), "header runs past the payload"),
        (lambda h, s: framed(b"{}"), "holds no header length"),
    ],
    ids=[
        "section-past-payload", "bytes-after-last-section", "split-count-differs",
        "key-text-for-no-keys", "key-text-not-utf8", "duplicate-key", "header-past-payload",
        "no-header-length",
    ],
)
def test_crc_valid_payload_with_broken_sections(make, message):
    # key-text-not-utf8: a key's code points must make text, as the
    # version-3 key text had to be UTF-8
    with pytest.raises(ModelFormatError, match=message):
        load_model(io.BytesIO(make(*payload_parts())))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda k: [k[1], k[0], *k[2:]], "not strictly increasing"),
        (lambda k: k[:-1] + [k[-1], k[-1]], "not strictly increasing"),
        (added(UNI | 1 << 40 | TIAN), "sets bits its order 1 leaves unused"),
        (added(BI | 1 << 50 | TIAN << 21 | AN), "sets bits its order 2 leaves unused"),
        # a bigram key with bit 62 set sorts among the unigrams
        (added(UNI | TIAN << 21 | AN), "sets bits its order 1 leaves unused"),
        (added(2**64 - 1), "sets bits its order 1 leaves unused"),
        (added(BI | 0x110000 << 21 | AN), "order 2 holds a code point past U\\+10FFFF"),
        (added(BI | TIAN << 21 | 0x1FFFFF), "order 2 holds a code point past U\\+10FFFF"),
        (added(0x110000 << 42 | TIAN << 21 | AN), "order 3 holds a code point past U\\+10FFFF"),
        (added(TIAN << 42 | 0x110000 << 21 | AN), "order 3 holds a code point past U\\+10FFFF"),
        (added(TIAN << 42 | AN << 21 | 0x110000), "order 3 holds a code point past U\\+10FFFF"),
    ],
    ids=[
        "out-of-order", "duplicated", "uni-unused-bits", "bi-unused-bits", "bi-bit-62",
        "sentinel", "bi-first-past-max", "bi-second-past-max", "tri-first-past-max",
        "tri-second-past-max", "tri-third-past-max",
    ],
)
def test_crc_valid_payload_with_bad_keys(change, message):
    with pytest.raises(ModelFormatError, match=message):
        load_model(io.BytesIO(keys_file(change)))


def test_last_code_point_and_full_counts_load():
    # U+10FFFF is a code point, and a count may take all 64 bits
    data = keys_file(added(UNI | 0x10FFFF, BI | 0x10FFFF << 21 | 0x10FFFF))
    header, sections = split_payload(data)
    counts = np.frombuffer(sections, "<u8", header["keys"], 8 * header["keys"]).copy()
    counts[:] = 2**64 - 1
    model = load_model(io.BytesIO(assembled(header, sections[: 8 * len(counts)] + counts.tobytes())))
    assert model.uni["\U0010ffff"] == model.bi["\U0010ffff" * 2] == 2**64 - 1


@pytest.mark.parametrize(
    "header",
    [
        b"[]",
        b'"model"',
        b"",
        b"{",
        b"[" * 100_000,
        b'{"source": "\xff"}',
    ],
    ids=["array", "string", "empty", "unterminated", "deeply-nested", "bad-utf8"],
)
def test_crc_valid_payload_that_is_not_a_utf8_json_object(header):
    with pytest.raises(ModelFormatError):
        load_model(io.BytesIO(with_header(header, payload_parts()[1])))


def test_crc_valid_payload_with_an_integer_past_the_digit_limit():
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer of more than 4300 digits.
    header, sections = payload_parts()
    header["line_count"] = "count"
    raw = json.dumps(header).replace('"count"', "9" * 5000).encode("utf-8")
    with pytest.raises(ModelFormatError, match="not UTF-8 JSON"):
        load_model(io.BytesIO(with_header(raw, sections)))


def test_utf16_payload_is_rejected():
    # json.loads(bytes) would detect UTF-16 and accept this valid object
    header, sections = payload_parts()
    raw = json.dumps(header, ensure_ascii=False).encode("utf-16")
    with pytest.raises(ModelFormatError, match="UTF-8"):
        load_model(io.BytesIO(with_header(raw, sections)))


def segment_exit(tmp_path, data: bytes, capsys) -> tuple[int, str]:
    """segment's exit status and standard error on one line with the model data."""
    model = tmp_path / "model.bin"
    model.write_bytes(data)
    lines = tmp_path / "in.txt"
    lines.write_text("天安门\n", encoding="utf-8")
    rc = main(["segment", "--model", str(model), "--input", str(lines)])
    return rc, capsys.readouterr().err


# An empty model as the version-1 format wrote it: SGSP, u16 version 1,
# five length-prefixed binary sections, CRC-32.
V1_EMPTY_MODEL = bytes.fromhex(
    "53475350010004000000000000000400000000000000040000000000000018000000"
    "000000000000f03f000000000000f03f00000000000000000a000000000000000000"
    "000000004d4b7934"
)
# An empty model as the version-2 format wrote it: SGSP, u16 version 2,
# u64 payload length, one JSON object, CRC-32.
V2_EMPTY_MODEL = bytes.fromhex(
    "53475350020065000000000000007b226269223a7b7d2c226c696e655f636f756e74"
    "223a302c226c6f675f73645f6269223a312e302c226c6f675f73645f747269223a31"
    "2e302c22736f75726365223a22222c22746f74616c5f756e69223a302c2274726922"
    "3a7b7d2c22756e69223a7b7d7d3d2b9244"
)
# An empty model as the version-3 format wrote it: SGSP, u16 version 3,
# u64 payload length, u32 header length, a JSON header with one entry per
# count map, no key text and no counts, CRC-32.
V3_EMPTY_MODEL = bytes.fromhex(
    "534753500300db00000000000000d70000007b226269223a7b22626967223a5b5d2c"
    "226279746573223a302c226b657973223a302c22736570223a225c6e227d2c226c69"
    "6e655f636f756e74223a302c226c6f675f73645f6269223a312e302c226c6f675f73"
    "645f747269223a312e302c22736f75726365223a22222c22746f74616c5f756e6922"
    "3a302c22747269223a7b22626967223a5b5d2c226279746573223a302c226b657973"
    "223a302c22736570223a225c6e227d2c22756e69223a7b22626967223a5b5d2c2262"
    "79746573223a302c226b657973223a302c22736570223a225c6e227d7d58f27acd"
)
# An empty model as the version-4 format wrote it: SGSP, u16 version 4,
# u64 payload length, u32 header length, a JSON header that holds the
# unigram total, no keys and no counts, CRC-32.
V4_EMPTY_MODEL = bytes.fromhex(
    "5347535004005800000000000000540000007b226b657973223a302c226c696e655f"
    "636f756e74223a302c226c6f675f73645f6269223a312e302c226c6f675f73645f74"
    "7269223a312e302c22736f75726365223a22222c22746f74616c5f756e69223a307d"
    "5a766551"
)
# An empty model as the version-5 format wrote it: SGSP, u16 version 5,
# u64 payload length, u32 header length, a JSON header that holds the
# two log-count sds, no keys and no counts, CRC-32.
V5_EMPTY_MODEL = bytes.fromhex(
    "5347535005004a00000000000000460000007b226b657973223a302c226c696e655f"
    "636f756e74223a302c226c6f675f73645f6269223a312e302c226c6f675f73645f74"
    "7269223a312e302c22736f75726365223a22227d3bc68dca"
)


def refused_as_old(version: int, data: bytes, tmp_path, capsys) -> None:
    message = f"unsupported model version {version}, expected 6"
    with pytest.raises(ModelVersionError, match=message):
        load_model(io.BytesIO(data))
    rc, err = segment_exit(tmp_path, data, capsys)
    assert rc == 1
    assert message in err


def test_version_1_file_must_be_retrained(tmp_path, capsys):
    refused_as_old(1, V1_EMPTY_MODEL, tmp_path, capsys)


def test_version_2_file_must_be_retrained(tmp_path, capsys):
    refused_as_old(2, V2_EMPTY_MODEL, tmp_path, capsys)


def test_version_3_file_must_be_retrained(tmp_path, capsys):
    refused_as_old(3, V3_EMPTY_MODEL, tmp_path, capsys)


def test_version_4_file_must_be_retrained(tmp_path, capsys):
    refused_as_old(4, V4_EMPTY_MODEL, tmp_path, capsys)


def test_version_5_file_must_be_retrained(tmp_path, capsys):
    refused_as_old(5, V5_EMPTY_MODEL, tmp_path, capsys)
