import hashlib
import io
import json
import struct
import sys
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

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
from segspectral.ngram import ModelMeta

FLOAT_MAX = int(sys.float_info.max)


def roundtrip(model: NGramModel) -> NGramModel:
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    return load_model(buf)


def test_roundtrip_trained_model():
    m = ingest_corpus(["天安门广场", "天安门", "门口"], source="toy.txt")
    back = roundtrip(m)
    assert back == m  # dataclass equality covers counts, sds, meta
    assert back.log_sd_bi == m.log_sd_bi  # float fields survive bit-exactly


def test_roundtrip_empty_model():
    assert roundtrip(NGramModel()) == NGramModel()


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
    # One corpus gives one file, on every supported Python version.
    buf = io.BytesIO()
    save_model(ingest_corpus(golden_lines(), source="golden"), buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == (
        "7ebd0338080fef1c80e06fdcc0edde414b56214da630cb6f919d8f14a55d0e0c"
    )


def test_encoding_is_canonical():
    a = NGramModel(uni={"天": 1, "安": 2}, bi={}, tri={}, total_uni=3)
    b = NGramModel(uni={"安": 2, "天": 1}, bi={}, tri={}, total_uni=3)
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


counts = st.dictionaries(
    st.text(min_size=1, max_size=3), st.integers(min_value=1, max_value=2**40), max_size=8
)
finite = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(uni=counts, bi=counts, tri=counts, sd_bi=finite, sd_tri=finite, source=st.text(max_size=20))
def test_roundtrip_property(uni, bi, tri, sd_bi, sd_tri, source):
    m = NGramModel(
        uni=uni,
        bi=bi,
        tri=tri,
        total_uni=sum(uni.values()),
        log_sd_bi=sd_bi,
        log_sd_tri=sd_tri,
        meta=ModelMeta(source=source, line_count=len(uni)),
    )
    assert roundtrip(m) == m


# Keys from an alphabet holding the first two separator candidates, NUL,
# a character outside the Basic Multilingual Plane, and the empty key.
hostile_counts = st.dictionaries(
    st.text(alphabet=["\n", "\x0b", "\x00", "\U00020000", "天", "a"], max_size=3),
    st.integers(min_value=0, max_value=FLOAT_MAX),
    max_size=8,
)


@given(uni=hostile_counts, bi=hostile_counts, tri=hostile_counts, sd_bi=finite, sd_tri=finite)
def test_roundtrip_property_on_hostile_keys(uni, bi, tri, sd_bi, sd_tri):
    # bi always holds both candidates, and a count past 64 bits
    bi = {**bi, "\n": 2**64, "\x0b\x00": 0}
    m = NGramModel(
        uni=uni, bi=bi, tri=tri, total_uni=sum(uni.values()), log_sd_bi=sd_bi, log_sd_tri=sd_tri
    )
    data = _encode_model(m)
    assert split_payload(data)[0]["bi"]["sep"] == "\x0c"
    back = load_model(io.BytesIO(data))
    assert back == m
    assert (back.log_sd_bi.hex(), back.log_sd_tri.hex()) == (sd_bi.hex(), sd_tri.hex())
    for got, want in ((back.uni, uni), (back.bi, bi), (back.tri, tri)):
        assert list(got) == sorted(want)  # code-point key order


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


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("bi", "keys", "1"),
        ("uni", "bytes", True),
        ("tri", "keys", -1),
        ("uni", "keys", 1.0),
        ("bi", None, [["天安", 1]]),
        ("log_sd_bi", None, 1),
        ("log_sd_tri", None, None),
        ("log_sd_bi", None, 0.0),
        ("log_sd_tri", None, -1.5),
        ("log_sd_bi", None, float("nan")),
        ("log_sd_tri", None, float("inf")),
        ("total_uni", None, -1),
        ("line_count", None, False),
        ("source", None, 3),
        ("extra", None, 0),
        ("source", None, DROP),
        ("uni", None, DROP),
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
        "total-negative", "line-count-bool", "source-int",
        "extra-key", "missing-source", "missing-uni",
        "missing-map-field", "extra-map-field", "sep-empty", "sep-two-chars", "sep-int",
        "big-not-a-list", "big-not-a-pair", "big-index-past-keys", "big-index-decreasing",
        "big-index-repeated", "big-index-negative", "big-count-below-2-64", "big-count-float",
        "big-count-true", "big-count-string",
    ],
)
def test_crc_valid_payload_with_wrong_content(key, field, value):
    # each case breaks the header of a file whose sections stay valid
    header, sections = payload_parts()
    target, name = (header, key) if field is None else (header[key], field)
    if value is DROP:
        del target[name]
    else:
        target[name] = value
    with pytest.raises(ModelFormatError):
        load_model(io.BytesIO(assembled(header, sections)))


@pytest.mark.parametrize("key", ["uni", "bi", "tri"])
def test_count_too_large_for_a_float_is_refused_at_load(key):
    # Segmenting reads counts as floats; the largest float, as an int, loads.
    header, sections = payload_parts()
    header[key]["big"] = [[0, FLOAT_MAX]]
    assert getattr(load_model(io.BytesIO(assembled(header, sections))), key)[
        next(iter(getattr(ingest_corpus(["天安门"]), key)))
    ] == FLOAT_MAX
    header[key]["big"] = [[0, 10**400]]
    with pytest.raises(ModelFormatError, match=f"{key} holds a count too large for a float"):
        load_model(io.BytesIO(assembled(header, sections)))


def edited(header: dict, key: str, **fields) -> dict:
    """header with fields of one map's entry replaced."""
    return {**header, key: {**header[key], **fields}}


def duplicate_key_file() -> bytes:
    # both bigrams are two characters, so the key text keeps its length
    header, sections = split_payload(_encode_model(NGramModel(bi={"天安": 1, "安门": 2})))
    return assembled(header, sections.replace("安门".encode(), "天安".encode()))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda h, s: assembled(h, s[:-1]), "tri section runs past the payload"),
        (lambda h, s: assembled(h, s + b"\x00"), "1 bytes left after the last section"),
        (lambda h, s: assembled(edited(h, "bi", sep="\x0b"), s), "bi key text splits into 1 keys"),
        # the trigram's key text, but no key and no count
        (lambda h, s: assembled(edited(h, "tri", keys=0), s[:-8]), "tri key text splits into 1 keys"),
        (lambda h, s: assembled(h, b"\xff" + s[1:]), "uni key text is not UTF-8"),
        (lambda h, s: duplicate_key_file(), "bi holds a duplicate key"),
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
    with pytest.raises(ModelFormatError, match=message):
        load_model(io.BytesIO(make(*payload_parts())))


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
    header["bi"]["big"] = [[0, "count"]]
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


@pytest.mark.parametrize("key", ["bi", "tri"])
def test_sd_that_overflows_the_log_counts_is_refused(key, tmp_path, capsys):
    # 5e-324 is a positive finite float, but ln 2 over it is not finite
    trained = ingest_corpus(["天安门", "天安门"], source="x")
    data = _encode_model(replace(trained, **{f"log_sd_{key}": 5e-324}))
    with pytest.raises(ModelFormatError, match=f"log_sd_{key} 5e-324"):
        load_model(io.BytesIO(data))
    rc, err = segment_exit(tmp_path, data, capsys)
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: ") and f"log_sd_{key}" in err
    # the smallest normal float still leaves ln 2 over it finite
    load_model(io.BytesIO(_encode_model(replace(trained, **{f"log_sd_{key}": sys.float_info.min}))))


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


def test_version_1_file_must_be_retrained(tmp_path, capsys):
    with pytest.raises(ModelVersionError, match="unsupported model version 1, expected 3"):
        load_model(io.BytesIO(V1_EMPTY_MODEL))
    rc, err = segment_exit(tmp_path, V1_EMPTY_MODEL, capsys)
    assert rc == 1
    assert "unsupported model version 1, expected 3" in err


def test_version_2_file_must_be_retrained(tmp_path, capsys):
    with pytest.raises(ModelVersionError, match="unsupported model version 2, expected 3"):
        load_model(io.BytesIO(V2_EMPTY_MODEL))
    rc, err = segment_exit(tmp_path, V2_EMPTY_MODEL, capsys)
    assert rc == 1
    assert "unsupported model version 2, expected 3" in err
