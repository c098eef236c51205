import hashlib
import io
import json
import struct
import sys
import zlib

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
        "b1e8f114c01150705ecf6d35213db0cfee5013b38fc217bd7e8c556284055060"
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


def framed(payload: bytes) -> bytes:
    """A current-version file around payload, with a valid CRC."""
    header = struct.pack("<4sHQ", MAGIC, VERSION, len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(payload))


def payload_object() -> dict:
    data = _encode_model(ingest_corpus(["天安门"], source="x"))
    return json.loads(data[14:-4].decode("utf-8"))


def test_framed_payload_round_trips():
    obj = payload_object()
    data = framed(json.dumps(obj).encode("utf-8"))
    assert load_model(io.BytesIO(data)) == ingest_corpus(["天安门"], source="x")


DROP = object()


@pytest.mark.parametrize(
    "key, value",
    [
        ("bi", {"天安": "1"}),
        ("uni", {"天": True}),
        ("tri", {"天安门": -1}),
        ("uni", {"天": 1.0}),
        ("bi", [["天安", 1]]),
        ("log_sd_bi", 1),
        ("log_sd_tri", None),
        ("log_sd_bi", 0.0),
        ("log_sd_tri", -1.5),
        ("log_sd_bi", float("nan")),
        ("log_sd_tri", float("inf")),
        ("total_uni", -1),
        ("line_count", False),
        ("source", 3),
        ("extra", 0),
        ("source", DROP),
        ("uni", DROP),
    ],
    ids=[
        "count-string", "count-true", "count-negative", "count-float", "counts-list",
        "sd-int", "sd-null", "sd-zero", "sd-negative", "sd-nan", "sd-inf",
        "total-negative", "line-count-bool", "source-int",
        "extra-key", "missing-source", "missing-uni",
    ],
)
def test_crc_valid_payload_with_wrong_content(key, value):
    obj = payload_object()
    if value is DROP:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ModelFormatError):
        load_model(io.BytesIO(framed(json.dumps(obj).encode("utf-8"))))


@pytest.mark.parametrize("key", ["uni", "bi", "tri"])
def test_count_too_large_for_a_float_is_refused_at_load(key):
    # Segmenting reads counts as floats; the largest float, as an int, loads.
    obj = payload_object()
    first = next(iter(obj[key]))
    obj[key][first] = int(sys.float_info.max)
    load_model(io.BytesIO(framed(json.dumps(obj).encode("utf-8"))))
    obj[key][first] = 10**400
    with pytest.raises(ModelFormatError, match=f"{key} holds a count too large for a float"):
        load_model(io.BytesIO(framed(json.dumps(obj).encode("utf-8"))))


@pytest.mark.parametrize(
    "payload",
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
def test_crc_valid_payload_that_is_not_a_utf8_json_object(payload):
    with pytest.raises(ModelFormatError):
        load_model(io.BytesIO(framed(payload)))


def test_crc_valid_payload_with_an_integer_past_the_digit_limit():
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer of more than 4300 digits.
    obj = payload_object()
    obj["bi"][next(iter(obj["bi"]))] = "count"
    payload = json.dumps(obj).replace('"count"', "9" * 5000).encode("utf-8")
    with pytest.raises(ModelFormatError, match="not UTF-8 JSON"):
        load_model(io.BytesIO(framed(payload)))


def test_utf16_payload_is_rejected():
    # json.loads(bytes) would detect UTF-16 and accept this valid object
    payload = json.dumps(payload_object(), ensure_ascii=False).encode("utf-16")
    with pytest.raises(ModelFormatError, match="UTF-8"):
        load_model(io.BytesIO(framed(payload)))


# An empty model as the version-1 format wrote it: SGSP, u16 version 1,
# five length-prefixed binary sections, CRC-32.
V1_EMPTY_MODEL = bytes.fromhex(
    "53475350010004000000000000000400000000000000040000000000000018000000"
    "000000000000f03f000000000000f03f00000000000000000a000000000000000000"
    "000000004d4b7934"
)


def test_version_1_file_must_be_retrained(tmp_path, capsys):
    with pytest.raises(ModelVersionError, match="unsupported model version 1, expected 2"):
        load_model(io.BytesIO(V1_EMPTY_MODEL))
    model = tmp_path / "v1.bin"
    model.write_bytes(V1_EMPTY_MODEL)
    lines = tmp_path / "in.txt"
    lines.write_text("天安门\n", encoding="utf-8")
    assert main(["segment", "--model", str(model), "--input", str(lines)]) == 1
    assert "unsupported model version 1, expected 2" in capsys.readouterr().err
