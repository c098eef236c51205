"""File container for trained n-gram models.

Layout:

    frame    struct "<4sHQ": magic b"SGSP", version (currently 3), payload
             byte length, all little-endian
    payload  u32 header length, the header, then for uni, bi and tri in
             turn that map's key text and its counts
    crc      u32      CRC-32 of the payload bytes

The header is a UTF-8 JSON object with exactly the keys

    uni, bi, tri             {"keys": key count, "bytes": key text length,
                              "sep": separator, "big": [[index, count], ...]}
    log_sd_bi, log_sd_tri    float > 0, finite
    total_uni, line_count    int >= 0
    source                   str

A map's key text is its keys in code-point order, joined by its separator,
the first code point from U+000A up that none of them contains, in UTF-8.
Its counts are one little-endian uint64 per key, in the same order. A
count of 2**64 or more (at most the largest float) is written as 0 there
and listed in "big" with its key's index. The header is written with
sorted keys, compact separators and raw UTF-8, so equal models produce
identical files.

Failure modes are kept distinct so callers can tell a stale format from a
damaged file: ModelVersionError, ModelTruncatedError, ModelChecksumError,
with ModelFormatError for everything else, including a CRC-valid payload
that does not hold the layout above.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zlib
from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .ngram import ModelMeta, NGramModel

MAGIC = b"SGSP"
VERSION = 3

_FRAME = struct.Struct("<4sHQ")
_U32 = struct.Struct("<I")  # the header length and the CRC
_COUNT_MAPS = ("uni", "bi", "tri")
_KEYS = frozenset(
    _COUNT_MAPS + ("log_sd_bi", "log_sd_tri", "total_uni", "line_count", "source")
)
_MAP_KEYS = frozenset(("keys", "bytes", "sep", "big"))
_BIG = 2**64
_FLOAT_MAX = int(sys.float_info.max)
# Separator candidates; a surrogate cannot be written in UTF-8.
_SEPARATORS = (range(0x0A, 0xD800), range(0xE000, sys.maxunicode + 1))


class ModelIOError(Exception):
    """Base class for model container errors."""


class ModelFormatError(ModelIOError):
    pass


class ModelVersionError(ModelIOError):
    pass


class ModelTruncatedError(ModelIOError):
    pass


class ModelChecksumError(ModelIOError):
    pass


def _pack_map(counts: dict[str, int]) -> tuple[dict, bytes]:
    """The header entry and the key text and counts of one count map."""
    keys = sorted(counts)
    joined = "".join(keys)
    sep = next(c for c in map(chr, chain(*_SEPARATORS)) if c not in joined)
    text = sep.join(keys).encode("utf-8")
    values = list(map(counts.__getitem__, keys))
    big = []
    # array, unlike numpy, refuses a negative or non-integer count on every version
    try:
        packed = array("Q", values)
    except OverflowError:
        # counts of 2**64 or more move to the header; a negative one raises again
        big = [[i, c] for i, c in enumerate(values) if c >= _BIG]
        for i, _ in big:
            values[i] = 0
        packed = array("Q", values)
    if sys.byteorder == "big":
        packed.byteswap()
    entry = {"keys": len(keys), "bytes": len(text), "sep": sep, "big": big}
    return entry, text + packed.tobytes()


def _encode_model(model: NGramModel) -> bytes:
    header = {
        "log_sd_bi": float(model.log_sd_bi),
        "log_sd_tri": float(model.log_sd_tri),
        "total_uni": model.total_uni,
        "line_count": model.meta.line_count,
        "source": model.meta.source,
    }
    sections = []
    for key in _COUNT_MAPS:
        header[key], section = _pack_map(getattr(model, key))
        sections.append(section)
    text = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    raw = text.encode("utf-8")
    payload = b"".join((_U32.pack(len(raw)), raw, *sections))
    return _FRAME.pack(MAGIC, VERSION, len(payload)) + payload + _U32.pack(zlib.crc32(payload))


def save_model(model: NGramModel, sink) -> None:
    """Write the model to a path or a binary file object."""
    data = _encode_model(model)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        Path(sink).write_bytes(data)


def _is_count(value) -> bool:
    # JSON gives only int, float, str, bool, None, list and dict; bool is an
    # int subclass, so compare the type exactly.
    return type(value) is int and value >= 0


def _check_map(key: str, entry) -> None:
    """Check the header entry of one count map."""
    if not isinstance(entry, dict) or entry.keys() != _MAP_KEYS:
        raise ModelFormatError(f"{key} must be an object with exactly the keys big, bytes, keys, sep")
    if not (_is_count(entry["keys"]) and _is_count(entry["bytes"])):
        raise ModelFormatError(f"{key} key count and byte length must be non-negative integers")
    if not isinstance(entry["sep"], str) or len(entry["sep"]) != 1:
        raise ModelFormatError(f"{key} separator must be one character, got {entry['sep']!r}")
    big = entry["big"]
    if not isinstance(big, list) or not all(isinstance(p, list) and len(p) == 2 for p in big):
        raise ModelFormatError(f"{key} big counts must be a list of [index, count] pairs")
    index = [i for i, _ in big]
    if not all(map(_is_count, index)) or any(a >= b for a, b in zip(index, index[1:])):
        raise ModelFormatError(f"{key} big count indices must be increasing integers")
    if index and index[-1] >= entry["keys"]:
        raise ModelFormatError(f"{key} big count index {index[-1]} is past its {entry['keys']} keys")
    for _, count in big:
        if type(count) is not int or count < _BIG:
            raise ModelFormatError(f"{key} big count {count!r} must be an integer of at least 2**64")
        if count > _FLOAT_MAX:
            raise ModelFormatError(f"{key} holds a count too large for a float")


def _decode_header(raw: bytes) -> dict:
    """Parse and check the header; any violation is a ModelFormatError."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, bad JSON, or an integer past Python's digit limit
        raise ModelFormatError(f"header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError(f"header is a JSON {type(obj).__name__}, expected an object")
    if obj.keys() != _KEYS:
        missing = ", ".join(sorted(_KEYS - obj.keys())) or "none"
        extra = ", ".join(sorted(obj.keys() - _KEYS)) or "none"
        raise ModelFormatError(f"header keys: missing {missing}; unexpected {extra}")
    for key in _COUNT_MAPS:
        _check_map(key, obj[key])
    for key in ("log_sd_bi", "log_sd_tri"):
        # the bond formulas divide by the sd, and _log_sd never writes one <= 0
        if type(obj[key]) is not float or not 0.0 < obj[key] < math.inf:
            raise ModelFormatError(f"{key} must be a positive finite float, got {obj[key]!r}")
    for key in ("total_uni", "line_count"):
        if not _is_count(obj[key]):
            raise ModelFormatError(f"{key} must be a non-negative integer, got {obj[key]!r}")
    if not isinstance(obj["source"], str):
        raise ModelFormatError(f"source must be a string, got {obj['source']!r}")
    return obj


def _unpack_map(key: str, entry: dict, payload: bytes, at: int, sd: float) -> tuple[dict[str, int], int]:
    """One count map read from payload at offset at, and the offset after it.

    sd is the map's log-count sd, which key_table divides each ln(count) by.
    """
    n, size = entry["keys"], entry["bytes"]
    end = at + size + 8 * n
    if end > len(payload):
        raise ModelFormatError(f"{key} section runs past the payload")
    try:
        text = payload[at : at + size].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{key} key text is not UTF-8: {exc}") from exc
    keys = text.split(entry["sep"]) if n or text else []
    if len(keys) != n:
        raise ModelFormatError(f"{key} key text splits into {len(keys)} keys, the header says {n}")
    counts = np.frombuffer(payload, "<u8", n, at + size)
    values = counts.tolist()
    for i, count in entry["big"]:
        values[i] = count
    table = dict(zip(keys, values))
    if len(table) != n:
        raise ModelFormatError(f"{key} holds a duplicate key")
    top = max(count for _, count in entry["big"]) if entry["big"] else int(counts.max(initial=0))
    if top > 1 and not math.isfinite(math.log(top) / sd):
        raise ModelFormatError(
            f"log_sd_{key} {sd!r} is too small: ln of the largest {key} count over it is not finite"
        )
    return table, end


def load_model(source) -> NGramModel:
    """Read a model previously written by save_model.

    Accepts a path or a binary file object. Raises ModelTruncatedError,
    ModelVersionError, ModelChecksumError, or ModelFormatError.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = Path(source).read_bytes()
    # A file that does not start like a model is not one, however short.
    if not MAGIC.startswith(data[:4]):
        raise ModelFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < _FRAME.size:
        raise ModelTruncatedError(f"need {_FRAME.size} frame bytes, file has {len(data)}")
    _, version, length = _FRAME.unpack_from(data)
    if version != VERSION:
        raise ModelVersionError(f"unsupported model version {version}, expected {VERSION}")
    end = _FRAME.size + length
    if len(data) < end + _U32.size:
        raise ModelTruncatedError(
            f"need {end + _U32.size} bytes for a {length}-byte payload, file has {len(data)}"
        )
    if len(data) > end + _U32.size:
        raise ModelFormatError(f"{len(data) - end - _U32.size} trailing bytes after checksum")
    payload = data[_FRAME.size : end]
    (stored_crc,) = _U32.unpack_from(data, end)
    actual_crc = zlib.crc32(payload)
    if stored_crc != actual_crc:
        raise ModelChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    if len(payload) < _U32.size:
        raise ModelFormatError(f"a {len(payload)}-byte payload holds no header length")
    at = _U32.size + _U32.unpack_from(payload)[0]
    if at > len(payload):
        raise ModelFormatError("header runs past the payload")
    obj = _decode_header(payload[_U32.size : at])
    # unigram log-counts are not standardized, as if their sd were infinite
    sds = {"uni": math.inf, "bi": obj["log_sd_bi"], "tri": obj["log_sd_tri"]}
    maps = {}
    for key in _COUNT_MAPS:
        maps[key], at = _unpack_map(key, obj[key], payload, at, sds[key])
    if at != len(payload):
        raise ModelFormatError(f"{len(payload) - at} bytes left after the last section")
    return NGramModel(
        uni=maps["uni"],
        bi=maps["bi"],
        tri=maps["tri"],
        total_uni=obj["total_uni"],
        log_sd_bi=obj["log_sd_bi"],
        log_sd_tri=obj["log_sd_tri"],
        meta=ModelMeta(source=obj["source"], line_count=obj["line_count"]),
    )
