"""File container for trained n-gram models.

Layout:

    header   struct "<4sHQ": magic b"SGSP", version (currently 2), payload
             byte length, all little-endian
    payload  a UTF-8 JSON object with exactly the keys
                 uni, bi, tri             n-gram -> count (int >= 0, at most float max)
                 log_sd_bi, log_sd_tri    float > 0, finite
                 total_uni, line_count    int >= 0
                 source                   str
    crc      u32      CRC-32 of the payload bytes

The payload is written with sorted keys, compact separators and raw UTF-8
(no \\u escapes), so equal models produce identical files. Failure modes
are kept distinct so callers can tell a stale format from a damaged file:
ModelVersionError, ModelTruncatedError, ModelChecksumError, with
ModelFormatError for everything else, including a CRC-valid payload that
is not the object above.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zlib
from pathlib import Path

from .ngram import ModelMeta, NGramModel

MAGIC = b"SGSP"
VERSION = 2

_HEADER = struct.Struct("<4sHQ")
_CRC = struct.Struct("<I")
_COUNT_MAPS = ("uni", "bi", "tri")
_KEYS = frozenset(
    _COUNT_MAPS + ("log_sd_bi", "log_sd_tri", "total_uni", "line_count", "source")
)


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


def _encode_model(model: NGramModel) -> bytes:
    obj = {
        "uni": model.uni,
        "bi": model.bi,
        "tri": model.tri,
        "log_sd_bi": float(model.log_sd_bi),
        "log_sd_tri": float(model.log_sd_tri),
        "total_uni": model.total_uni,
        "line_count": model.meta.line_count,
        "source": model.meta.source,
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    payload = text.encode("utf-8")
    return _HEADER.pack(MAGIC, VERSION, len(payload)) + payload + _CRC.pack(zlib.crc32(payload))


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


def _decode_payload(payload: bytes) -> dict:
    """Parse and check the JSON object; any violation is a ModelFormatError."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, bad JSON, or an integer past Python's digit limit
        raise ModelFormatError(f"payload is not UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError(f"payload is a JSON {type(obj).__name__}, expected an object")
    if obj.keys() != _KEYS:
        missing = ", ".join(sorted(_KEYS - obj.keys())) or "none"
        extra = ", ".join(sorted(obj.keys() - _KEYS)) or "none"
        raise ModelFormatError(f"payload keys: missing {missing}; unexpected {extra}")
    for key in _COUNT_MAPS:
        counts = obj[key]
        if not isinstance(counts, dict) or not all(map(_is_count, counts.values())):
            raise ModelFormatError(f"{key} must map n-grams to non-negative integers")
        if max(counts.values(), default=0) > sys.float_info.max:
            raise ModelFormatError(f"{key} holds a count too large for a float")
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
    if len(data) < _HEADER.size:
        raise ModelTruncatedError(f"need {_HEADER.size} header bytes, file has {len(data)}")
    _, version, length = _HEADER.unpack_from(data)
    if version != VERSION:
        raise ModelVersionError(f"unsupported model version {version}, expected {VERSION}")
    end = _HEADER.size + length
    if len(data) < end + _CRC.size:
        raise ModelTruncatedError(
            f"need {end + _CRC.size} bytes for a {length}-byte payload, file has {len(data)}"
        )
    if len(data) > end + _CRC.size:
        raise ModelFormatError(f"{len(data) - end - _CRC.size} trailing bytes after checksum")
    payload = data[_HEADER.size : end]
    (stored_crc,) = _CRC.unpack_from(data, end)
    actual_crc = zlib.crc32(payload)
    if stored_crc != actual_crc:
        raise ModelChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    obj = _decode_payload(payload)
    return NGramModel(
        uni=obj["uni"],
        bi=obj["bi"],
        tri=obj["tri"],
        total_uni=obj["total_uni"],
        log_sd_bi=obj["log_sd_bi"],
        log_sd_tri=obj["log_sd_tri"],
        meta=ModelMeta(source=obj["source"], line_count=obj["line_count"]),
    )
