"""File container for trained n-gram models.

Layout:

    frame    struct "<4sHQ": magic b"SGSP", version (currently 6), payload
             byte length, all little-endian
    payload  u32 header length, the header, then the model's keys, then
             its counts, each one little-endian uint64 per key
    crc      u32      CRC-32 of the payload bytes

The header is a UTF-8 JSON object with exactly the keys

    keys                 int >= 0, the key count
    line_count, source   the model's fields of those names

The keys are the model's sorted tagged keys (see ngram), so the file is
the model's arrays as they are in memory. The log-count sds are worked
out from the counts, so the file does not hold them. The header is
written with sorted keys, compact separators and raw UTF-8, so equal
models produce identical files.

Failure modes are kept distinct so callers can tell a stale format from a
damaged file: ModelVersionError, ModelTruncatedError, ModelChecksumError,
with ModelFormatError for everything else, including a CRC-valid payload
that does not hold the layout above. Only the file is checked here: the
NGramModel built from the header and sections checks what they hold, and
its ValueError is raised as a ModelFormatError.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .ngram import NGramModel

MAGIC = b"SGSP"
VERSION = 6

_FRAME = struct.Struct("<4sHQ")
_U32 = struct.Struct("<I")  # the header length and the CRC
_KEYS = frozenset(("keys", "line_count", "source"))


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
    header = {"keys": len(model.keys), "line_count": model.line_count, "source": model.source}
    text = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    raw = text.encode("utf-8")
    arrays = (np.asarray(a, "<u8").tobytes() for a in (model.keys, model.counts))
    payload = b"".join((_U32.pack(len(raw)), raw, *arrays))
    return _FRAME.pack(MAGIC, VERSION, len(payload)) + payload + _U32.pack(zlib.crc32(payload))


def save_model(model: NGramModel, sink) -> None:
    """Write the model to a path or a binary file object."""
    data = _encode_model(model)
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        Path(sink).write_bytes(data)


def _decode_header(raw) -> dict:
    """Parse the header and check its shape; any violation is a ModelFormatError."""
    try:
        obj = json.loads(bytes(raw).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, bad JSON, or an integer past Python's digit limit
        raise ModelFormatError(f"header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError(f"header is a JSON {type(obj).__name__}, expected an object")
    if obj.keys() != _KEYS:
        missing = ", ".join(sorted(_KEYS - obj.keys())) or "none"
        extra = ", ".join(sorted(obj.keys() - _KEYS)) or "none"
        raise ModelFormatError(f"header keys: missing {missing}; unexpected {extra}")
    # bool is an int subclass, so compare the type exactly
    if type(obj["keys"]) is not int or obj["keys"] < 0:
        raise ModelFormatError(f"keys must be a non-negative integer, got {obj['keys']!r}")
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
    payload = memoryview(data)[_FRAME.size : end]
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
    fields = _decode_header(payload[_U32.size : at])
    n = fields.pop("keys")
    if len(payload) - at != 16 * n:
        raise ModelFormatError(
            f"the header's {n} keys and counts take {16 * n} bytes, but {len(payload) - at} follow it"
        )
    keys, counts = (
        np.frombuffer(payload, "<u8", n, offset).astype(np.uint64, copy=False) for offset in (at, at + 8 * n)
    )
    try:
        return NGramModel(keys, counts, **fields)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
