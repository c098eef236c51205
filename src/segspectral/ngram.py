"""Character n-gram statistics over a raw text corpus.

Counts are plain dictionaries keyed by the n-gram string (1, 2, or 3
characters). Counting conventions:

- one input line is one record; n-grams never span line boundaries
- an n-gram is stored only if every character in it is Chinese
  (chars.chinese_mask), so n-grams touching letters, digits, punctuation
  or whitespace are never counted. This is the only place the rule is
  applied: the bond formulas (graph.py) trust the stored keys, so a
  non-Chinese character finds count 0 and carries no probability mass
- an absent key means count 0
- each count dict is in code-point order of its keys, as model_io writes
  and load_model returns it, so a trained model iterates like its copy

ingest_corpus reads lines lazily, in chunks of whole lines of at most
_CHUNK_CHARS characters (a longer line comes alone), gives the n-grams in
each Chinese run of each line of a chunk the integer keys described below
and counts them with one sort. Chunk counts are merged by key, so memory
stays O(chunk + distinct n-grams). The bigram and trigram sds, population
sds of ln(count) over the distinct stored keys of each order, are summed
with math.fsum, so they depend neither on key order nor on the Python
version.

NGramModel.lookup reads counts from NGramModel.key_table, built at the
first lookup (not at ingest or load), 24 bytes per stored n-gram: sorted
uint64 keys of 21-bit code points, first character highest, each beside
its float count and standardized log-count, then a sentinel of zeros that
answers every miss. Bigram keys set bit 63, above the 63 bits of trigram
codes, and unigram keys bits 63 and 62, above the 42 bits of bigram
codes, so orders never collide. The table is not model state, and goes
stale if the dicts change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .chars import chinese_mask

# Characters, line ends included, per chunk that ingest_corpus counts at
# once; its arrays then take a few hundred kilobytes.
_CHUNK_CHARS = 1 << 14
_SHIFT = np.uint64(21)
_TAGS = {1: np.uint64(3 << 62), 2: np.uint64(1 << 63), 3: np.uint64(0)}
# Above every key, so every query lands on or before it.
_SENTINEL = np.uint64(2**64 - 1)


def _code_points(text: str) -> np.ndarray:
    # surrogatepass keeps a lone surrogate one code point, as str counts it
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.uint64)


def _decode(keys: np.ndarray, order: int) -> list[str]:
    """The n-grams of keys of one order, tagged or not."""
    shifts = _SHIFT * np.arange(order - 1, -1, -1, dtype=np.uint64)
    points = (keys[:, None] >> shifts & np.uint64(0x1FFFFF)).astype(np.uint32)
    # A <U view drops trailing NULs, but a counted key holds none.
    return points.view(f"<U{order}").ravel().tolist()


def _order_table(counts: dict[str, int], order: int, log_sd: float):
    """Keys, float counts and standardized log-counts of the stored
    n-grams of one order; a key of another length never matches, so is left out."""
    lengths = np.fromiter(map(len, counts), np.intp, len(counts))
    kept = lengths == order
    starts = (np.cumsum(lengths) - lengths)[kept]
    points = _code_points("".join(counts))
    keys = points[starts]
    for i in range(1, order):
        keys = keys << _SHIFT | points[starts + i]
    # Float counts are exact below 2**53, and a larger one in a model file
    # still converts instead of making an object array.
    values = np.fromiter(counts.values(), float, len(counts))[kept]
    # math.log, not np.log: the two differ in the last bit for some
    # counts. Counts repeat, so each distinct one is logged once.
    distinct, inverse = np.unique(values, return_inverse=True)
    logs = np.array([math.log(c) / log_sd if c > 0.0 else 0.0 for c in distinct.tolist()])
    return keys | _TAGS[order], values, logs[inverse]


class CorpusEncodingError(ValueError):
    """Raised when corpus bytes are not valid UTF-8."""


@dataclass
class ModelMeta:
    source: str = ""
    line_count: int = 0


@dataclass
class NGramModel:
    """Unigram/bigram/trigram counts plus the bigram and trigram log-count
    sds.

    The counts hold only all-Chinese keys, as ingest_corpus writes them and
    the model file round-trips them.
    """

    uni: dict[str, int] = field(default_factory=dict)
    bi: dict[str, int] = field(default_factory=dict)
    tri: dict[str, int] = field(default_factory=dict)
    total_uni: int = 0
    log_sd_bi: float = 1.0
    log_sd_tri: float = 1.0
    meta: ModelMeta = field(default_factory=ModelMeta)

    @cached_property
    def key_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted keys, float counts and standardized log-counts (0 for
        count 0 and for unigrams), ending in the sentinel."""
        # An infinite sd zeroes the unigram log-counts, which no bond reads.
        tables = (
            _order_table(self.uni, 1, math.inf),
            _order_table(self.bi, 2, self.log_sd_bi),
            _order_table(self.tri, 3, self.log_sd_tri),
            ([_SENTINEL], [0.0], [0.0]),
        )
        keys, counts, logs = map(np.concatenate, zip(*tables))
        order = np.argsort(keys)
        return keys[order], counts[order], logs[order]

    def lookup(self, s: str) -> tuple[np.ndarray, np.ndarray]:
        """Counts and standardized log-counts of the n characters, n - 1
        adjacent pairs and n - 2 triples of s, in that order."""
        points = _code_points(s)
        # each trigram's key is built on its first pair's untagged key
        pairs = points[:-1] << _SHIFT | points[1:]
        queries = np.concatenate((points | _TAGS[1], pairs | _TAGS[2], pairs[:-1] << _SHIFT | points[2:]))
        keys, counts, logs = self.key_table
        at = np.searchsorted(keys, queries)
        at[keys[at] != queries] = -1
        return counts[at], logs[at]


def _log_sd(counts: dict[str, int]) -> float:
    """Population sd of ln(count) over distinct keys; 1.0 when degenerate.

    Each distinct stored key contributes one ln(count) sample regardless of
    how frequent it is. With fewer than two keys, or all counts equal, the
    sd would be 0 and standardization meaningless, so fall back to 1 and
    let a standardized log-count reduce to a bare ln(count).
    """
    if len(counts) < 2:
        return 1.0
    # Counts repeat, so each distinct one is logged and squared once.
    values = counts.values()
    logs = {c: math.log(c) for c in set(values)}
    mean = math.fsum(map(logs.__getitem__, values)) / len(values)
    squares = {c: (x - mean) ** 2 for c, x in logs.items()}
    sd = math.sqrt(math.fsum(map(squares.__getitem__, values)) / len(values))
    return sd if sd > 0.0 else 1.0


def _chunks(lines):
    """Lists of whole lines, of at most _CHUNK_CHARS characters and line
    ends each, but for a longer line, which comes alone."""
    chunk, size = [], 0
    for line in lines:
        if chunk and size + len(line) >= _CHUNK_CHARS:
            yield chunk
            chunk, size = [], 0
        chunk.append(line)
        size += len(line) + 1
    if chunk:
        yield chunk


def _chunk_keys(chunk: list[str]) -> np.ndarray:
    """Tagged keys of the all-Chinese 1-, 2- and 3-grams of the lines."""
    points = _code_points("".join(chunk))
    chinese = chinese_mask(points)
    # pair i, points i and i + 1, lies in one run unless a line ends at i
    joined = chinese[:-1] & chinese[1:]
    ends = np.cumsum(list(map(len, chunk)))
    joined[ends[(ends > 0) & (ends < len(points))] - 1] = False
    pairs = points[:-1] << _SHIFT | points[1:]
    triples = (pairs[:-1] << _SHIFT | points[2:])[joined[:-1] & joined[1:]]
    return np.concatenate((points[chinese] | _TAGS[1], pairs[joined] | _TAGS[2], triples))


def _merge(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and their summed int64 counts."""
    keys, at = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    counts = np.zeros(len(keys), np.int64)
    np.add.at(counts, at, np.concatenate([c for _, c in parts]))
    return keys, counts


def ingest_corpus(lines, source: str = "") -> NGramModel:
    """Tally character n-gram counts from an iterable of text lines.

    Only n-grams made entirely of Chinese characters are stored: each
    maximal Chinese run of a line is counted on its own. Returns a model
    that should be treated as immutable.
    """
    parts = [(np.empty(0, np.uint64), np.empty(0, np.int64))]  # merged counts, then newer chunks'
    line_count = 0
    for chunk in _chunks(lines):
        line_count += len(chunk)
        parts.append(np.unique(_chunk_keys(chunk), return_counts=True))
        # Merging once the newer counts outgrow the merged ones keeps memory
        # O(distinct n-grams) and the merge time amortised linear.
        if sum(len(k) for k, _ in parts[1:]) >= len(parts[0][0]):
            parts = [_merge(parts)]
    keys, counts = _merge(parts)
    # Tags sort trigrams first, then bigrams, then unigrams.
    at = np.searchsorted(keys, np.array([_TAGS[2], _TAGS[1]]))
    tri, bi, uni = (
        dict(zip(_decode(k, order), c.tolist()))
        for order, k, c in zip((3, 2, 1), np.split(keys, at), np.split(counts, at))
    )
    return NGramModel(
        uni=uni,
        bi=bi,
        tri=tri,
        total_uni=sum(uni.values()),
        log_sd_bi=_log_sd(bi),
        log_sd_tri=_log_sd(tri),
        meta=ModelMeta(source=source, line_count=line_count),
    )


def iter_corpus_lines(path):
    """Yield decoded lines from a UTF-8 corpus file.

    Only a line feed ends a line. It is dropped together with at most one
    carriage return right before it; any other carriage return is line
    content. Raises CorpusEncodingError naming the absolute byte offset of
    the first invalid byte.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            for text in fh:
                if text.endswith("\n"):
                    text = text[:-2] if text.endswith("\r\n") else text[:-1]
                yield text
    except UnicodeDecodeError as exc:
        # The text layer decodes in chunks, so its offset is relative to
        # one chunk; decoding the whole file gives the absolute offset.
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise CorpusEncodingError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
