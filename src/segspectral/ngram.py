"""Character n-gram statistics over a raw text corpus.

A model is its sorted key table: one tagged uint64 key per stored n-gram
(1, 2 or 3 characters) and one count beside it. Counting conventions:

- one input line is one record; n-grams never span line boundaries (a
  line feed, which is not Chinese, ends every run)
- an n-gram is stored only if every character in it is Chinese
  (chars.chinese_mask), so n-grams touching letters, digits, punctuation
  or whitespace are never counted. This is the only place the rule is
  applied: the bond formulas (graph.py) trust the stored keys, so a
  non-Chinese character finds count 0 and carries no probability mass
- an absent key means count 0, so a stored count is at least 1

A key holds the 21-bit code points of its n-gram, first character
highest. Bigram keys set bit 63, above the 63 bits of trigram codes, and
unigram keys bits 63 and 62, above the 42 bits of bigram codes, so
orders never collide, and sorted keys hold the trigrams, then the
bigrams, then the unigrams, each in code-point order of their n-grams.
Every other bit is zero. NGramModel checks these rules, like all its
others, when it is built, so no model breaks them; model_io checks the file.
_keys alone builds tagged keys, for ingest, line_keys and from_counts.

ingest_corpus reads lines lazily, in chunks of whole lines of at most
_CHUNK_CHARS characters (a longer line comes alone), joins a chunk's lines
with line feeds, gives the n-grams in each Chinese run their keys and
counts them with one sort. Chunk counts are merged by key, so memory
stays O(chunk + distinct n-grams), and the merged keys and counts are the
model.

The bond formulas (graph.py) read the model through two tables, worked
out from the keys and counts at first use (not at ingest or load), with
log_sd_bi and log_sd_tri, the bigram and trigram sds that standardize
their log-counts. Each table holds one row per stored n-gram of its
order, in key order, then a row for the sentinel key, all ones, whose
values are 0 and answer every miss (find gives its row). The conditional
probabilities in them are maximum-likelihood ratios of the stored counts,
with no smoothing, and 0 where the context was never seen:

- bigram_table: each bigram ab's key, P(b | a) and standardized log-count;
- trigram_table: each trigram abc's key, P(c | a b), P(a | b c), and
  P(b c | a) times its standardized log-count.

A standardized log-count divides ln(count) by the sd of its order: the
population sd of ln(count) over the stored keys of that order. Its sums
are exact and rounded once, as math.fsum rounds, so it depends neither
on key order nor on the Python version. Neither the tables, the sds nor
the uni, bi and tri count dicts are model state: the dicts stay only as a
view decoded from the keys when read, for tests and the bench tracer, and
nothing in the package reads them. line_keys gives a line's tagged keys, ngram_table a sorted key
table of given n-grams, and find and holds search a table.

iter_corpus_lines is the one line reader: train, segment, sweep, eval and
the lexicon and word-stats loaders all read through it. It decodes and
splits a block of bytes at a time, lazily, so ingest_corpus keeps O(chunk)
memory, and yields the lines a text-mode read with newline="\n" would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chars import chinese_mask

# Characters, line ends included, per chunk that ingest_corpus counts at
# once; its arrays then take a few hundred kilobytes.
_CHUNK_CHARS = 1 << 14
# Bytes iter_corpus_lines reads from a file at once.
_BLOCK_BYTES = 1 << 16
_SHIFT = np.uint64(21)
_POINT = np.uint64(0x1FFFFF)
_TAGS = {1: np.uint64(3 << 62), 2: np.uint64(1 << 63), 3: np.uint64(0)}
# Above every key, so every query lands on or before it.
_SENTINEL = np.uint64(2**64 - 1)


def _code_points(text: str) -> np.ndarray:
    # surrogatepass keeps a lone surrogate one code point, as str counts it
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.uint64)


def _keys(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tagged keys of the 1-, 2- and 3-grams starting at each of points; a
    trigram's key extends its first pair's untagged key (its tag is 0)."""
    pairs = points[:-1] << _SHIFT | points[1:]
    return points | _TAGS[1], pairs | _TAGS[2], pairs[:-1] << _SHIFT | points[2:]


def _encode(ngrams: list[str], order: int) -> np.ndarray:
    """The tagged keys of n-grams of one order."""
    for ngram in ngrams:
        if len(ngram) != order:
            raise ValueError(f"n-gram {ngram!r} of order {order} does not have {order} characters")
    return _keys(_code_points("".join(ngrams)))[order - 1][::order]  # n-gram i starts at i·order


def _decode(keys: np.ndarray, order: int) -> list[str]:
    """The n-grams of keys of one order, tagged or not."""
    shifts = _SHIFT * np.arange(order - 1, -1, -1, dtype=np.uint64)
    points = (keys[:, None] >> shifts & _POINT).astype("<u4")
    text = points.tobytes().decode("utf-32-le", "surrogatepass")
    return [text[i : i + order] for i in range(0, len(text), order)]


def _orders(keys: np.ndarray) -> dict[int, slice]:
    """Where the keys of each order lie in sorted keys."""
    tri_end, bi_end = np.searchsorted(keys, (_TAGS[2], _TAGS[1])).tolist()
    return {1: slice(bi_end, len(keys)), 2: slice(tri_end, bi_end), 3: slice(0, tri_end)}


def _check_keys(keys: np.ndarray) -> None:
    """Raise ValueError unless keys are strictly increasing, no key sets a
    bit its order leaves unused (so none is the sentinel), and every code
    point is at most U+10FFFF."""
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("keys are not strictly increasing")
    for order, at in _orders(keys).items():
        part = keys[at]
        # sorted, so the last key of an order has its highest bits
        if part.size and int(part[-1]) >> 21 * order != int(_TAGS[order]) >> 21 * order:
            raise ValueError(f"key {int(part[-1]):#018x} sets bits its order {order} leaves unused")
        for i in range(order):
            if (part >> _SHIFT * np.uint64(i) & _POINT).max(initial=0) > 0x10FFFF:
                raise ValueError(f"a key of order {order} holds a code point past U+10FFFF")


class CorpusEncodingError(ValueError):
    """Raised when corpus bytes are not valid UTF-8."""


def _empty() -> np.ndarray:
    return np.empty(0, np.uint64)


@dataclass(eq=False)
class NGramModel:
    """Unigram/bigram/trigram counts, the corpus's name (source) and its
    line count.

    keys are sorted tagged uint64 keys, as described above, and counts
    holds one uint64 count, at least 1, per key. Only all-Chinese n-grams
    are stored, as ingest_corpus counts them and the model file
    round-trips them. Construction checks every field and raises
    ValueError naming the rule broken, so every model saves and loads.
    Treat a model as immutable.
    """

    keys: np.ndarray = field(default_factory=_empty)
    counts: np.ndarray = field(default_factory=_empty)
    source: str = ""
    line_count: int = 0

    def __post_init__(self):
        arrays = (self.keys, self.counts)
        if len(self.keys) != len(self.counts) or not all(
            isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.uint64 for a in arrays
        ):
            got = " and ".join(f"{getattr(a, 'dtype', type(a).__name__)} {np.shape(a)}" for a in arrays)
            raise ValueError(f"keys and counts must be 1-d uint64 arrays of one length, got {got}")
        _check_keys(self.keys)
        if self.counts.min(initial=1) == 0:
            # an absent key already means count 0, and ln 0 has no sd
            key = int(self.keys[np.argmin(self.counts)])
            raise ValueError(f"key {key:#018x} has count 0, and a stored count must be at least 1")
        # bool is an int subclass, so compare the type exactly
        if type(self.line_count) is not int or self.line_count < 0:
            raise ValueError(f"line_count must be a non-negative integer, got {self.line_count!r}")
        if not isinstance(self.source, str):
            raise ValueError(f"source must be a string, got {self.source!r}")
        try:
            self.source.encode("utf-8")  # as the model file stores it
        except UnicodeEncodeError:
            raise ValueError(f"source must be encodable as UTF-8, got {self.source!r}") from None

    @classmethod
    def from_counts(cls, uni=None, bi=None, tri=None, **fields) -> NGramModel:
        """A model of dicts of counts by n-gram; fields are the other
        constructor arguments (source, line_count). An n-gram whose length
        is not its order, or a count that is not an int from 1 to
        2**64 - 1, is refused."""
        maps = {1: uni or {}, 2: bi or {}, 3: tri or {}}
        keys = np.concatenate([_encode(list(counts), order) for order, counts in maps.items()])
        values = [count for counts in maps.values() for count in counts.values()]
        for count in values:
            # bool is an int subclass, so compare the type exactly
            if type(count) is not int or not 1 <= count < 2**64:
                raise ValueError(f"count {count!r} is not an integer from 1 to 2**64 - 1")
        counts = np.array(values, np.uint64)
        by_key = np.argsort(keys)
        return cls(keys[by_key], counts[by_key], **fields)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramModel):
            return NotImplemented
        return bool(
            np.array_equal(self.keys, other.keys)
            and np.array_equal(self.counts, other.counts)
            and (self.source, self.line_count) == (other.source, other.line_count)
        )

    def of_order(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """The keys and counts of the stored n-grams of one order."""
        at = _orders(self.keys)[order]
        return self.keys[at], self.counts[at]

    def _dict(self, order: int) -> dict[str, int]:
        keys, counts = self.of_order(order)
        return dict(zip(_decode(keys, order), counts.tolist()))

    # Counts by n-gram in code-point order, decoded when first read; the
    # model reads none of them, so changing one changes nothing.
    uni = cached_property(lambda self: self._dict(1))
    bi = cached_property(lambda self: self._dict(2))
    tri = cached_property(lambda self: self._dict(3))

    @cached_property
    def _tables(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], float, float]:
        """bigram_table, trigram_table, log_sd_bi and log_sd_tri, worked
        out together."""
        at = _orders(self.keys)
        # Each order's keys, then the sentinel, and float counts (exact
        # below 2**53), then 0, which makes every ratio 0 in its row.
        keys = {order: np.append(self.keys[part], _SENTINEL) for order, part in at.items()}
        counts = {order: np.append(self.counts[part].astype(float), 0.0) for order, part in at.items()}

        def given(order: int, lower: int, contexts: np.ndarray) -> np.ndarray:
            """P(n-gram | context) for each n-gram of order, from the keys of
            their contexts, n-grams of order lower."""
            return _ratio(counts[order], counts[lower][find(keys[lower], contexts)])

        bi_logs, sd_bi = _standardized(self.counts[at[2]])
        tri_logs, sd_tri = _standardized(self.counts[at[3]])
        bi, tri = keys[2], keys[3]
        return (
            (bi, given(2, 1, bi >> _SHIFT & _POINT | _TAGS[1]), np.append(bi_logs, 0.0)),
            (
                tri,
                given(3, 2, tri >> _SHIFT | _TAGS[2]),
                given(3, 2, tri & (_POINT << _SHIFT | _POINT) | _TAGS[2]),
                given(3, 1, tri >> _SHIFT * np.uint64(2) | _TAGS[1]) * np.append(tri_logs, 0.0),
            ),
            sd_bi,
            sd_tri,
        )

    @property
    def bigram_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted keys of the stored bigrams ab, P(b | a) and the
        standardized log-count of each, then the sentinel's row of 0s."""
        return self._tables[0]

    @property
    def trigram_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The sorted keys of the stored trigrams abc, P(c | a b), P(a | b c)
        and P(b c | a) times the standardized log-count of each, then the
        sentinel's row of 0s."""
        return self._tables[1]

    @property
    def log_sd_bi(self) -> float:
        """The sd that standardizes the bigram log-counts."""
        return self._tables[2]

    @property
    def log_sd_tri(self) -> float:
        """The sd that standardizes the trigram log-counts."""
        return self._tables[3]


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per position, and 0 where den is 0: a context never seen
    in the corpus carries no probability mass."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def line_keys(s: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tagged keys of the n characters, n - 1 adjacent pairs and n - 2
    triples of s."""
    return _keys(_code_points(s))


def ngram_table(ngrams, order: int) -> np.ndarray:
    """The tagged keys of distinct n-grams of one order, sorted, then the
    sentinel: a table for find and holds."""
    return np.append(np.sort(_encode(list(ngrams), order)), _SENTINEL)


def find(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The row of each query in table, sorted keys ending in the sentinel;
    a query the table does not hold gets the sentinel's row, -1."""
    at = np.searchsorted(table, queries)
    at[table[at] != queries] = -1
    return at


def holds(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether table, sorted keys ending in the sentinel, holds each query."""
    return table[np.searchsorted(table, queries)] == queries


def _standardized(counts: np.ndarray) -> tuple[np.ndarray, float]:
    """ln(count) over sd for each of counts, one per stored key of an
    order, and sd, the population sd of ln(count) over them.

    Each key contributes one ln(count) sample regardless of how frequent
    it is. With fewer than two keys, or all counts equal, the sd would be 0
    and standardization meaningless, so it falls back to 1 and a
    standardized log-count reduces to a bare ln(count).
    """
    # Counts repeat, so each distinct one is logged and squared once, with
    # math.log, not np.log: the two differ in the last bit for some counts.
    # Each sum still adds one value per key, a distinct count's value once
    # for every key that holds it, and _exact_sum rounds it correctly.
    ordered = np.sort(counts)
    starts = np.flatnonzero(np.diff(ordered, prepend=np.uint64(0)))  # a count is at least 1
    distinct = ordered[starts]
    logs = [math.log(c) for c in distinct.astype(float).tolist()]
    times = np.diff(starts, append=len(counts)).tolist()
    sd = 1.0
    if len(counts) > 1:
        mean = _exact_sum(logs, times) / len(counts)
        squares = [(x - mean) ** 2 for x in logs]
        sd = math.sqrt(_exact_sum(squares, times) / len(counts)) or 1.0
    return (np.array(logs) / sd)[np.searchsorted(distinct, counts)], sd


def _exact_sum(values: list[float], times: list[int]) -> float:
    """The sum of each of values repeated its times, rounded once to the
    nearest float, ties to even: what math.fsum gives for them all."""
    # A float is an integer over a power of two, so over the largest power
    # every term is an integer, the sum is exact, and int division rounds it.
    ratios = [value.as_integer_ratio() for value in values]
    scale = max((den for _, den in ratios), default=1)
    return sum(num * (scale // den) * t for (num, den), t in zip(ratios, times)) / scale


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
    points = _code_points("\n".join(chunk))  # a line feed is not Chinese
    chinese = chinese_mask(points)
    joined = chinese[:-1] & chinese[1:]  # pair i, points i and i + 1
    uni, bi, tri = _keys(points)
    return np.concatenate((uni[chinese], bi[joined], tri[joined[:-1] & joined[1:]]))


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
    parts = [(_empty(), np.empty(0, np.int64))]  # merged counts, then newer chunks'
    line_count = 0
    for chunk in _chunks(lines):
        line_count += len(chunk)
        parts.append(np.unique(_chunk_keys(chunk), return_counts=True))
        # Merging once the newer counts outgrow the merged ones keeps memory
        # O(distinct n-grams) and the merge time amortised linear.
        if sum(len(k) for k, _ in parts[1:]) >= len(parts[0][0]):
            parts = [_merge(parts)]
    keys, counts = _merge(parts)
    return NGramModel(keys, counts.astype(np.uint64), source=source, line_count=line_count)


def _decoded(data: bytes, start: int, path) -> str:
    """data, read from path at byte offset start, as text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusEncodingError(f"{path}: invalid UTF-8 at byte offset {start + exc.start}") from exc


def iter_corpus_lines(path):
    """Yield decoded lines from a UTF-8 corpus file.

    Only a line feed ends a line. It is dropped together with at most one
    carriage return right before it; any other carriage return is line
    content. Raises CorpusEncodingError naming the absolute byte offset of
    the first invalid byte.

    The file is read in blocks of _BLOCK_BYTES. The bytes of a block up to
    its last line feed, after the bytes left over from earlier blocks, are
    decoded, stripped of one carriage return before each line feed and
    split, each in one call. A line feed never lies inside a multi-byte
    character, so no character is split, and a line longer than a block is
    joined once, when its line feed is read.
    """
    with open(path, "rb") as fh:
        # bytes read past the last line feed so far, and their file offset
        rest, start = [], 0
        while block := fh.read(_BLOCK_BYTES):
            end = block.rfind(b"\n") + 1
            if not end:
                rest.append(block)  # joined once the line ends
                continue
            rest.append(block[:end])
            data = b"".join(rest)
            lines = _decoded(data, start, path).replace("\r\n", "\n").split("\n")
            lines.pop()  # the empty text after the last line feed
            yield from lines
            start += len(data)
            rest = [block[end:]]
        data = b"".join(rest)
        if data:  # a last line with no line feed
            yield _decoded(data, start, path)
