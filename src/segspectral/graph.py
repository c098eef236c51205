"""Connection-strength matrices for sentence graphs.

A sentence of n characters becomes an undirected weighted graph on n
nodes. Only bonds between a character and its next one or two neighbors
are modeled, so the matrix is symmetric with bandwidth 2 and is stored as
three bands: unit diagonal, first off-diagonal (adjacent pairs), second
off-diagonal (one-gap pairs).

Three recipes fill the bands:

- ehr: transition probabilities scaled by standardized bigram/trigram
  log-counts, with two hand-picked sets of usually-standalone characters
  whose adjacent bonds get divided by fixed factors.
- lexicon: same adjacent-bond base, no one-gap band; bonds inside a
  frequent dictionary word get boosted, bonds touching a common
  single-character word get damped by a rank-based divisor.
- train words: like lexicon but driven by the words of a pre-segmented
  training corpus, damping by a count-based divisor.

Each recipe hands the builder sorted key tables (ngram.ngram_table),
built once with the recipe at first use: the ehr weaken sets' characters;
a vocabulary recipe's bigrams to boost, and its damped characters beside
their divisors.

This module is the one home of the bond formulas. They read the
conditional transition probabilities and standardized log-counts that
the model works out once, per stored n-gram, in its bigram and trigram
tables (ngram.py): with no smoothing, an unseen bigram genuinely carries
zero connection strength, and a ratio whose context was never seen is 0.
A builder takes the tagged keys of a sentence's characters, adjacent
pairs and triples from one code-point decode, searches the pairs in the
bigram table and the triples in the trigram table once each, and
computes its bands from the rows it finds with array arithmetic; the
recipe's tables are searched the same way.

All builders are pure functions of immutable inputs.

load_lexicon and load_word_stats parse all lines of their files at once,
and Lexicon and WordStats check their numbers with builtins (min and
set), so a large vocabulary costs a few C-level passes, not a Python loop
per word. Both accept the files, and give the dicts and messages, of a
line-by-line parse.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add

import numpy as np

from .ngram import NGramModel, find, holds, iter_corpus_lines, line_keys, ngram_table

# Characters that often stand alone as one-character words; bonds touching
# them get weakened when building the ehr-style matrix.
WEAKEN_SET_1 = "和是在对中与将要地以为有"
WEAKEN_SET_2 = "了的无及等行不"

# Common single-character words used by the dictionary recipe's damping rule.
SINGLE_CHAR_WORDS = "的在地和向是上中下不有对并了与将还但就要以为也而又于"


@dataclass
class ConnectionMatrix:
    """Symmetric nonnegative band matrix (bandwidth 2) for one sentence."""

    diag: np.ndarray
    off1: np.ndarray
    off2: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.off1 = np.asarray(self.off1, dtype=float)
        self.off2 = np.asarray(self.off2, dtype=float)
        n = self.diag.size
        if n == 0:
            raise ValueError("connection matrix is empty; it needs at least one node")
        if self.off1.size != max(n - 1, 0) or self.off2.size != max(n - 2, 0):
            raise ValueError(
                f"band lengths {self.off1.size}/{self.off2.size} do not match n={n}"
            )
        strengths = np.concatenate((self.diag, self.off1, self.off2))
        low = strengths.min()
        # Both comparisons are False for NaN.
        if not (low > -np.inf and strengths.max() < np.inf):
            bands = {"diag": self.diag, "off1": self.off1, "off2": self.off2}
            name = next(name for name, band in bands.items() if not np.isfinite(band).all())
            raise ValueError(f"connection strengths must be finite, and band {name} is not")
        if low < 0.0:
            raise ValueError("connection strengths must be nonnegative")

    @property
    def n(self) -> int:
        return self.diag.size

    def degrees(self) -> np.ndarray:
        """Row sums, including the diagonal entry."""
        d = self.diag.copy()
        d[:-1] += self.off1
        d[1:] += self.off1
        d[:-2] += self.off2
        d[2:] += self.off2
        return d


class EntryError(ValueError):
    """An entry of a Lexicon or WordStats breaks a rule. words holds the
    entries at fault, so that a loader can name their lines: one word, or
    for a repeated rank the earlier word and the later one."""

    def __init__(self, message: str, *words: str):
        super().__init__(message)
        self.words = words


def _require_finite(params, *names: str) -> None:
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_characters(params, *names: str) -> None:
    for name in names:
        for entry in getattr(params, name):
            if not (isinstance(entry, str) and len(entry) == 1):
                raise ValueError(f"{name} entries must be single characters, got {entry!r}")


@dataclass
class EhrParams:
    """Knobs for the dictionary-free recipe."""

    weaken_set_1: frozenset = WEAKEN_SET_1
    weaken_set_2: frozenset = WEAKEN_SET_2
    factor_1: float = 4.0
    factor_2: float = 80.0

    def __post_init__(self):
        self.weaken_set_1 = frozenset(self.weaken_set_1)
        self.weaken_set_2 = frozenset(self.weaken_set_2)
        _require_characters(self, "weaken_set_1", "weaken_set_2")
        _require_finite(self, "factor_1", "factor_2")
        for name in ("factor_1", "factor_2"):
            if (value := getattr(self, name)) < 1.0:
                raise ValueError(f"{name} must be >= 1, got {value!r}")

    @cached_property
    def weaken_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The key tables of weaken sets 1 and 2."""
        return ngram_table(self.weaken_set_1, 1), ngram_table(self.weaken_set_2, 1)


class _Vocabulary:
    """The two tables a Lexicon or WordStats hands the builder, from its
    frequent_bigrams and divisors."""

    @cached_property
    def boost_table(self) -> np.ndarray:
        """The key table of frequent_bigrams."""
        return ngram_table(self.frequent_bigrams, 2)

    @cached_property
    def divisor_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The key table of the damped characters, and their divisors then
        1.0, the divisor of every other character, which is exact."""
        chars = sorted(self.divisors)  # code-point order, as their keys sort
        return ngram_table(chars, 1), np.array([*map(self.divisors.__getitem__, chars), 1.0])


@dataclass
class Lexicon(_Vocabulary):
    """Frequency-ranked vocabulary (rank 1 = most frequent)."""

    entries: dict[str, int]
    rank_threshold: int = 25000
    single_char_set: frozenset = SINGLE_CHAR_WORDS
    boost: float = 20.0
    rank_floor: float = 20.0
    rank_scale: float = 1e6
    # Damping divisor of each character of single_char_set.
    divisors: dict[str, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.single_char_set = frozenset(self.single_char_set)
        _require_characters(self, "single_char_set")
        _require_finite(self, "boost", "rank_scale", "rank_floor")
        for name in ("boost", "rank_scale", "rank_floor"):
            if (value := getattr(self, name)) <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        threshold = self.rank_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, int) or threshold < 1:
            raise ValueError(f"rank_threshold must be an integer >= 1, got {threshold!r}")
        entries = self.entries
        ranks = list(entries.values())
        if min(ranks, default=1) < 1:
            raise EntryError("ranks must be positive integers", next(w for w, r in entries.items() if r < 1))
        if len(set(ranks)) != len(ranks):
            first: dict[int, str] = {}
            for word, rank in entries.items():
                if rank in first:
                    raise EntryError("ranks must be unique", first[rank], word)
                first[rank] = word
        if "" in entries:
            raise EntryError("lexicon words must be nonempty", "")
        self.divisors = dict.fromkeys(self.single_char_set, self.rank_floor)
        for ch in sorted(self.single_char_set & entries.keys()):
            try:
                ratio = self.rank_scale / entries[ch]
            except OverflowError:
                raise EntryError("a one-character word's rank must fit in a float", ch) from None
            if ratio == 0.0:
                raise ValueError(f"rank_scale {self.rank_scale!r} over the rank of {ch!r} underflows to 0")
            self.divisors[ch] = max(self.rank_floor, math.log(ratio))

    @cached_property
    def frequent_bigrams(self) -> frozenset:
        """All two-character substrings of words ranked below the threshold."""
        return frozenset(
            pair
            for word, rank in self.entries.items()
            if rank < self.rank_threshold
            for pair in map(add, word, word[1:])
        )


@dataclass
class WordStats(_Vocabulary):
    """Word frequencies from a pre-segmented training corpus."""

    words: dict[str, int]
    boost: float = 20.0
    damp_divisor: float = 250.0
    # Damping divisor of each one-character training word.
    divisors: dict[str, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _require_finite(self, "boost", "damp_divisor")
        for name in ("boost", "damp_divisor"):
            if (value := getattr(self, name)) <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        words = self.words
        if min(words.values(), default=1) < 1:
            raise EntryError("word counts must be >= 1", next(w for w, c in words.items() if c < 1))
        if "" in words:
            raise EntryError("training words must be nonempty", "")
        self.divisors = {}
        for w, count in words.items():
            if len(w) == 1:
                try:
                    self.divisors[w] = max(1.0, count / self.damp_divisor)
                except OverflowError:
                    raise EntryError("a one-character word's count must fit in a float", w) from None

    @cached_property
    def frequent_bigrams(self) -> frozenset:
        """All two-character substrings of the training words."""
        return frozenset(pair for word in self.words for pair in map(add, word, word[1:]))


def _adjacent_bonds(s: str, model: NGramModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Base strength for each adjacent character pair, plus the line's
    character and pair keys and the rows of its triples in the model's
    trigram table.

    The strength is the largest of the transition probabilities that are
    defined at this position, scaled by the standardized bigram log-count.
    P(b | a) is defined at every pair; P(c | a b) needs a character before
    the pair and P(a | b c) one after it, so those two drop out at the
    first and last pair.
    """
    chars, pairs, triples = line_keys(s)
    bi_keys, given_first, bi_logs = model.bigram_table
    tri_keys, given_pair, given_tail, _ = model.trigram_table
    bi, tri = find(bi_keys, pairs), find(tri_keys, triples)
    p = given_first[bi]
    np.maximum(p[1:], given_pair[tri], out=p[1:])
    np.maximum(p[:-1], given_tail[tri], out=p[:-1])
    return p * bi_logs[bi], chars, pairs, tri


def build_w_ehr(s: str, model: NGramModel, params: EhrParams | None = None) -> ConnectionMatrix:
    """Dictionary-free connection matrix with both off-diagonal bands.

    The one-gap bond of a triple a b c is P(b c | a) scaled by the
    standardized trigram log-count, and 0 when any of the three is in
    weaken set 2.
    """
    if params is None:
        params = EhrParams()
    off1, chars, _, tri = _adjacent_bonds(s, model)
    weak1, weak2 = (holds(table, chars) for table in params.weaken_tables)
    # Both weakenings stack when a pair hits both sets.
    off1 = np.where(weak1[:-1] | weak1[1:], off1 / params.factor_1, off1)
    off1 = np.where(weak2[:-1] | weak2[1:], off1 / params.factor_2, off1)
    off2 = np.where(weak2[:-2] | weak2[1:-1] | weak2[2:], 0.0, model.trigram_table[3][tri])
    return ConnectionMatrix(np.ones(len(s)), off1, off2)


def build_w_vocab(s: str, model: NGramModel, vocab: Lexicon | WordStats) -> ConnectionMatrix:
    """Vocabulary-modified connection matrix; no one-gap band.

    Adjacent bonds inside a frequent vocabulary bigram are boosted; the
    others are damped once per character that is a single-character word,
    so a pair of two standalone words is divided twice. Boost and damping
    are mutually exclusive, boost first. A Lexicon and WordStats each hand
    the builder their two tables: boost_table and divisor_table.
    """
    n = len(s)
    off1, chars, pairs, _ = _adjacent_bonds(s, model)
    damped, divisors = vocab.divisor_table
    divisor = divisors[find(damped, chars)]
    off1 = np.where(holds(vocab.boost_table, pairs), off1 * vocab.boost, off1 / divisor[:-1] / divisor[1:])
    return ConnectionMatrix(np.ones(n), off1, np.zeros(max(n - 2, 0)))


def check_boost(model: NGramModel, recipe) -> None:
    """Raise ValueError if a boosted bond built from model under recipe,
    a Lexicon or WordStats, could overflow; other recipes boost nothing.

    A transition probability is a count over a count of at least 1, and a
    standardized bigram log-count grows with the count, so no base bond
    exceeds the largest bigram or trigram count times the standardized
    log-count of the largest bigram count.
    """
    boost = getattr(recipe, "boost", None)
    top_bi = float(model.of_order(2)[1].max(initial=0))
    if boost is None or top_bi <= 1.0:  # with no log-count above 0, every bond is 0
        return
    top = max(top_bi, float(model.of_order(3)[1].max(initial=0)))
    bound = top * (math.log(top_bi) / model.log_sd_bi)
    # A bound that is not finite is the model's fault, not the boost's.
    if math.isfinite(bound) and not math.isfinite(bound * boost):
        raise ValueError(
            f"boost {boost!r} could overflow a bond of this model, which reaches {bound:.6g} unboosted"
        )


def _walk_word_numbers(path, what: str, lines: list[str]) -> tuple[dict[str, int], dict[str, int]]:
    """The lines of a "word<TAB>number" file read one by one, so the first
    faulty line is named; each word's number and each word's line."""
    out: dict[str, int] = {}
    first: dict[str, int] = {}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            word, number = line.split("\t")
            value = int(number)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected 'word<TAB>{what}', got {line!r}") from exc
        if word in first:
            raise ValueError(f"{path}:{lineno}: word {word!r} already listed on line {first[word]}")
        first[word] = lineno
        out[word] = value
    return out, first


def _load_words(path, what: str, build):
    """build(numbers) for a "word<TAB>number" file, skipping blank lines.
    A line without exactly one tab, or whose number int() refuses, is an
    error naming it, as is an entry that build refuses; a word listed
    twice, or a number build refuses to see twice, names both lines.

    Every line is read before any is parsed, so an invalid byte anywhere in
    the file is reported before a faulty line. The non-blank lines are then
    parsed at once: one split of all of them, one int() per number and one
    dict. Only a file that fails that, or that build refuses, is walked
    line by line to name its faulty line; the two agree on every file."""
    lines = list(iter_corpus_lines(path))
    rows = list(filter(str.strip, lines))
    # Split at every tab with "\n\t" between rows, a piece ending in "\n"
    # ends a row. Every row holds one tab just when there are two pieces a
    # row and no word piece holds a "\n"; int() ignores a number's "\n".
    pieces = "\n\t".join(rows).split("\t")
    words, numbers = pieces[::2], pieces[1::2]
    parsed = {}
    if len(pieces) == 2 * len(rows) and "\n" not in "".join(words):
        with contextlib.suppress(ValueError):
            parsed = dict(zip(words, map(int, numbers)))
    if len(parsed) != len(rows):  # a faulty line, or a word listed twice
        parsed = _walk_word_numbers(path, what, lines)[0]
    try:
        return build(parsed)
    except EntryError as exc:
        line_of = _walk_word_numbers(path, what, lines)[1]
        *earlier, word = exc.words
        message = f"{path}:{line_of[word]}: {exc}"
        for other in earlier:
            message += f": {what} {parsed[word]} already listed on line {line_of[other]}"
        raise ValueError(message) from None


def load_lexicon(path, **kwargs) -> Lexicon:
    """Read a "word<TAB>rank" file into a Lexicon."""
    return _load_words(path, "rank", lambda entries: Lexicon(entries=entries, **kwargs))


def load_word_stats(path, **kwargs) -> WordStats:
    """Read a "word<TAB>count" file into WordStats."""
    return _load_words(path, "count", lambda words: WordStats(words=words, **kwargs))
