"""Segmentation scoring and synthetic benchmark corpora.

A segmentation of a line is scored as a set of character-index spans
(start, end). Recall is correct spans over gold spans, precision is
correct spans over predicted spans, and F is their harmonic mean; corpus
scores pool the counts over all lines rather than averaging per-line
rates.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import islice

from .chars import DEFAULT_CJK_RANGES
from .graph import SINGLE_CHAR_WORDS, WEAKEN_SET_1, WEAKEN_SET_2


@dataclass(frozen=True)
class EvalReport:
    gold_words: int
    pred_words: int
    correct_words: int

    @property
    def recall(self) -> float:
        return self.correct_words / self.gold_words if self.gold_words else 0.0

    @property
    def precision(self) -> float:
        return self.correct_words / self.pred_words if self.pred_words else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def summary_line(self) -> str:
        return (
            f"R={self.recall:.4f} P={self.precision:.4f} F={self.f1:.4f} "
            f"gold={self.gold_words} pred={self.pred_words} "
            f"correct={self.correct_words}"
        )


def _spans(words: list[str]) -> set[tuple[int, int]]:
    spans = set()
    pos = 0
    for w in words:
        spans.add((pos, pos + len(w)))
        pos += len(w)
    return spans


def count_matches(gold: list[str], pred: list[str]) -> tuple[int, int, int]:
    """(gold spans, predicted spans, shared spans) for one line.

    Both word lists must spell the same text; a word is correct only when
    its exact character span appears in the gold segmentation.
    """
    if "".join(gold) != "".join(pred):
        raise ValueError("gold and predicted segmentations spell different text")
    g = _spans(gold)
    p = _spans(pred)
    return len(g), len(p), len(g & p)


def score_corpus(gold: list[list[str]], pred: list[list[str]]) -> EvalReport:
    """Pooled scores over aligned lines; a mismatch names its 1-based line."""
    if len(gold) != len(pred):
        raise ValueError(
            f"gold has {len(gold)} lines but prediction has {len(pred)}"
        )
    tg = tp = tc = 0
    for lineno, (g, p) in enumerate(zip(gold, pred), 1):
        try:
            ng, np_, nc = count_matches(g, p)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        tg += ng
        tp += np_
        tc += nc
    return EvalReport(tg, tp, tc)


def parse_segmented(line: str) -> list[str]:
    """Read one line of space-delimited words (the gold-file format)."""
    return line.split()


@dataclass
class SynthSpec:
    vocab_size: int = 20
    word_len: tuple[int, int] = (2, 4)
    sentence_len: tuple[int, int] = (5, 10)
    sentences: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be at least 1")
        for name in ("word_len", "sentence_len"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi")
        if self.sentences < 0:
            raise ValueError("sentences must be nonnegative")


# Characters that built-in recipes treat specially would distort the
# synthetic graph weights, so the inventory skips them.
_EXCLUDED = frozenset(WEAKEN_SET_1) | frozenset(WEAKEN_SET_2) | frozenset(SINGLE_CHAR_WORDS)


def _char_inventory(count: int) -> list[str]:
    """The first count Chinese characters, range by range in
    DEFAULT_CJK_RANGES order, that are not in _EXCLUDED."""
    codes = (cp for lo, hi in DEFAULT_CJK_RANGES for cp in range(lo, hi + 1))
    chars = list(islice((ch for ch in map(chr, codes) if ch not in _EXCLUDED), count))
    if len(chars) < count:
        raise ValueError("character inventory exhausted")
    return chars


def generate_synthetic(spec: SynthSpec) -> tuple[list[str], list[list[str]]]:
    """Deterministic corpus with unambiguous word boundaries.

    Every word draws from its own disjoint character set, so inside a word
    each character determines the next, while across a boundary the next
    character is near-uniform over the vocabulary. Returns the raw lines
    and the gold segmentation of each.
    """
    if spec.vocab_size == 1:
        warnings.warn("vocab_size=1 leaves no boundary signal", stacklevel=2)
    rng = random.Random(spec.seed)
    lo, hi = spec.word_len
    lengths = [rng.randint(lo, hi) for _ in range(spec.vocab_size)]
    chars = _char_inventory(sum(lengths))
    vocab = []
    pos = 0
    for n in lengths:
        vocab.append("".join(chars[pos : pos + n]))
        pos += n

    lines: list[str] = []
    gold: list[list[str]] = []
    slo, shi = spec.sentence_len
    for _ in range(spec.sentences):
        words = [rng.choice(vocab) for _ in range(rng.randint(slo, shi))]
        lines.append("".join(words))
        gold.append(words)
    return lines, gold
