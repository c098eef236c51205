"""Seeded synthetic corpora for the benchmark.

Every word of a vocabulary draws its characters from its own disjoint
set, so gold word boundaries are unambiguous: inside a word each
character fixes the next, across a boundary the next character is close
to uniform over the vocabulary.

This follows the package's generate_synthetic, with three departures.
Lengths are stratified so that the amount of work does not drift with
the seed: vocabulary word lengths cycle through their range, and sentence
lengths come in blocks of BLOCK lines that each sample every stratum of
the range once, so any prefix of whole blocks has the same length
profile. Over seeds 1-10 the mean cubed line length (the eigensolver's
work per line) spread by 0.16-0.18 (quartile distance over median) with
generate_synthetic at vocab 200 and 5-20 or 50-80 words per sentence,
and by 0.007-0.026 here. The seed picks the characters, not only the
words and their order. And the vocabulary leaves out the characters the
mixed tokens use, which generate_synthetic's inventory does not.

Mixed text, used by the lexicon workload, inserts tokens between words:
punctuation, ASCII digit runs (sometimes followed by a date/time unit
character), Latin-letter tokens and common single-character function
words. Each inserted token is one gold word.
"""

from __future__ import annotations

import random

PUNCTUATION = "，。、；：！？"
UNIT_CHARS = "年月日时分"
LATIN = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
FUNCTION_CHARS = "的在和是上中下不有对"

_CJK_FIRST, _CJK_LAST = 0x4E00, 0x9FFF

# Lines per stratified block; the benchmark ends its timed loops on block
# boundaries.
BLOCK = 8


def make_vocab(rng: random.Random, size: int, word_len: tuple[int, int], reserved: str) -> list[str]:
    """size words over disjoint CJK characters, none of them in reserved."""
    lo, hi = word_len
    lengths = [lo + i % (hi - lo + 1) for i in range(size)]
    rng.shuffle(lengths)
    skip = set(reserved)
    pool = [chr(cp) for cp in range(_CJK_FIRST, _CJK_LAST + 1) if chr(cp) not in skip]
    chars = rng.sample(pool, sum(lengths))
    vocab, pos = [], 0
    for n in lengths:
        vocab.append("".join(chars[pos : pos + n]))
        pos += n
    return vocab


def _block_lengths(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count sentence lengths; each block of BLOCK draws one length from
    each of BLOCK equal strata of lo..hi, in seeded order."""
    span = hi - lo + 1
    out: list[int] = []
    while len(out) < count:
        block = [lo + int((j + rng.random()) * span / BLOCK) for j in range(BLOCK)]
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _mixed_token(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(PUNCTUATION)
    if kind == 1:
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(2, 4)))
        return digits + rng.choice(UNIT_CHARS) if rng.random() < 0.5 else digits
    if kind == 2:
        return "".join(rng.choice(LATIN) for _ in range(rng.randint(2, 5)))
    return rng.choice(FUNCTION_CHARS)


def make_sentences(
    rng: random.Random,
    vocab: list[str],
    sentence_len: tuple[int, int],
    count: int,
    mixed_rate: float = 0.0,
) -> list[list[str]]:
    """Gold word lists of count sentences of sentence_len vocabulary words;
    their concatenations are the raw lines. With mixed_rate > 0 a mixed
    token precedes each non-initial word with that probability."""
    out = []
    for length in _block_lengths(rng, *sentence_len, count):
        words = []
        for i in range(length):
            if i and rng.random() < mixed_rate:
                words.append(_mixed_token(rng))
            words.append(rng.choice(vocab))
        out.append(words)
    return out


def reserved_chars(special: str) -> str:
    """Characters no vocabulary word may use: special (the ones a recipe
    treats specially) plus everything the mixed tokens insert."""
    return special + PUNCTUATION + UNIT_CHARS + FUNCTION_CHARS
