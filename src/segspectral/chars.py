"""Character classification for segmentation purposes.

Every Unicode scalar value is either Chinese (a CJK ideograph) or Other
(letters, digits, punctuation, whitespace, anything else). Transition
statistics are only kept for runs of Chinese characters; Other characters
never carry probability mass and end up isolated in the sentence graph.

The rule is applied once, when ngram.ingest_corpus counts a corpus: it
stores only all-Chinese n-grams, and every later query trusts those keys.
"""

from __future__ import annotations

# CJK Unified Ideographs plus Extension A. Extend here for corpora that
# use the supplementary ideographic planes.
DEFAULT_CJK_RANGES: tuple[tuple[int, int], ...] = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
)


def is_chinese(ch: str) -> bool:
    """True if the single character falls in a CJK ideograph range."""
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in DEFAULT_CJK_RANGES)
