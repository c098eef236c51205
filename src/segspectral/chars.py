"""Character classification for segmentation purposes.

Every Unicode scalar value is either Chinese (a CJK ideograph) or Other
(letters, digits, punctuation, whitespace, anything else). Transition
statistics are only kept for runs of Chinese characters; Other characters
never carry probability mass and end up isolated in the sentence graph.

DEFAULT_CJK_RANGES is the one rule, and chinese_mask is built from it.
The rule is applied once, when ngram.ingest_corpus masks a corpus with
chinese_mask, and every later query trusts the keys it counts.
"""

from __future__ import annotations

import numpy as np

# CJK Unified Ideographs plus Extension A. Extend here for corpora that
# use the supplementary ideographic planes.
DEFAULT_CJK_RANGES: tuple[tuple[int, int], ...] = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
)


def chinese_mask(points: np.ndarray) -> np.ndarray:
    """Which of an array of code points are Chinese."""
    return np.any([(lo <= points) & (points <= hi) for lo, hi in DEFAULT_CJK_RANGES], axis=0)
