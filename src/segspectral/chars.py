"""Character classification for segmentation purposes.

Every Unicode scalar value is either Chinese (a CJK ideograph) or Other
(letters, digits, punctuation, whitespace, anything else). Transition
statistics are only kept for runs of Chinese characters; Other characters
never carry probability mass and end up isolated in the sentence graph.

DEFAULT_CJK_RANGES is the one rule, and CHINESE_RUN (a maximal run of
Chinese characters) is built from it. The rule is applied once, when
ngram.ingest_corpus counts a corpus: it counts n-grams inside the runs
CHINESE_RUN finds, and every later query trusts those keys.
"""

from __future__ import annotations

import re

# CJK Unified Ideographs plus Extension A. Extend here for corpora that
# use the supplementary ideographic planes.
DEFAULT_CJK_RANGES: tuple[tuple[int, int], ...] = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
)

CHINESE_RUN = re.compile(
    "[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in DEFAULT_CJK_RANGES) + "]+"
)
