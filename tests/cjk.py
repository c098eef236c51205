"""The package's Chinese-character rule as a regular expression, built from
chars.DEFAULT_CJK_RANGES, for tests that classify text character by
character instead of by chars.chinese_mask."""

import re

from segspectral.chars import DEFAULT_CJK_RANGES

# A maximal run of Chinese characters.
CHINESE_RUN = re.compile(
    "[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in DEFAULT_CJK_RANGES) + "]+"
)
