import numpy as np

from segspectral.chars import DEFAULT_CJK_RANGES, chinese_mask

from cjk import CHINESE_RUN


def test_common_ideographs():
    for ch in "天门的":
        assert CHINESE_RUN.fullmatch(ch), ch


def test_range_boundaries():
    # Main block and Extension A, inclusive on both ends.
    for ch in "一鿿㐀䶿":
        assert CHINESE_RUN.fullmatch(ch), ch
    # U+33FF, the hexagram block between the two ranges, and U+A000.
    for ch in "㏿䷀ꀀ":
        assert not CHINESE_RUN.fullmatch(ch), ch


def test_other_scripts_and_symbols():
    for ch in "aZ3 ,。！・の한🙂％":
        assert not CHINESE_RUN.fullmatch(ch), ch


def test_mask_and_run_agree_on_every_code_point():
    points = np.arange(0x110000, dtype=np.uint64)
    text = "".join(map(chr, range(0x110000)))
    want = np.zeros(len(points), bool)
    for run in CHINESE_RUN.finditer(text):
        want[run.start() : run.end()] = True
    assert np.array_equal(chinese_mask(points), want)
    assert want.sum() == sum(hi - lo + 1 for lo, hi in DEFAULT_CJK_RANGES)
