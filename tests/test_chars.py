from segspectral.chars import CHINESE_RUN


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
