from segspectral import is_chinese


def test_common_ideographs():
    assert is_chinese("天")
    assert is_chinese("门")
    assert is_chinese("的")


def test_range_boundaries():
    # Main block and Extension A, inclusive on both ends.
    assert is_chinese("一")
    assert is_chinese("鿿")
    assert is_chinese("㐀")
    assert is_chinese("䶿")
    assert not is_chinese("㏿")
    assert not is_chinese("䷀")  # hexagram block sits between the two
    assert not is_chinese("ꀀ")


def test_other_scripts_and_symbols():
    for ch in "aZ3 ,。！・の한🙂％":
        assert not is_chinese(ch), ch

