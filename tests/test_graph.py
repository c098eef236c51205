import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segspectral import (
    SINGLE_CHAR_WORDS,
    WEAKEN_SET_1,
    WEAKEN_SET_2,
    ConnectionMatrix,
    EhrParams,
    LaplacianForm,
    Lexicon,
    NGramModel,
    SegmenterConfig,
    WordStats,
    build_laplacian,
    ingest_corpus,
    load_lexicon,
    load_model,
    load_word_stats,
    save_model,
    segment_sentence,
)
from segspectral.graph import build_w_ehr, build_w_vocab
from segspectral.pipeline import build_w

from cjk import CHINESE_RUN
from dense import dense_matrix
from readers import check_counts, check_ranks, read_word_numbers

LN2 = math.log(2)


class TestConnectionMatrix:
    def test_dense_and_degrees(self):
        w = ConnectionMatrix([1, 1, 1, 1], [2, 3, 4], [5, 6])
        expect = np.array(
            [
                [1, 2, 5, 0],
                [2, 1, 3, 6],
                [5, 3, 1, 4],
                [0, 6, 4, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(dense_matrix(w), expect)
        assert np.array_equal(w.degrees(), expect.sum(axis=1))

    def test_single_node(self):
        w = ConnectionMatrix([1.0], [], [])
        assert w.n == 1
        assert np.array_equal(dense_matrix(w), [[1.0]])
        assert np.array_equal(w.degrees(), [1.0])

    def test_identity_and_scaled(self):
        w = ConnectionMatrix(np.ones(3), np.zeros(2), np.zeros(1))
        assert np.array_equal(dense_matrix(w), np.eye(3))
        w = ConnectionMatrix([1, 1, 1], [2, 3], [4])
        doubled = ConnectionMatrix(w.diag * 2.0, w.off1 * 2.0, w.off2 * 2.0)
        assert np.array_equal(dense_matrix(doubled), 2.0 * dense_matrix(w))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one node"):
            ConnectionMatrix([], [], [])
        with pytest.raises(ValueError, match="band lengths"):
            ConnectionMatrix([1, 1], [0.5, 0.5], [])
        with pytest.raises(ValueError, match="band lengths"):
            ConnectionMatrix([1, 1, 1], [1, 1], [0.1, 0.2])
        with pytest.raises(ValueError, match="nonnegative"):
            ConnectionMatrix([1, 1], [-0.5], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("band", ["diag", "off1", "off2"])
    def test_non_finite_strengths_are_refused(self, band, bad):
        bands = {"diag": np.ones(4), "off1": np.ones(3), "off2": np.zeros(2)}
        bands[band][1] = bad
        for form in LaplacianForm:
            # Refused before any Laplacian arithmetic can warn.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"finite, and band {band} "):
                    build_laplacian(ConnectionMatrix(**bands), form)


@pytest.fixture()
def toy_model():
    return ingest_corpus(["天安门广场", "天安门"])


class TestEhrRecipe:
    def test_band_values(self, toy_model):
        # Distinct bigram counts are {2, 2, 1, 1}: sd of ln-counts is ln2/2,
        # so the two count-2 bonds standardize to exactly 2; count-1 bonds
        # standardize to ln1 = 0. The leading trigram standardizes to
        # ln2 / (ln2*sqrt(2)/3) = 3/sqrt(2); all probabilities involved are 1.
        w = build_w_ehr("天安门广场", toy_model)
        assert np.array_equal(w.diag, np.ones(5))
        assert w.off1 == pytest.approx([2.0, 2.0, 0.0, 0.0], rel=1e-12)
        assert w.off2 == pytest.approx([3 / math.sqrt(2), 0.0, 0.0], rel=1e-12)

    def test_boundary_pairs_use_available_terms(self):
        # 安门 is never sentence-internal here, so only the plain transition
        # term and the backward-context term can fire at position 0.
        m = ingest_corpus(["安门口", "安门口"])
        w = build_w_ehr("安门", m)
        assert w.off1[0] == pytest.approx(LN2, rel=1e-12)

    def test_weaken_set_2(self):
        m = ingest_corpus(["天的", "天的"])
        w = build_w_ehr("天的", m)
        assert w.off1[0] == pytest.approx(LN2 / 80, rel=1e-12)

    def test_weakenings_stack(self):
        # 和 hits set 1, 了 hits set 2: the bond is divided by both factors.
        m = ingest_corpus(["和了", "和了"])
        w = build_w_ehr("和了", m)
        assert w.off1[0] == pytest.approx(LN2 / (4 * 80), rel=1e-12)

    def test_one_gap_band_zeroed_by_set_2(self):
        m = ingest_corpus(["天了门", "天了门"])
        w = build_w_ehr("天了门", m)
        assert w.off2[0] == 0.0
        assert w.off1 == pytest.approx([LN2 / 80, LN2 / 80], rel=1e-12)

    def test_custom_params(self):
        m = ingest_corpus(["天安", "天安"])
        w = build_w_ehr("天安", m, EhrParams(weaken_set_1="天", weaken_set_2="", factor_1=2.0))
        assert w.off1[0] == pytest.approx(LN2 / 2, rel=1e-12)

    def test_factor_validation(self):
        with pytest.raises(ValueError, match=r"^factor_1 must be >= 1, got 0.5$"):
            EhrParams(factor_1=0.5)
        with pytest.raises(ValueError, match=r"^factor_2 must be >= 1, got 0.9$"):
            EhrParams(factor_2=0.9)

    def test_non_chinese_text_has_zero_bonds(self, toy_model):
        w = build_w_ehr("ab1", toy_model)
        assert np.array_equal(w.off1, [0.0, 0.0])
        assert np.array_equal(w.off2, [0.0])
        assert np.array_equal(w.diag, np.ones(3))

    def test_single_char_and_empty(self, toy_model):
        w = build_w_ehr("天", toy_model)
        assert (w.n, w.off1.size, w.off2.size) == (1, 0, 0)
        with pytest.raises(ValueError, match="empty"):
            build_w_ehr("", toy_model)


# CJK (with weakened and single-character-word members), ASCII letters and
# digits, punctuation, whitespace, and non-BMP characters: U+20000 is an
# Extension B ideograph outside DEFAULT_CJK_RANGES, so it counts as Other.
_MIXED = "天安门广场和的了" + "ab1Z9" + ",.!。、" + " \t\u3000" + "\U00020000\U0001F642"


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.text(alphabet=_MIXED, min_size=1, max_size=12), min_size=1, max_size=6),
    st.lists(st.tuples(*[st.sampled_from(_MIXED)] * 3), max_size=20),
)
def test_non_chinese_characters_never_bond(lines, queries):
    # ingest_corpus is the only place the Chinese-character rule is applied;
    # every bond downstream must still respect it, on the lines the model
    # was trained on and on arbitrary triples.
    model = ingest_corpus(lines)
    words = {line[i : i + n] for line in lines for n in (1, 2, 3) for i in range(len(line) - n + 1)}
    lexicon = Lexicon(entries={w: rank for rank, w in enumerate(sorted(words), 1)})
    stats = WordStats(words=dict.fromkeys(words, 300))
    for s in lines + ["".join(q) for q in queries]:
        ehr = build_w_ehr(s, model)
        for w in (ehr, build_w_vocab(s, model, lexicon), build_w_vocab(s, model, stats)):
            for i in range(len(s) - 1):
                if not CHINESE_RUN.fullmatch(s[i : i + 2]):
                    assert w.off1[i] == 0.0, (s, i)
        for i in range(len(s) - 2):
            if not CHINESE_RUN.fullmatch(s[i : i + 3]):
                assert ehr.off2[i] == 0.0, (s, i)


def reference_bands(s, model, recipe):
    """The per-position builders the array arithmetic replaced, with the
    model's bond formulas written out at each position: the reference the
    builders must match exactly."""
    n = len(s)
    uni, bi, tri = model.uni, model.bi, model.tri
    off1 = np.zeros(max(n - 1, 0))
    for i in range(n - 1):
        a, b = s[i], s[i + 1]
        # P(b | a)
        p = bi.get(a + b, 0) / uni[a] if uni.get(a, 0) else 0.0
        if i >= 1:
            # P(b | s[i-1] a)
            ctx = bi.get(s[i - 1] + a, 0)
            p = max(p, tri.get(s[i - 1 : i + 2], 0) / ctx if ctx else 0.0)
        if i + 2 < n:
            # P(a | b s[i+2])
            ctx = bi.get(b + s[i + 2], 0)
            p = max(p, tri.get(s[i : i + 3], 0) / ctx if ctx else 0.0)
        count = bi.get(a + b, 0)
        off1[i] = p * (math.log(count) / model.log_sd_bi if count else 0.0)
    off2 = np.zeros(max(n - 2, 0))
    if isinstance(recipe, EhrParams):
        for i in range(n - 1):
            if s[i] in recipe.weaken_set_1 or s[i + 1] in recipe.weaken_set_1:
                off1[i] /= recipe.factor_1
            if s[i] in recipe.weaken_set_2 or s[i + 1] in recipe.weaken_set_2:
                off1[i] /= recipe.factor_2
        for i in range(n - 2):
            if any(ch in recipe.weaken_set_2 for ch in s[i : i + 3]):
                continue
            # P(s[i+1] s[i+2] | s[i]) times the standardized trigram log-count
            ca, count = uni.get(s[i], 0), tri.get(s[i : i + 3], 0)
            p = count / ca if ca else 0.0
            off2[i] = p * (math.log(count) / model.log_sd_tri if count else 0.0)
    else:
        for i in range(n - 1):
            pair = s[i : i + 2]
            if pair in recipe.frequent_bigrams:
                off1[i] *= recipe.boost
                continue
            for ch in pair:
                off1[i] /= reference_divisor(ch, recipe)
    return np.ones(n), off1, off2


def reference_divisor(ch, recipe):
    """README's damping divisor of a bond touching ch, and 1.0 (an exact
    division) for a character that damps nothing."""
    if isinstance(recipe, Lexicon):
        if ch not in recipe.single_char_set:
            return 1.0
        rank = recipe.entries.get(ch)
        if rank is None:
            return recipe.rank_floor
        return max(recipe.rank_floor, math.log(recipe.rank_scale / rank))
    count = recipe.words.get(ch)
    return 1.0 if count is None else max(1.0, count / recipe.damp_divisor)


def _hand_built_model():
    """A model no corpus yields: 安 and 和的 are not stored while longer
    n-grams holding them are, 广场 is stored while 广 has no unigram, 场天
    and 广场天 have counts beyond the 53 bits a float holds exactly, some
    keys start or end with NUL and some are outside the Basic Multilingual
    Plane. The model file accepts all of them."""
    model = NGramModel.from_counts(
        uni={"天": 4, "门": 3, "和": 2, "的": 5, "场": 1, "\U00020000": 2, "\x00": 3},
        bi={
            "天安": 3, "安门": 2, "广场": 2, "门和": 1, "的了": 4, "场天": 2**64 - 1, "的天": 2,
            "\U00020000\U00020001": 2, "\x00天": 3, "门\x00": 1,
        },
        tri={
            "天安门": 2, "广场天": 2**63 + 1, "门和的": 1, "和的了": 3, "门的天": 2,
            "\U00020000\U00020001天": 1, "\x00天安": 2,
        },
    )
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    return load_model(buf)


# Lines of 1-12 characters of _MIXED, NUL and a lone surrogate, drawn in
# pieces that include the hand-built model's trigrams, so that stored and
# repeated n-grams, and so nonzero bonds in both bands, are common.
_PIECES = [
    *_MIXED, "\x00", "\ud800", "天安门", "安门和", "广场天", "门和的", "和的了", "门的天",
    "\U00020000\U00020001天", "\x00天安",
]
_LINES = st.lists(
    st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4).map("".join), min_size=1, max_size=6
)


@pytest.mark.parametrize("kind", ["ingested", "hand-built"])
@settings(deadline=None, max_examples=80)
@given(
    lines=_LINES,
    words=st.lists(st.text(alphabet=_MIXED, min_size=1, max_size=3), max_size=10),
    counts=st.lists(st.integers(1, 2000), min_size=10, max_size=10),
    rank_threshold=st.integers(1, 10),
    rank_scale=st.sampled_from([1e6, 1e12]),
)
def test_bands_match_per_position_reference(kind, lines, words, counts, rank_threshold, rank_scale):
    model = ingest_corpus(lines) if kind == "ingested" else _hand_built_model()
    words = list(dict.fromkeys(words))
    recipes = [
        EhrParams(),
        Lexicon(
            entries={w: rank for rank, w in enumerate(words, 1)},
            rank_threshold=rank_threshold,
            rank_scale=rank_scale,
        ),
        WordStats(words=dict(zip(words, counts))),
    ]
    for s in lines:
        for recipe in recipes:
            w = build_w(s, model, recipe)
            for got, want in zip((w.diag, w.off1, w.off2), reference_bands(s, model, recipe)):
                assert np.array_equal(got, want), (s, recipe, got, want)


def test_key_table_holds_each_stored_ngram_once():
    model = _hand_built_model()
    keys, counts, logs = model.key_table
    stored = [(key, count) for table in (model.uni, model.bi, model.tri) for key, count in table.items()]
    # one entry per stored n-gram, then the sentinel
    assert keys.size == counts.size == logs.size == len(stored) + 1
    assert np.all(keys[1:] > keys[:-1])
    assert sorted(counts[:-1].tolist()) == sorted(float(count) for _, count in stored)
    assert (counts[-1], logs[-1]) == (0.0, 0.0)


def test_key_table_is_not_model_state():
    # The table and the sds are worked out at the first lookup, and
    # neither equality nor the model file sees them.
    model, twin = _hand_built_model(), _hand_built_model()
    saved = io.BytesIO()
    save_model(model, saved)
    fields = {"keys", "counts", "source", "line_count"}
    assert vars(model).keys() == vars(ingest_corpus(["天安门"])).keys() == fields
    segment_sentence("天安门广场天", model, SegmenterConfig.for_recipe(EhrParams()))
    assert vars(model).keys() > fields
    assert model == twin
    again = io.BytesIO()
    save_model(model, again)
    assert again.getvalue() == saved.getvalue()


class TestLexiconRecipe:
    def test_boost_inside_frequent_word(self):
        m = ingest_corpus(["天安", "天安"])
        lex = Lexicon(entries={"天安门": 100})
        w = build_w_vocab("天安", m, lex)
        assert w.off1[0] == pytest.approx(LN2 * 20, rel=1e-12)

    def test_rank_threshold_is_exclusive(self):
        at = Lexicon(entries={"天安门": 25000})
        below = Lexicon(entries={"天安门": 24999})
        assert at.frequent_bigrams == frozenset()
        assert below.frequent_bigrams == {"天安", "安门"}

    @pytest.mark.parametrize("value", [math.nan, -5, 0, True, False, 2.5, "3"])
    def test_rank_threshold_must_be_an_integer_from_1(self, value):
        with pytest.raises(ValueError, match="rank_threshold must be an integer >= 1"):
            Lexicon(entries={"天安": 1}, rank_threshold=value)

    def test_damp_once_per_qualifying_char(self):
        # Both 的 and 了 are common single-character words with no lexicon
        # entry, so each contributes the floor divisor of 20.
        m = ingest_corpus(["的了", "的了"])
        w = build_w_vocab("的了", m, Lexicon(entries={}))
        assert w.off1[0] == pytest.approx(LN2 / (20 * 20), rel=1e-12)

    def test_rank_based_divisor_beyond_floor(self):
        m = ingest_corpus(["的天", "的天"])
        lex = Lexicon(entries={"的": 2}, rank_scale=1e12)
        w = build_w_vocab("的天", m, lex)
        assert w.off1[0] == pytest.approx(LN2 / math.log(1e12 / 2), rel=1e-12)

    def test_default_scale_lands_on_floor(self):
        # ln(1e6 / rank) < 20 for every positive rank, so the floor rules.
        lex = Lexicon(entries={"的": 2})
        assert lex.divisors["的"] == 20.0
        assert lex.divisors["了"] == 20.0  # not a lexicon word

    def test_boost_wins_over_damp(self):
        m = ingest_corpus(["的天", "的天"])
        lex = Lexicon(entries={"的天门": 5})
        w = build_w_vocab("的天", m, lex)
        assert w.off1[0] == pytest.approx(LN2 * 20, rel=1e-12)

    def test_no_one_gap_band(self):
        m = ingest_corpus(["天安门", "天安门"])
        w = build_w_vocab("天安门", m, Lexicon(entries={}))
        assert np.array_equal(w.off2, [0.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            Lexicon(entries={"天安": 1, "广场": 1})
        with pytest.raises(ValueError, match="positive"):
            Lexicon(entries={"天安": 0})
        with pytest.raises(ValueError, match="nonempty"):
            Lexicon(entries={"": 1})
        with pytest.raises(ValueError, match="boost"):
            Lexicon(entries={}, boost=0.0)

    def test_rank_that_underflows_rank_scale_is_refused(self):
        Lexicon(entries={"的": 10**300}, rank_scale=1e-10)  # a subnormal ratio has a log
        with pytest.raises(ValueError, match="rank_scale 1e-300 over the rank of '的' underflows to 0"):
            Lexicon(entries={"的": 10**300}, rank_scale=1e-300)
        # a word outside single_char_set is never divided by
        Lexicon(entries={"天": 10**300}, rank_scale=1e-300)

    def test_rank_too_large_for_a_float_is_refused_only_where_it_is_divided_by(self):
        # x is not in single_char_set, so its rank is never converted
        lex = Lexicon(entries={"x": 10**400, "ab": 1})
        assert lex.divisors == dict.fromkeys(SINGLE_CHAR_WORDS, lex.rank_floor)
        with pytest.raises(ValueError, match="a one-character word's rank must fit in a float"):
            Lexicon(entries={"的": 10**400, "ab": 1})

    def test_divisors_are_derived_state(self):
        lex = Lexicon(entries={"的": 2}, rank_scale=1e12)
        assert lex.divisors.keys() == lex.single_char_set
        assert "divisors" not in repr(lex)
        with pytest.raises(TypeError):
            Lexicon(entries={}, divisors={})


class TestTrainWordsRecipe:
    def test_boost_from_training_words(self):
        m = ingest_corpus(["天安", "天安"])
        stats = WordStats(words={"天安门": 5})
        w = build_w_vocab("天安", m, stats)
        assert w.off1[0] == pytest.approx(LN2 * 20, rel=1e-12)

    def test_count_based_damping(self):
        m = ingest_corpus(["的天", "的天"])
        w = build_w_vocab("的天", m, WordStats(words={"的": 1000}))
        assert w.off1[0] == pytest.approx(LN2 / 4, rel=1e-12)  # 1000 / 250

    def test_small_count_divisor_clamps_to_one(self):
        stats = WordStats(words={"的": 100})
        assert stats.divisors["的"] == 1.0
        assert "天" not in stats.divisors  # not a training word: the builder divides by 1.0

    def test_no_one_gap_band(self):
        m = ingest_corpus(["天安门", "天安门"])
        w = build_w_vocab("天安门", m, WordStats(words={}))
        assert np.array_equal(w.off2, [0.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="counts"):
            WordStats(words={"天": 0})
        with pytest.raises(ValueError, match=r"^damp_divisor must be positive, got 0.0$"):
            WordStats(words={}, damp_divisor=0.0)
        with pytest.raises(ValueError, match=r"^boost must be positive, got -1.0$"):
            WordStats(words={}, boost=-1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda s, m: build_w_ehr(s, m),
        lambda s, m: build_w_vocab(s, m, Lexicon(entries={"的": 1})),
        lambda s, m: build_w_vocab(s, m, WordStats(words={"的": 1})),
    ],
    ids=["ehr", "lexicon", "train-words"],
)
def test_empty_sentence_is_refused(build):
    with pytest.raises(ValueError, match="at least one node"):
        build("", ingest_corpus(["的天"]))


def test_builtin_character_sets_are_disjoint_weaken_sets():
    assert not set(WEAKEN_SET_1) & set(WEAKEN_SET_2)
    assert len(set(SINGLE_CHAR_WORDS)) == len(SINGLE_CHAR_WORDS)


def test_load_lexicon(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("天安门\t100\n\n广场\t2\n", encoding="utf-8")
    lex = load_lexicon(p, rank_threshold=10)
    assert lex.entries == {"天安门": 100, "广场": 2}
    assert lex.rank_threshold == 10
    bad = tmp_path / "bad.tsv"
    bad.write_text("天安门 100\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.tsv:1"):
        load_lexicon(bad)
    with pytest.raises(ValueError, match="rank_threshold"):
        load_lexicon(p, rank_threshold=-5)


def test_loaders_split_on_newline_only(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("天\u2028安\t5\r\n门\x1c\t6\n", encoding="utf-8", newline="")
    assert load_lexicon(p).entries == {"天\u2028安": 5, "门\x1c": 6}
    assert load_word_stats(p).words == {"天\u2028安": 5, "门\x1c": 6}


def test_load_word_stats(tmp_path):
    p = tmp_path / "words.tsv"
    p.write_text("天安门\t7\n的\t9000\n", encoding="utf-8")
    stats = load_word_stats(p, damp_divisor=100.0)
    assert stats.words == {"天安门": 7, "的": 9000}
    assert stats.divisors["的"] == 90.0
    bad = tmp_path / "bad.tsv"
    bad.write_text("的\tnine\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.tsv:1"):
        load_word_stats(bad)


@pytest.mark.parametrize("load", [load_lexicon, load_word_stats])
def test_loaders_refuse_a_repeated_word(tmp_path, load):
    # Keeping the later line would drop rank 1 here without a word.
    p = tmp_path / "dup.tsv"
    p.write_text("a\t1\nb\t2\n\na\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"dup\.tsv:4: word 'a' already listed on line 1"):
        load(p)


# Word files for the bulk readers: blank and whitespace-only lines (\x1c and
# U+2028 among them, which str.splitlines() would break on), "\r\n" and
# lone "\r" line ends, rows with 0, 1 or 2 tabs, every form int() reads or
# refuses (signs, spaces, underscores, full-width and Arabic-Indic digits,
# a number past the 4300-digit limit and one past the largest float), and
# words and numbers that repeat, zero and negative ones included.
_BLANKS = st.sampled_from(["", " ", "\t", "\x1c", "\u2028", "\u3000", " \x0b\x0c ", "\r"])
_WORDS = st.text(st.sampled_from("天安门的了a1 \x1c\u2028\r"), max_size=3)
_NUMBERS = st.one_of(
    st.integers(-1, 12).map(str),
    st.integers(1, 10**6).map(str),
    st.sampled_from(
        ["+5", "-0", " 7", "7 ", "\x1c8\u2028", "1_000", "1__0", "_1", "１２", "٣", "0x10", "5.0", "", "九",
         "9" * 4301, "1" + "0" * 400]
    ),
)
_ENDS = st.sampled_from(["\n", "\r\n", "\r\n", "\r"])


@st.composite
def _word_files(draw):
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            row = draw(_BLANKS)
        else:
            tabs = draw(st.sampled_from([1] * 8 + [0, 2]))
            row = draw(_WORDS) + "".join("\t" * bool(tabs) + draw(_NUMBERS) for _ in range(max(tabs, 1)))
        rows.append(row + draw(_ENDS))
    text = "".join(rows)
    return text.rstrip("\n") if draw(st.booleans()) else text


@st.composite
def _valid_files(draw):
    """Well-formed files of distinct words numbered from 1, or from 0, -1 or
    past the largest float."""
    words = draw(st.permutations(draw(st.lists(_WORDS.filter(bool), unique=True, max_size=12))))
    start = draw(st.sampled_from([1, 1, 1, 0, -1, 10**400]))
    return "".join(f"{w}\t{start + i}\r\n" for i, w in enumerate(words))


def _outcome(read):
    try:
        return list(read().items())
    except ValueError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(st.one_of(_word_files(), _valid_files()))
# rows with 0 and 2 tabs, 3 in all, that split into word-number pairs
@example("15\n1\t2\t3\n")
@example("1\t2\t3\r\n15")
def test_loaders_match_the_line_by_line_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "words.tsv"
        path.write_bytes(text.encode("utf-8"))
        for load, what, check in ((load_lexicon, "rank", check_ranks), (load_word_stats, "count", check_counts)):

            def reference():
                numbers, line_of = read_word_numbers(path, what)
                check(path, numbers, line_of)
                return numbers

            def loaded():
                vocab = load(path)
                return vocab.entries if what == "rank" else vocab.words

            assert _outcome(loaded) == _outcome(reference)
