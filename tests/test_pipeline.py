import math
import re
import string
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segspectral import (
    EhrParams,
    LaplacianForm,
    Lexicon,
    SegmenterConfig,
    WordStats,
    ingest_corpus,
    kmeans_cluster,
    prepare_sentence,
    segment_document,
    segment_prepared,
    segment_sentence,
    spectral_embed,
    trace_document,
)
from segspectral import kmeans, pipeline
from segspectral.graph import build_w_ehr, build_w_vocab
from segspectral.ngram import iter_corpus_lines
from segspectral.pipeline import DATA_ERRORS, build_w, labels_to_words, postprocess_merge
from segspectral.spectral import choose_k

from dense import dense_laplacian, full_table_labels, least_errors


class TestLabelsToWords:
    def test_splits_at_label_changes(self):
        assert labels_to_words("abcde", [0, 0, 1, 1, 0]) == ["ab", "cd", "e"]
        assert labels_to_words("abc", [2, 2, 2]) == ["abc"]
        assert labels_to_words("ab", [1, 0]) == ["a", "b"]
        assert labels_to_words("a", [0]) == ["a"]

    def test_nonadjacent_reuse_of_a_label_still_splits(self):
        assert labels_to_words("abcd", [0, 1, 0, 0]) == ["a", "b", "cd"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            labels_to_words("abc", [0, 1])


class TestPostprocessMerge:
    @pytest.mark.parametrize(
        "words,expect",
        [
            (["12", "34"], ["1234"]),
            (["2024", "年"], ["2024年"]),
            (["2024", "年", "3", "月"], ["2024年", "3月"]),
            (["3", "月", "5", "日"], ["3月", "5日"]),
            (["12", "％"], ["12％"]),
            (["１２", "３"], ["１２３"]),
            (["年", "3"], ["年", "3"]),  # unit before digits: no merge
            (["天", "年", "天"], ["天", "年", "天"]),
            (["12", "年月"], ["12", "年月"]),  # only single-char units merge
            (["12", "天"], ["12", "天"]),
            ([], []),
        ],
    )
    def test_cases(self, words, expect):
        assert postprocess_merge(words) == expect

    words_lists = st.lists(
        st.text(alphabet="0123456789０９年月%天安门", min_size=1, max_size=4), max_size=8
    )

    @given(words_lists)
    def test_preserves_concatenation(self, words):
        assert "".join(postprocess_merge(words)) == "".join(words)

    @given(words_lists)
    def test_idempotent(self, words):
        once = postprocess_merge(words)
        assert postprocess_merge(once) == once


class TestSegmenterConfig:
    def test_per_recipe_defaults(self):
        ehr = SegmenterConfig.for_recipe(EhrParams())
        assert (ehr.form, ehr.eig_cut) == (LaplacianForm.UNNORMALIZED, 0.15)
        lex = SegmenterConfig.for_recipe(Lexicon(entries={}))
        assert (lex.form, lex.eig_cut) == (LaplacianForm.SYMMETRIC_NORMALIZED, 0.00035)
        tw = SegmenterConfig.for_recipe(WordStats(words={}))
        assert (tw.form, tw.eig_cut) == (LaplacianForm.SYMMETRIC_NORMALIZED, 0.001)

    def test_overrides(self):
        cfg = SegmenterConfig.for_recipe(EhrParams(), eig_cut=1.5, form=LaplacianForm.SYMMETRIC_NORMALIZED)
        assert cfg.eig_cut == 1.5
        assert cfg.form is LaplacianForm.SYMMETRIC_NORMALIZED

    def test_rejects_nonpositive_cut(self):
        with pytest.raises(ValueError, match="positive"):
            SegmenterConfig(recipe=EhrParams(), form=LaplacianForm.UNNORMALIZED, eig_cut=0.0)

    @pytest.mark.parametrize("cut", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_cut(self, cut):
        with pytest.raises(ValueError, match="finite"):
            SegmenterConfig(recipe=EhrParams(), form=LaplacianForm.UNNORMALIZED, eig_cut=cut)
        with pytest.raises(ValueError, match="finite"):
            choose_k([0.0, 1.0], cut)


@pytest.mark.parametrize(
    "make",
    [
        lambda x: EhrParams(factor_1=x),
        lambda x: EhrParams(factor_2=x),
        lambda x: Lexicon({}, boost=x),
        lambda x: Lexicon({}, rank_floor=x),
        lambda x: Lexicon({}, rank_scale=x),
        lambda x: WordStats({}, boost=x),
        lambda x: WordStats({}, damp_divisor=x),
    ],
    ids=["factor_1", "factor_2", "lexicon-boost", "rank_floor", "rank_scale", "words-boost", "damp_divisor"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_recipes_reject_nonfinite_floats(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_build_w_dispatch(synth_model):
    s = "天安门"
    ehr = EhrParams()
    assert np.array_equal(build_w(s, synth_model, ehr).off1, build_w_ehr(s, synth_model, ehr).off1)
    lex = Lexicon(entries={"天安": 3})
    assert np.array_equal(
        build_w(s, synth_model, lex).off1, build_w_vocab(s, synth_model, lex).off1
    )
    with pytest.raises(TypeError, match="recipe"):
        build_w(s, synth_model, object())


class TestSegmentSentence:
    def test_empty_sentence_rejected(self, synth_model):
        cfg = SegmenterConfig.for_recipe(EhrParams())
        with pytest.raises(ValueError, match="empty"):
            segment_sentence("", synth_model, cfg)

    def test_reconstruction(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        for line in lines[:40]:
            assert "".join(segment_sentence(line, synth_model, cfg)) == line

    def test_deterministic(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        assert segment_sentence(lines[0], synth_model, cfg) == segment_sentence(
            lines[0], synth_model, cfg
        )

    def test_two_phase_matches_one_shot(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        prep = prepare_sentence(lines[1], synth_model, cfg)
        assert segment_prepared(prep, cfg).words == segment_sentence(
            lines[1], synth_model, cfg
        )

    def test_trace_fields(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        trace = segment_prepared(prepare_sentence(lines[2], synth_model, cfg), cfg)
        n = len(lines[2])
        assert trace.text == lines[2]
        assert trace.w.n == n
        assert trace.eigenvalues.shape == (n,)
        assert np.all(np.diff(trace.eigenvalues) >= 0)
        assert 1 <= trace.k <= n
        assert trace.labels.shape == (n,)
        assert "".join(trace.words) == lines[2]

    def test_granularity_increases_with_cut(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        prep = prepare_sentence(lines[0], synth_model, cfg)
        ks = [
            segment_prepared(prep, replace(cfg, eig_cut=cut)).k
            for cut in (0.05, 0.5, 2.0, 1e6)
        ]
        assert ks == sorted(ks)
        assert ks[-1] == len(lines[0])  # a huge cut isolates every character

    def test_digit_postprocess(self, synth_model):
        # Non-Chinese characters carry no bonds, so each lands in its own
        # cluster; the merge pass then rejoins the digit run and its unit.
        cfg = SegmenterConfig.for_recipe(EhrParams())
        assert segment_sentence("12年", synth_model, cfg) == ["12年"]

    def test_prepare_holds_no_n_by_n_matrix(self):
        # A 2000-character line of 2-4 character words, each word with its
        # own characters and trained on its own, so no bond crosses a word
        # boundary and the Laplacian's blocks are the words.
        sizes = [2, 3, 4] * 222 + [2]
        chars = [chr(0x4E00 + i) for i in range(sum(sizes))]
        bounds = np.cumsum([0, *sizes]).tolist()
        words = ["".join(chars[a:b]) for a, b in zip(bounds, bounds[1:])]
        model = ingest_corpus(word for j, word in enumerate(words) for _ in range(1 + j % 3))
        line = "".join(words)
        n = len(line)
        assert n == 2000
        cfg = SegmenterConfig.for_recipe(EhrParams())
        tracemalloc.start()
        try:
            prep = prepare_sentence(line, model, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One n×n float matrix is n²·8 bytes.
        assert peak < n * n * 8 / 10
        assert prep.dec.n == n and prep.dec.stack.shape[1] <= 4

    def test_k_words_per_line(self, synth_corpus, synth_model):
        # Clusters are contiguous runs, so a line has exactly as many words
        # as the eigenvalue count chose; the synthetic text has no digits
        # for the merge pass to join.
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        cuts = (0.1, 0.5, 1.5)
        for _, words, traces, error in trace_document(lines, synth_model, cfg, cuts):
            assert error is None and len(traces) == len(cuts)
            for cut_words, trace in zip(words, traces):
                assert len(cut_words) == trace.k


@pytest.fixture(scope="module")
def recipes(synth_corpus):
    """Each recipe by its command-line name; the lexicon ranks the gold
    words by count, and the word stats count them."""
    _, gold = synth_corpus
    counts = Counter(word for words in gold for word in words)
    ranked = sorted(counts, key=lambda word: (-counts[word], word))
    return {
        "ehr": EhrParams(),
        "lexicon": Lexicon(entries={word: rank for rank, word in enumerate(ranked, 1)}),
        "train-words": WordStats(words=dict(counts)),
    }


@pytest.fixture(scope="module")
def recipe_cfgs(recipes):
    """The ehr recipe and a lexicon of the gold words, each in both forms."""
    return [
        SegmenterConfig.for_recipe(recipes[name], form=form)
        for name in ("ehr", "lexicon")
        for form in LaplacianForm
    ]


class TestClusteringReuse:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_shared_prep_matches_a_fresh_prep_at_every_cut(
        self, synth_corpus, synth_model, recipe_cfgs, data
    ):
        lines, _ = synth_corpus
        line = data.draw(st.sampled_from(lines[:60]), label="line")
        cfg = data.draw(st.sampled_from(recipe_cfgs), label="cfg")
        prep = prepare_sentence(line, synth_model, cfg)
        # Cuts on, just beside and between the eigenvalues, so that many
        # choose the same k, plus repeats of them in any order.
        values = [max(v, 1e-12) for v in prep.dec.values.tolist()]
        near = st.builds(
            lambda v, r: v * r,
            st.sampled_from(values),
            st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.5, 2.0]),
        )
        anywhere = st.floats(min_value=1e-6, max_value=2.0 * max(values) + 1.0)
        base = data.draw(st.lists(st.one_of(near, anywhere), min_size=1, max_size=6))
        repeats = data.draw(st.lists(st.sampled_from(base), max_size=4))
        cuts = data.draw(st.permutations(base + repeats), label="cuts")
        for cut in cuts:
            cut_cfg = replace(cfg, eig_cut=cut)
            shared = segment_prepared(prep, cut_cfg)
            fresh = segment_prepared(prepare_sentence(line, synth_model, cut_cfg), cut_cfg)
            assert shared.k == fresh.k
            assert shared.words == fresh.words
            assert np.array_equal(shared.labels, fresh.labels)

    def test_stages_after_choose_k_run_once_per_distinct_k(
        self, synth_corpus, synth_model, monkeypatch
    ):
        calls = Counter()

        def count(name):
            original = getattr(pipeline, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(pipeline, name, counted)

        stages = ("embed_blocks", "kmeans_cluster", "labels_to_words", "postprocess_merge")
        for name in ("choose_k", *stages):
            count(name)
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        cuts = (0.1, 0.1, 0.5, 0.5000001, 1.5, 2.0, 1e6)
        distinct = 0
        for _, _, traces, error in trace_document(lines[:10], synth_model, cfg, cuts):
            assert error is None and len(traces) == len(cuts)
            distinct += len({trace.k for trace in traces})
        assert 10 < distinct < 10 * len(cuts)
        assert calls == {"choose_k": 10 * len(cuts), **{name: distinct for name in stages}}

    def test_traces_of_one_k_share_read_only_arrays_and_not_words(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams(), eig_cut=1.5)
        prep = prepare_sentence(lines[0], synth_model, cfg)
        first, second = segment_prepared(prep, cfg), segment_prepared(prep, cfg)
        assert first.labels is second.labels
        assert first.eigenvalues is second.eigenvalues
        for array in (first.eigenvalues, first.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert first.words == second.words and first.words is not second.words
        first.words.append("x")
        assert segment_prepared(prep, cfg).words == second.words

    def test_labels_come_from_the_recomputed_embedding(self, synth_corpus, synth_model, recipe_cfgs):
        # The embedding is not kept; the public names give it again, and
        # k-means on it gives the trace's labels.
        lines, _ = synth_corpus
        for cfg in recipe_cfgs:
            for line in lines[:20]:
                prep = prepare_sentence(line, synth_model, cfg)
                for cut in (cfg.eig_cut, 0.5, 1.5):
                    t = segment_prepared(prep, replace(cfg, eig_cut=cut))
                    embedding = spectral_embed(prep.dec, t.k, prep.form)
                    assert embedding.shape == (len(line), t.k)
                    assert np.array_equal(kmeans_cluster(embedding, t.k), t.labels)

    def test_kmeans_is_called_with_k_second(self, synth_corpus, synth_model, monkeypatch):
        # bench/run.py's kmeans_cluster span reads k from args[1] and n
        # from the labels it returns.
        lines, _ = synth_corpus
        seen = []

        def recording(*args):
            labels = kmeans_cluster(*args)
            seen.append((args[1], len(labels)))
            return labels

        monkeypatch.setattr(pipeline, "kmeans_cluster", recording)
        cfg = SegmenterConfig.for_recipe(EhrParams(), eig_cut=1.5)
        traces = [segment_prepared(prepare_sentence(line, synth_model, cfg), cfg) for line in lines[:5]]
        assert seen == [(t.k, len(t.text)) for t in traces]

    def test_form_mismatch_is_a_caller_bug(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        prep = prepare_sentence(lines[0], synth_model, cfg)
        assert prep.form is cfg.form
        other = replace(cfg, form=LaplacianForm.SYMMETRIC_NORMALIZED)
        with pytest.raises(Exception, match="form") as info:
            segment_prepared(prep, other)
        assert not isinstance(info.value, DATA_ERRORS)
        assert prep.clustered == {}


class TestSegmentDocument:
    def test_empty_lines_pass_through(self, synth_corpus, synth_model):
        lines, _ = synth_corpus
        cfg = SegmenterConfig.for_recipe(EhrParams())
        segs, errors = segment_document(["", lines[0], ""], synth_model, cfg)
        assert errors == []
        assert segs[0] == [] and segs[2] == []
        assert "".join(segs[1]) == lines[0]

    def test_failed_line_is_reported_and_passed_through(self, synth_model, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        cfg = SegmenterConfig.for_recipe(EhrParams())
        segs, errors = segment_document(["天安", ""], synth_model, cfg)
        assert segs == [["天安"], []]
        assert len(errors) == 1
        assert errors[0][0] == 1 and "did not converge" in errors[0][1]

    def test_programming_error_propagates(self, synth_model):
        bad_cfg = SegmenterConfig(
            recipe=None, form=LaplacianForm.UNNORMALIZED, eig_cut=0.15
        )
        with pytest.raises(TypeError, match="recipe"):
            segment_document(["天安", ""], synth_model, bad_cfg)

    def test_unknown_laplacian_form_propagates(self, synth_model):
        # a form given by its value, not as a LaplacianForm, is a programming
        # error, not a fault of each line's data
        bad_cfg = SegmenterConfig(EhrParams(), "sym", 0.3)
        with pytest.raises(TypeError, match="unknown Laplacian form 'sym'"):
            segment_document(["天安", ""], synth_model, bad_cfg)


def test_every_stage_the_bench_traces_is_a_pipeline_name():
    # bench/run.py wraps pipeline stages by name, and wrapping a name the
    # module lacks raises AttributeError; the file is read as text, not
    # imported.
    text = (Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text(encoding="utf-8")
    names = re.findall(r'tracer\.wrap\(\s*p,\s*"(\w+)"', text)
    assert "kmeans_cluster" in names and "spectral_embed" in names
    for name in names:
        assert callable(getattr(pipeline, name, None)), name


_SEPARATORS = string.ascii_letters + string.digits + string.punctuation


@st.composite
def block_rich_lines(draw, corpus):
    """A synthetic line as it is (one block), the same with Latin letters,
    digits and punctuation put between its characters (each a block of
    its own), or 50-80 of the corpus's words run together."""
    lines, gold = corpus
    kind = draw(st.sampled_from(["one block", "many blocks", "long"]))
    if kind == "long":
        words = [word for line in gold for word in line]
        count = draw(st.integers(50, 80))
        start = draw(st.integers(0, len(words) - count))
        return "".join(words[start : start + count])
    chars = list(draw(st.sampled_from(lines)))
    if kind == "many blocks":
        for _ in range(draw(st.integers(1, 2 * len(chars)))):
            chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(_SEPARATORS)))
    return "".join(chars)


@pytest.mark.parametrize("form", LaplacianForm)
def test_labels_from_the_blocks_equal_those_of_the_dense_embedding(synth_corpus, synth_model, form):
    # The pipeline hands k-means the embedding's rows block by block; the
    # n×k matrix of the same rows gives the same labels, on lines of one
    # block and of many, and at cuts where the k-means band widens.
    cfg = SegmenterConfig.for_recipe(EhrParams(), form=form)
    cut_lists = st.lists(st.sampled_from([0.005, 0.02, 0.05, 0.15, 0.5, 1.5]), min_size=1, max_size=3)

    @settings(deadline=None, max_examples=60, database=None, print_blob=True)
    @given(block_rich_lines(synth_corpus), cut_lists)
    def check(line, cuts):
        prep = prepare_sentence(line, synth_model, cfg)
        for cut in cuts:
            trace = segment_prepared(prep, replace(cfg, eig_cut=cut))
            want = kmeans_cluster(spectral_embed(prep.dec, trace.k, form), trace.k)
            assert np.array_equal(trace.labels, want), (line, cut)

    check()


@pytest.mark.parametrize("form,cut", [(LaplacianForm.UNNORMALIZED, 0.05), (LaplacianForm.SYMMETRIC_NORMALIZED, 0.02)])
def test_long_lines_at_a_fine_cut_widen_the_band(synth_corpus, synth_model, monkeypatch, form, cut):
    # 50-80 words at these cuts: the first band of twice n/k rows is too
    # narrow for some line, so the widened tables are among those the
    # previous test compares.
    _, gold = synth_corpus
    words = [word for line in gold for word in line]
    lines = ["".join(words[start : start + 50 + start % 31]) for start in range(0, len(words) - 80, 350)]
    builds = []
    gram_band = kmeans._gram_band

    def counted(x, most):
        builds.append(most)
        return gram_band(x, most)

    monkeypatch.setattr(kmeans, "_gram_band", counted)
    cfg = SegmenterConfig.for_recipe(EhrParams(), form=form, eig_cut=cut)
    widened = 0
    for line in lines:
        before = len(builds)
        prep = prepare_sentence(line, synth_model, cfg)
        trace = segment_prepared(prep, cfg)
        widened += len(builds) - before > 1
        assert np.array_equal(trace.labels, kmeans_cluster(spectral_embed(prep.dec, trace.k, form), trace.k))
    assert widened >= len(lines) // 2, (widened, len(lines))


# Everything str.splitlines() breaks on except "\n", some whitespace, two
# non-BMP characters, characters of the synthetic corpus, and any other
# encodable character.
_LINE_CHARS = st.one_of(
    st.sampled_from("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 \t\xa0\u3000\U00020000\U0001F600"),
    st.characters(min_codepoint=0x4E00, max_codepoint=0x4E3F),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
)


@settings(deadline=None)
@given(st.lists(st.text(alphabet=_LINE_CHARS, max_size=12), max_size=5))
def test_lines_survive_reader_and_segmenter(synth_model, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        assert list(iter_corpus_lines(path)) == lines
    segs, _ = segment_document(lines, synth_model, SegmenterConfig.for_recipe(EhrParams()))
    assert len(segs) == len(lines)
    assert ["".join(words) for words in segs] == lines


def _reference_lines(vocab):
    """Words of the synthetic corpus, single characters of it, and a
    function character, digits, a unit, a letter and a space, which the
    recipes treat apart."""
    chars = sorted(set("".join(vocab)))
    token = st.one_of(st.sampled_from(vocab), st.sampled_from(chars), st.sampled_from("的了12年a "))
    return st.lists(token, min_size=1, max_size=10).map("".join)


@pytest.mark.parametrize("form", LaplacianForm)
@pytest.mark.parametrize("recipe_name", ["ehr", "lexicon", "train-words"])
def test_matches_a_dense_reference_pipeline(synth_model, recipes, recipe_name, form):
    # The dense Laplacian, one np.linalg.eigh of it, and the full-table DP
    # on its first k eigenvectors give segment_sentence's words. A line is
    # skipped only where rounding may part the two: where an eigenvalue
    # lies so near the cut that it may move k, or a split so near the tie
    # tolerance that it may move the boundaries.
    recipe = recipes[recipe_name]
    drawn, skipped = [], []

    @settings(deadline=None, max_examples=80, database=None, print_blob=True)
    @given(_reference_lines(sorted(recipes["train-words"].words)), st.floats(-4.0, 0.5))
    def check(line, log_cut):
        cfg = SegmenterConfig.for_recipe(recipe, form=form, eig_cut=10.0**log_cut)
        drawn.append(line)
        lap = dense_laplacian(build_w(line, synth_model, recipe), form)
        values, vectors = np.linalg.eigh(lap)
        if np.abs(values - cfg.eig_cut).min() <= 1e-9:
            skipped.append(line)
            return
        k = max(1, int(np.count_nonzero(values <= cfg.eig_cut)))
        u = vectors[:, :k]
        if form is LaplacianForm.SYMMETRIC_NORMALIZED:
            norms = np.linalg.norm(u, axis=1, keepdims=True)
            u = np.divide(u, norms, out=u.copy(), where=norms > 0.0)
        # Both pipelines split by the same tie rule, which takes the earliest
        # boundaries among splits within tol of the least error. Their
        # errors differ by rounding, which moves only a split near that
        # line across it; exact ties, as of a word that occurs twice, fall
        # alike. So skip where a split lies in (tol / 4, tol], or where all
        # of the least errors drawn lie within tol and so may others.
        errors, tol = least_errors(u, k, 8)
        gaps = errors - errors[0]
        if np.any((gaps > tol / 4) & (gaps <= tol)) or gaps[-1] <= tol:
            skipped.append(line)
            return
        words = postprocess_merge(labels_to_words(line, full_table_labels(u, k)))
        assert segment_sentence(line, synth_model, cfg) == words

    check()
    assert len(skipped) < 0.1 * len(drawn), (len(skipped), len(drawn), skipped)


@pytest.mark.parametrize("form", LaplacianForm)
@pytest.mark.parametrize("recipe_name", ["ehr", "lexicon", "train-words"])
def test_segmentation_does_not_depend_on_eigenvector_signs(synth_model, recipes, recipe_name, form):
    # LAPACK may return any eigenvector negated. Negating a random subset
    # of the columns it returns must leave every k, label and word alone.
    recipe = recipes[recipe_name]
    eigh = np.linalg.eigh

    @settings(deadline=None, max_examples=60, database=None, print_blob=True)
    @given(
        st.lists(_reference_lines(sorted(recipes["train-words"].words)), min_size=1, max_size=3),
        st.lists(st.floats(-4.0, 0.5), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def check(lines, log_cuts, seed):
        cfg = SegmenterConfig.for_recipe(recipe, form=form)
        cuts = [10.0**c for c in log_cuts]
        rng = np.random.default_rng(seed)

        def negating_eigh(a):
            values, vectors = eigh(a)
            b, m, _ = vectors.shape
            return values, vectors * rng.choice([-1.0, 1.0], size=(b, 1, m))

        want = list(trace_document(lines, synth_model, cfg, cuts))
        want_words = [segment_sentence(line, synth_model, cfg) for line in lines]
        with mock.patch.object(np.linalg, "eigh", negating_eigh):
            got = list(trace_document(lines, synth_model, cfg, cuts))
            assert [segment_sentence(line, synth_model, cfg) for line in lines] == want_words
        assert len(got) == len(want)
        for (_, words, traces, error), (_, want_cut_words, want_traces, want_error) in zip(got, want):
            assert (words, error) == (want_cut_words, want_error)
            assert [(t.k, t.labels.tolist()) for t in traces] == [(t.k, t.labels.tolist()) for t in want_traces]

    check()
