import pytest

from segspectral import EvalReport, SynthSpec, generate_synthetic, score_corpus
from segspectral.evaluation import _EXCLUDED, _char_inventory, count_matches, parse_segmented

from cjk import CHINESE_RUN


class TestScoring:
    def test_exact_match(self):
        rep = score_corpus([["天安门", "广场"]], [["天安门", "广场"]])
        assert (rep.recall, rep.precision, rep.f1) == (1.0, 1.0, 1.0)
        assert (rep.gold_words, rep.pred_words, rep.correct_words) == (2, 2, 2)

    def test_oversegmentation(self):
        # Gold AB|C against prediction A|B|C: only the C span survives.
        rep = score_corpus([["天安", "门"]], [["天", "安", "门"]])
        assert rep.recall == pytest.approx(0.5)
        assert rep.precision == pytest.approx(1 / 3)
        assert rep.f1 == pytest.approx(0.4)

    def test_same_word_different_position_does_not_count(self):
        gold = ["天", "安安", "天"]
        pred = ["天安", "安", "天"]  # the trailing 天 span (3,4) matches
        assert count_matches(gold, pred) == (3, 3, 1)

    def test_text_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different text"):
            score_corpus([["天安"]], [["天", "门"]])

    def test_zero_guards(self):
        rep = EvalReport(0, 0, 0)
        assert (rep.recall, rep.precision, rep.f1) == (0.0, 0.0, 0.0)
        none_right = EvalReport(3, 2, 0)
        assert none_right.f1 == 0.0

    def test_summary_line_format(self):
        line = EvalReport(4, 5, 3).summary_line()
        assert line == "R=0.7500 P=0.6000 F=0.6667 gold=4 pred=5 correct=3"

    def test_corpus_scores_pool_counts(self):
        gold = [["天安", "门"], ["广", "场"]]
        pred = [["天", "安", "门"], ["广", "场"]]
        rep = score_corpus(gold, pred)
        # Pooled: gold 4, pred 5, correct 3; per-line averaging would differ.
        assert (rep.gold_words, rep.pred_words, rep.correct_words) == (4, 5, 3)
        assert rep.f1 == pytest.approx(2 / 3)

    def test_corpus_line_count_mismatch(self):
        with pytest.raises(ValueError, match="lines"):
            score_corpus([["天"]], [["天"], ["安"]])

    def test_parse_segmented(self):
        assert parse_segmented("天安门  广场") == ["天安门", "广场"]
        assert parse_segmented("  天 安 ") == ["天", "安"]
        assert parse_segmented("") == []


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="vocab_size"):
            SynthSpec(vocab_size=0)
        with pytest.raises(ValueError, match="word_len"):
            SynthSpec(word_len=(0, 2))
        with pytest.raises(ValueError, match="sentence_len"):
            SynthSpec(sentence_len=(5, 3))
        with pytest.raises(ValueError, match="sentences"):
            SynthSpec(sentences=-1)


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SynthSpec(sentences=20))
        b = generate_synthetic(SynthSpec(sentences=20))
        assert a == b
        c = generate_synthetic(SynthSpec(sentences=20, seed=1))
        assert c != a

    def test_gold_matches_lines(self, synth_corpus):
        lines, gold = synth_corpus
        assert len(lines) == len(gold) == 500
        for line, words in zip(lines, gold):
            assert "".join(words) == line

    def test_vocabulary_structure(self, synth_corpus):
        spec = SynthSpec()
        _, gold = synth_corpus
        vocab = {w for words in gold for w in words}
        assert len(vocab) <= spec.vocab_size
        for w in vocab:
            assert spec.word_len[0] <= len(w) <= spec.word_len[1]
        # Disjoint character inventories: a character pins down its word.
        owner = {}
        for w in vocab:
            for ch in w:
                assert owner.setdefault(ch, w) == w
                assert CHINESE_RUN.fullmatch(ch)
                assert ch not in _EXCLUDED

    def test_sentence_lengths(self, synth_corpus):
        spec = SynthSpec()
        _, gold = synth_corpus
        for words in gold:
            assert spec.sentence_len[0] <= len(words) <= spec.sentence_len[1]

    def test_single_word_vocabulary_warns(self):
        with pytest.warns(UserWarning, match="boundary"):
            generate_synthetic(SynthSpec(vocab_size=1, sentences=1))

    def test_inventory_spills_into_extension_a(self):
        # More characters than CJK Unified Ideographs holds.
        chars = _char_inventory(24000)
        assert len(set(chars)) == len(chars) == 24000
        assert 0x3400 <= ord(chars[-1]) <= 0x4DBF
        assert CHINESE_RUN.fullmatch("".join(chars))
        assert _EXCLUDED.isdisjoint(chars)

    def test_inventory_exhaustion(self):
        # 28,000 characters: more than both ranges of DEFAULT_CJK_RANGES hold.
        with pytest.raises(ValueError, match="exhausted"):
            generate_synthetic(SynthSpec(vocab_size=7000, word_len=(4, 4), sentences=0))
