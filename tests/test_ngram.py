import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segspectral import CorpusEncodingError, NGramModel, ingest_corpus, load_model, save_model
from segspectral import ngram
from segspectral.cli import main
from segspectral.graph import build_w_ehr
from segspectral.ngram import iter_corpus_lines

from cjk import CHINESE_RUN


def test_basic_counts():
    m = ingest_corpus(["天安门", "天安门", "天门"])
    assert m.uni == {"天": 3, "安": 2, "门": 3}
    assert m.bi == {"天安": 2, "安门": 2, "天门": 1}
    assert m.tri == {"天安门": 2}


def test_non_chinese_breaks_ngrams():
    m = ingest_corpus(["天安门a广场"])
    assert "门a" not in m.bi and "a广" not in m.bi
    assert "a" not in m.uni
    assert m.bi == {"天安": 1, "安门": 1, "广场": 1}
    assert m.tri == {"天安门": 1}


def test_ngrams_do_not_span_lines():
    m = ingest_corpus(["天安", "门墙"])
    assert m.bi == {"天安": 1, "门墙": 1}
    assert m.tri == {}


def test_transition_probabilities():
    # Bigram log-counts {ln2, ln2, 0} have sd ln2*sqrt(2)/3, so a count-2
    # bigram standardizes to 3/sqrt(2); the single trigram's sd falls back
    # to 1, so it standardizes to ln2.
    m = ingest_corpus(["天安门", "天安门", "天门"])
    bond = 3 / math.sqrt(2)
    # P(安 | 天) = 2/3 is the only term defined for a two-character line.
    assert build_w_ehr("天安", m).off1 == pytest.approx([2 / 3 * bond], rel=1e-12)
    # In 天安门, P(天 | 安门) = 1 beats P(安 | 天) = 2/3 at the first pair,
    # P(门 | 天安) = P(门 | 安) = 1 at the second, and P(安门 | 天) = 2/3.
    w = build_w_ehr("天安门", m)
    assert w.off1 == pytest.approx([bond, bond], rel=1e-12)
    assert w.off2 == pytest.approx([2 / 3 * math.log(2)], rel=1e-12)


def test_unseen_and_other_class_probabilities_are_zero():
    # Every stored n-gram has count 2 and both sds fall back to 1, so a
    # seen pair whose probability is 1 bonds with ln2.
    m = ingest_corpus(["天安门", "天安门"])
    ln2 = math.log(2)
    assert np.array_equal(build_w_ehr("天安", m).off1, [ln2])
    assert np.array_equal(build_w_ehr("安天", m).off1, [0.0])
    assert np.array_equal(build_w_ehr("a天", m).off1, [0.0])
    assert np.array_equal(build_w_ehr("天a", m).off1, [0.0])
    assert np.array_equal(build_w_ehr("虎豹", m).off1, [0.0])  # both unseen
    # The context a天 / 安5 / 安, was never seen: its term is 0, and the
    # seen pair keeps its bond.
    for s, off1 in (("a天安", [0.0, ln2]), ("天安5", [ln2, 0.0]), ("天安,", [ln2, 0.0])):
        w = build_w_ehr(s, m)
        assert np.array_equal(w.off1, off1), s
        assert np.array_equal(w.off2, [0.0]), s


def test_sd_count_standardization():
    # Distinct bigram counts 4, 2, 1 -> ln counts {ln4, ln2, 0} with
    # population sd ln2*sqrt(2/3); the standardized count-4 value is sqrt(6).
    m = ingest_corpus(["天安"] * 4 + ["地门"] * 2 + ["人口"])
    assert m.log_sd_bi == pytest.approx(math.log(2) * math.sqrt(2 / 3), rel=1e-12)
    assert build_w_ehr("天安", m).off1 == pytest.approx([math.sqrt(6)], rel=1e-12)
    assert np.array_equal(build_w_ehr("人口", m).off1, [0.0])  # ln 1
    assert np.array_equal(build_w_ehr("虎豹", m).off1, [0.0])  # absent


def test_sd_falls_back_to_one_when_degenerate():
    same = ingest_corpus(["天安门", "天安门"])
    assert same.log_sd_bi == 1.0  # two keys, equal counts
    assert same.log_sd_tri == 1.0  # single key
    assert build_w_ehr("天安", same).off1 == pytest.approx([math.log(2)])
    empty = ingest_corpus([])
    assert empty.log_sd_bi == 1.0 and empty.log_sd_tri == 1.0


def test_meta():
    m = ingest_corpus(["天", "", "安"], source="toy")
    assert m.source == "toy"
    assert m.line_count == 3


TIAN_AN = NGramModel.from_counts(uni={"天": 3, "安": 2}, bi={"天安": 2})
KEYS, COUNTS = TIAN_AN.keys, TIAN_AN.counts


@pytest.mark.parametrize(
    "arrays, fields, message",
    [
        ((), {"line_count": -1}, "line_count must be a non-negative integer, got -1"),
        ((), {"line_count": True}, "line_count .* got True"),
        ((), {"source": 3}, "source must be a string, got 3"),
        ((), {"source": "a\udcff.txt"}, r"source must be encodable as UTF-8, got 'a\\udcff\.txt'"),
        ((KEYS[::-1], COUNTS[::-1]), {}, "not strictly increasing"),
        ((KEYS, np.array([2, 3, 0], np.uint64)), {}, f"key {int(KEYS[2]):#018x} has count 0, and a stored"),
        ((KEYS, COUNTS[:-1]), {}, r"one length, got uint64 \(3,\) and uint64 \(2,\)"),
        ((KEYS, COUNTS.astype(float)), {}, r"one length, got uint64 \(3,\) and float64"),
        ((KEYS, COUNTS.tolist()), {}, r"one length, got uint64 \(3,\) and list"),
        ((KEYS[:, None], COUNTS[:, None]), {}, "1-d uint64 arrays"),
    ],
    ids=[
        "line-count-negative", "line-count-bool", "source-int", "source-surrogate", "keys-reversed",
        "count-zero", "counts-shorter", "counts-float", "counts-list", "arrays-2d",
    ],
)
def test_model_breaking_a_rule_is_refused_at_construction(arrays, fields, message):
    with pytest.raises(ValueError, match=message):
        NGramModel(*(arrays or (KEYS, COUNTS)), **fields)


def test_default_model_is_empty():
    m = NGramModel()
    w = build_w_ehr("天安门", m)
    assert np.array_equal(w.off1, [0.0, 0.0]) and np.array_equal(w.off2, [0.0])
    assert len(m.keys) == len(m.counts) == 0


@given(st.lists(st.text(alphabet="天安门广场和的", max_size=8), max_size=6))
def test_count_consistency(lines):
    m = ingest_corpus(lines)
    assert sum(m.uni.values()) == sum(len(line) for line in lines)
    assert sum(m.bi.values()) == sum(max(len(line) - 1, 0) for line in lines)
    assert sum(m.tri.values()) == sum(max(len(line) - 2, 0) for line in lines)
    assert all(m.uni[k[:1]] >= 1 for k in m.bi)


def reference_counts(lines):
    """Per-character tally: the reference ingest_corpus must match exactly."""
    uni: dict[str, int] = {}
    bi: dict[str, int] = {}
    tri: dict[str, int] = {}
    for line in lines:
        n = len(line)
        cn = [bool(CHINESE_RUN.fullmatch(ch)) for ch in line]
        for i in range(n):
            if not cn[i]:
                continue
            uni[line[i]] = uni.get(line[i], 0) + 1
            if i + 1 < n and cn[i + 1]:
                key = line[i : i + 2]
                bi[key] = bi.get(key, 0) + 1
                if i + 2 < n and cn[i + 2]:
                    key3 = line[i : i + 3]
                    tri[key3] = tri.get(key3, 0) + 1
    return uni, bi, tri


# Chinese characters including the range ends and Extension A; their
# non-Chinese neighbours, Extension B (U+20000, not Chinese here), emoji,
# a lone surrogate, ASCII, punctuation and whitespace, a line feed included.
CHINESE = "天安门广场\u4e00\u9fff\u3400\u4dbf"
OTHER = "\u33ff\u4dc0\ua000\U00020000\U0001f642\ud800aZ3 ,。\t\r\n\x85"


@given(
    st.lists(
        st.text(
            alphabet=st.sampled_from(CHINESE) | st.sampled_from(OTHER) | st.characters(),
            max_size=12,
        ),
        max_size=8,
    )
)
def test_ingest_matches_per_character_reference(lines):
    uni, bi, tri = reference_counts(lines)
    # With a chunk of a few characters most lines are chunks of their own,
    # so chunks end between every pair of lines, and a line longer than the
    # chunk comes alone.
    for chunk_chars in (ngram._CHUNK_CHARS, 1, 5):
        with mock.patch.object(ngram, "_CHUNK_CHARS", chunk_chars):
            m = ingest_corpus(iter(lines))
        for got, want in ((m.uni, uni), (m.bi, bi), (m.tri, tri)):
            assert type(got) is dict
            assert got == want
            assert list(got) == sorted(want)  # code-point key order
        assert m.line_count == len(lines)
        assert m.log_sd_bi.hex() == reference_log_sd(list(bi.values())).hex()
        assert m.log_sd_tri.hex() == reference_log_sd(list(tri.values())).hex()


def test_train_save_load_and_lookup_build_no_dicts(tmp_path, capsys):
    # The model is its key table; the count dicts are decoded only when read.
    trained = ingest_corpus(["天安门广场", "天安门"])
    buf = io.BytesIO()
    save_model(trained, buf)
    loaded = load_model(io.BytesIO(buf.getvalue()))
    for m in (trained, loaded):
        m.lookup("天安门")
        assert not {"uni", "bi", "tri"} & vars(m).keys()
    assert loaded.bi == {"天安": 2, "安门": 2, "门广": 1, "广场": 1}
    assert "bi" in vars(loaded)
    # nor do the commands: a decoded dict would fail them
    lines, gold, model = tmp_path / "lines.txt", tmp_path / "gold.txt", str(tmp_path / "model.bin")
    lines.write_text("天安门广场\n天安门\n", encoding="utf-8")
    gold.write_text("天安门 广场\n天安门\n", encoding="utf-8")
    with mock.patch.object(ngram, "_decode", side_effect=AssertionError("count dict decoded")):
        assert main(["train", "--input", str(lines), "--model", model]) == 0
        assert main(["segment", "--model", model, "--input", str(lines)]) == 0
        sweep = ["sweep", "--model", model, "--input", str(lines), "--gold", str(gold), "--cuts", "0.5,1.5"]
        assert main(sweep) == 0
    assert capsys.readouterr().err == ""


@given(
    st.lists(
        st.text(alphabet=st.sampled_from(CHINESE) | st.sampled_from(OTHER), max_size=12),
        max_size=8,
    )
)
def test_key_table_matches_the_table_of_the_decoded_counts(lines):
    m = ingest_corpus(lines)
    twin = NGramModel.from_counts(m.uni, m.bi, m.tri)
    for got, want in zip(m.key_table, twin.key_table):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_trained_and_reloaded_models_iterate_alike():
    m = ingest_corpus(["门广场天安", "a天安门b", "场广门安天"] * 3)
    buf = io.BytesIO()
    save_model(m, buf)
    back = load_model(io.BytesIO(buf.getvalue()))
    for got, want in ((back.uni, m.uni), (back.bi, m.bi), (back.tri, m.tri)):
        assert list(got) == list(want)


def reference_log_sd(counts: list[int]) -> float:
    """Population sd of ln(count) over one count per key, 1.0 when there
    are fewer than two or all are equal: the arithmetic NGramModel's sds
    must match bit for bit."""
    if len(counts) < 2:
        return 1.0
    logs = {c: math.log(c) for c in set(counts)}
    mean = math.fsum(map(logs.__getitem__, counts)) / len(counts)
    squares = {c: (x - mean) ** 2 for c, x in logs.items()}
    sd = math.sqrt(math.fsum(map(squares.__getitem__, counts)) / len(counts))
    return sd if sd > 0.0 else 1.0


def bigram_model(counts: list[int]) -> NGramModel:
    """A model of one bigram per count, the keys in the order of counts."""
    keys = ngram._TAGS[2] + np.arange(1, len(counts) + 1, dtype=np.uint64)
    return NGramModel(keys, np.array(counts, np.uint64))


def test_log_sd_bits_are_pinned():
    # fsum rounds correctly, so these bits hold on every Python version and
    # in every key order. The builtin sum of Python 3.10 and 3.11 gives
    # 0x1.127644458bf62p+0 in this order.
    counts = [i * i % 1009 + 1 for i in range(2999, 0, -1)]
    assert bigram_model(counts).log_sd_bi.hex() == "0x1.127644458bf60p+0"


@given(st.lists(st.integers(1, 2**64 - 1) | st.integers(1, 50), max_size=200), st.randoms(use_true_random=False))
def test_log_sd_is_independent_of_key_order(values, rng):
    shuffled = values[:]
    rng.shuffle(shuffled)
    want = reference_log_sd(values).hex()
    assert bigram_model(values).log_sd_bi.hex() == bigram_model(shuffled).log_sd_bi.hex() == want


def test_iter_corpus_lines(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_bytes("天安门\r\n广场\n最后".encode("utf-8"))
    assert list(iter_corpus_lines(p)) == ["天安门", "广场", "最后"]


def test_iter_corpus_lines_drops_one_cr_before_lf(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_bytes(b"ab\r\r\ncd\r\n\r\nef\r")
    assert list(iter_corpus_lines(p)) == ["ab\r", "cd", "", "ef\r"]


def test_iter_corpus_lines_reports_byte_offset(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes("天\n".encode("utf-8") + b"\xffrest\n")  # first line is 4 bytes
    with pytest.raises(CorpusEncodingError, match="byte offset 4"):
        list(iter_corpus_lines(p))


def test_iter_corpus_lines_reports_offset_past_the_first_chunk(tmp_path):
    # The text layer decodes in chunks of a few KiB; the offset must still
    # count from the start of the file.
    head = "天安门广场\n".encode("utf-8") * 3000  # 48000 bytes
    p = tmp_path / "bad.txt"
    p.write_bytes(head + b"ab\xffcd\n")
    with pytest.raises(CorpusEncodingError, match=f"byte offset {len(head) + 2}$"):
        list(iter_corpus_lines(p))


@pytest.mark.parametrize(
    "data, block, want",
    [
        (b"ab\r\ncd\n", 3, ["ab", "cd"]),  # "\r" ends the first block, "\n" starts the next
        ("天安\n门".encode("utf-8"), 2, ["天安", "门"]),  # every character split across blocks
        (b"x" * 50 + b"\ny\n", 4, ["x" * 50, "y"]),  # a line of 13 blocks
        (b"ab\ncd", 2, ["ab", "cd"]),  # no line feed after the last line
        (b"ab\ncd\r", 2, ["ab", "cd\r"]),  # nor after a kept carriage return
        (b"\r\n\r\r\n", 1, ["", "\r"]),
        (b"", 4, []),
    ],
    ids=[
        "cr-lf-split", "character-split", "line-of-many-blocks", "last-line-unended", "last-line-cr", "cr-only",
        "empty",
    ],
)
def test_iter_corpus_lines_across_block_edges(tmp_path, monkeypatch, data, block, want):
    monkeypatch.setattr(ngram, "_BLOCK_BYTES", block)
    p = tmp_path / "corpus.txt"
    p.write_bytes(data)
    assert list(iter_corpus_lines(p)) == want


def test_iter_corpus_lines_reports_the_absolute_offset_in_a_later_block(tmp_path, monkeypatch):
    monkeypatch.setattr(ngram, "_BLOCK_BYTES", 4)
    p = tmp_path / "bad.txt"
    p.write_bytes(b"abc\ndef\ngh\xffij\n")
    lines = iter_corpus_lines(p)
    assert [next(lines), next(lines)] == ["abc", "def"]
    with pytest.raises(CorpusEncodingError, match="byte offset 10$"):
        next(lines)


def _whole_file_lines(data: bytes):
    """The lines of data decoded at once, or the offset of its first invalid byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.start
    lines = text.split("\n")
    last = lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines] + ([last] if last else [])


# ASCII, line ends, characters of 3 and 4 bytes, a byte UTF-8 never holds
# (0xff) and a lead byte that no continuation bytes follow (0xe5).
_BYTES = st.sampled_from([b"a", b"\n", b"\r", "天".encode("utf-8"), "\U00020000".encode("utf-8"), b"\xff", b"\xe5"])


@settings(deadline=None)
@given(st.lists(_BYTES), st.integers(1, 9))
def test_iter_corpus_lines_matches_a_whole_file_decode(pieces, block):
    data = b"".join(pieces)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ngram, "_BLOCK_BYTES", block):
        p = Path(tmp) / "corpus.txt"
        p.write_bytes(data)
        try:
            got = list(iter_corpus_lines(p))
        except CorpusEncodingError as exc:
            got = int(str(exc).rsplit(" ", 1)[1])
    assert got == _whole_file_lines(data)
