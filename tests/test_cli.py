import errno
import inspect
import json
import operator
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import segspectral
from segspectral import EhrParams, LaplacianForm, Lexicon, SegmenterConfig, WordStats, load_model
from segspectral import cli
from segspectral.cli import DEFAULT_CONFIG, UsageError, load_config, main
from segspectral.pipeline import RECIPES

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared corpus, gold file, and trained model for CLI round trips."""
    root = tmp_path_factory.mktemp("cli")
    assert (
        main(
            [
                "synth",
                "--lines",
                str(root / "lines.txt"),
                "--gold",
                str(root / "gold.txt"),
                "--sentences",
                "120",
                "--seed",
                "0",
            ]
        )
        == 0
    )
    assert (
        main(["train", "--input", str(root / "lines.txt"), "--model", str(root / "model.bin")])
        == 0
    )
    return root


def test_synth_is_deterministic(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        rc = main(
            [
                "synth",
                "--lines",
                str(tmp_path / d / "l.txt"),
                "--gold",
                str(tmp_path / d / "g.txt"),
                "--sentences",
                "5",
            ]
        )
        assert rc == 0
    assert (tmp_path / "a" / "l.txt").read_bytes() == (tmp_path / "b" / "l.txt").read_bytes()
    gold = (tmp_path / "a" / "g.txt").read_text(encoding="utf-8")
    lines = (tmp_path / "a" / "l.txt").read_text(encoding="utf-8")
    assert [g.replace(" ", "") for g in gold.splitlines()] == lines.splitlines()



@pytest.mark.parametrize(
    "flags, message",
    [
        (["--word-len", "0", "2"], "word_len must satisfy 1 <= lo <= hi"),
        (["--word-len", "3", "2"], "word_len must satisfy 1 <= lo <= hi"),
        (["--vocab-size", "0"], "vocab_size must be at least 1"),
        (["--sentences", "-1"], "sentences must be nonnegative"),
        (["--vocab-size", "30000"], "character inventory exhausted"),
    ],
    ids=["word-len-zero", "word-len-reversed", "vocab-size-zero", "sentences-negative", "vocab-size-too-large"],
)
def test_bad_synth_spec_is_a_usage_error(tmp_path, capsys, flags, message):
    argv = ["synth", "--lines", str(tmp_path / "l.txt"), "--gold", str(tmp_path / "g.txt"), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "l.txt").exists()

def test_train_reports_counts(workdir, capsys):
    model = load_model(workdir / "model.bin")
    assert model.line_count == 120
    assert model.source == "lines.txt"
    main(["train", "--input", str(workdir / "lines.txt"), "--model", str(workdir / "m2.bin")])
    uni, bi, tri = (len(model.of_order(order)[0]) for order in (1, 2, 3))
    assert min(uni, bi, tri) > 0
    assert capsys.readouterr().out == (
        f"trained on 120 lines: {uni} unigrams, {bi} bigrams, {tri} trigrams\n"
    )


def test_segment_eval_round_trip(workdir, capsys):
    pred = workdir / "pred.txt"
    rc = main(
        [
            "segment",
            "--model",
            str(workdir / "model.bin"),
            "--input",
            str(workdir / "lines.txt"),
            "--output",
            str(pred),
            "--eig-cut",
            "1.5",
        ]
    )
    assert rc == 0
    lines = (workdir / "lines.txt").read_text(encoding="utf-8").splitlines()
    seg_lines = pred.read_text(encoding="utf-8").splitlines()
    assert len(seg_lines) == len(lines)
    for raw, seg in zip(lines, seg_lines):
        assert seg.replace(" ", "") == raw

    rc = main(["eval", "--gold", str(workdir / "gold.txt"), "--pred", str(pred)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    m = re.fullmatch(
        r"R=(\d\.\d{4}) P=(\d\.\d{4}) F=(\d\.\d{4}) gold=(\d+) pred=(\d+) correct=(\d+)", out
    )
    assert m, out
    assert float(m.group(3)) >= 0.9  # near-perfect on the synthetic corpus


def test_segment_to_stdout_preserves_line_count(workdir, tmp_path, capsys):
    src = tmp_path / "three.txt"
    lines = (workdir / "lines.txt").read_text(encoding="utf-8").splitlines()[:2]
    src.write_text(lines[0] + "\n\n" + lines[1] + "\n", encoding="utf-8")
    rc = main(["segment", "--model", str(workdir / "model.bin"), "--input", str(src)])
    assert rc == 0
    out = capsys.readouterr().out.split("\n")
    assert len(out) == 4 and out[3] == ""  # three lines plus trailing newline
    assert out[1] == ""  # empty input line stays empty


def test_unicode_line_separators_stay_inside_lines(workdir, tmp_path):
    # Only "\n" ends a line (one "\r" right before it is dropped); the other
    # characters str.splitlines() breaks on are ordinary line content.
    base = (workdir / "lines.txt").read_text(encoding="utf-8").split("\n")[:4]
    lines = [
        base[0][:3] + "\x1c" + base[0][3:],
        base[1][:2] + "\u2028" + base[1][2:] + "\u2029",
        "\x0b\x0c" + base[2] + "\x1d\x1e\x85",
        base[3],
    ]
    src = tmp_path / "seps.txt"
    src.write_bytes(("\n".join(lines[:3]) + "\n" + lines[3] + "\r\n").encode("utf-8"))
    out = tmp_path / "out.txt"
    rc = main(["segment", "--model", str(workdir / "model.bin"), "--input", str(src), "--output", str(out)])
    assert rc == 0
    seg_lines = out.read_text(encoding="utf-8").split("\n")
    assert seg_lines[-1] == ""
    assert len(seg_lines[:-1]) == len(lines)
    for raw, seg in zip(lines, seg_lines):
        assert seg.replace(" ", "") == raw


def test_segment_missing_files(workdir, capsys):
    rc = main(["segment", "--model", str(workdir / "nope.bin"), "--input", str(workdir / "lines.txt")])
    assert rc == 2
    rc = main(["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "nope.txt")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_segment_corrupt_model(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    rc = main(["segment", "--model", str(bad), "--input", str(workdir / "lines.txt")])
    assert rc == 1
    assert "cannot load model" in capsys.readouterr().err


def test_dump_eigen(workdir, tmp_path):
    src = tmp_path / "two.txt"
    lines = (workdir / "lines.txt").read_text(encoding="utf-8").splitlines()[:2]
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dump = tmp_path / "eig.jsonl"
    rc = main(
        [
            "segment",
            "--model",
            str(workdir / "model.bin"),
            "--input",
            str(src),
            "--output",
            str(tmp_path / "out.txt"),
            "--dump-eigen",
            str(dump),
        ]
    )
    assert rc == 0
    rows = [json.loads(line) for line in dump.read_text(encoding="utf-8").splitlines()]
    assert [r["line"] for r in rows] == [1, 2]
    for r, line in zip(rows, lines):
        assert r["n"] == len(line) == len(r["eigenvalues"])
        assert r["k"] >= 1


def _fail_eigh_on_call(monkeypatch, number):
    """Make the number-th eigendecomposition (1-based) fail as a
    non-converging LAPACK call would; the others solve normally. Each
    non-empty line is solved in one call, in input order."""
    real_eigh = np.linalg.eigh
    calls = 0

    def eigh(a, *args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == number:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)


def test_dump_eigen_skips_empty_and_failed_lines(workdir, tmp_path, monkeypatch, capsys):
    corpus = (workdir / "lines.txt").read_text(encoding="utf-8").splitlines()[:3]
    lines = [corpus[0], "", corpus[1], corpus[2]]
    src = tmp_path / "in.txt"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    dump = tmp_path / "eig.jsonl"
    _fail_eigh_on_call(monkeypatch, 2)  # the empty line is never solved
    rc = main(
        [
            "segment",
            "--model",
            str(workdir / "model.bin"),
            "--input",
            str(src),
            "--output",
            str(out),
            "--dump-eigen",
            str(dump),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("line 3: ") and "did not converge" in err[0]
    rows = [json.loads(line) for line in dump.read_text(encoding="utf-8").splitlines()]
    assert [r["line"] for r in rows] == [1, 4]
    for r in rows:
        assert r["n"] == len(lines[r["line"] - 1]) == len(r["eigenvalues"])
    seg = out.read_text(encoding="utf-8").split("\n")
    assert seg[-1] == "" and len(seg) == len(lines) + 1
    assert seg[1] == "" and seg[2] == corpus[1]  # empty stays empty, failed passes through
    assert [s.replace(" ", "") for s in seg[:-1]] == lines


def test_eval_errors(workdir, tmp_path, capsys):
    gold = tmp_path / "g.txt"
    pred = tmp_path / "p.txt"
    gold.write_text("天 安\n", encoding="utf-8")
    pred.write_text("天 门\n", encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert "different text" in capsys.readouterr().err
    pred.write_text("天安\n天安\n", encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1


def test_sweep_table(workdir, capsys):
    rc = main(
        [
            "sweep",
            "--model",
            str(workdir / "model.bin"),
            "--input",
            str(workdir / "lines.txt"),
            "--gold",
            str(workdir / "gold.txt"),
            "--cuts",
            "0.1,1.5,8.0",
        ]
    )
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].split("\t") == ["eig_cut", "mean_k", "mean_words", "F"]
    body = [r.split("\t") for r in rows[1:]]
    assert [r[0] for r in body] == ["0.1", "1.5", "8"]
    mean_ks = [float(r[1]) for r in body]
    assert mean_ks == sorted(mean_ks)
    best_f = max(float(r[3]) for r in body)
    assert best_f >= 0.9


def test_sweep_bad_cuts(workdir, capsys):
    base = [
        "sweep",
        "--model",
        str(workdir / "model.bin"),
        "--input",
        str(workdir / "lines.txt"),
    ]
    assert main(base + ["--cuts", "a,b"]) == 2
    # leading dash needs the = form or argparse eats it as an option
    assert main(base + ["--cuts=-1,2"]) == 2
    assert main(base + ["--cuts", ""]) == 2


def test_sweep_reports_failed_line_and_prints_every_cut(workdir, tmp_path, monkeypatch, capsys):
    lines = (workdir / "lines.txt").read_text(encoding="utf-8").splitlines()[:8]
    gold = (workdir / "gold.txt").read_text(encoding="utf-8").splitlines()[:8]
    bad = 3
    src = tmp_path / "in.txt"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gold_path = tmp_path / "gold.txt"
    gold_path.write_text("\n".join(gold) + "\n", encoding="utf-8")
    _fail_eigh_on_call(monkeypatch, bad + 1)
    rc = main(
        [
            "sweep",
            "--model",
            str(workdir / "model.bin"),
            "--input",
            str(src),
            "--gold",
            str(gold_path),
            "--cuts",
            "0.1,1.5,8.0",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    rows = [r.split("\t") for r in captured.out.strip().splitlines()]
    assert [r[0] for r in rows] == ["eig_cut", "0.1", "1.5", "8"]
    assert all(len(r) == 4 for r in rows)
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"line {bad + 1}: ") and "did not converge" in err[0]
    # both means skip the failed line: k clusters give k words on this text
    assert all(r[1] == r[2] for r in rows[1:])


def test_sweep_f_matches_segment_then_eval(workdir, tmp_path, capsys):
    model = str(workdir / "model.bin")
    # A space between the first two words of line 1 is its own token in the
    # output, which eval drops; the gold line stays without it.
    raw = (workdir / "lines.txt").read_text(encoding="utf-8").split("\n")
    first = (workdir / "gold.txt").read_text(encoding="utf-8").split("\n")[0].split(" ")
    raw[0] = first[0] + " " + "".join(first[1:])
    lines = str(tmp_path / "lines.txt")
    Path(lines).write_text("\n".join(raw), encoding="utf-8")
    gold = str(workdir / "gold.txt")
    # Every line is right at 1.5 on this corpus (F = 1); at 0.15 F is well below 1.
    cuts = ["0.15", "1.5"]
    eval_f = []
    for cut in cuts:
        pred = tmp_path / f"pred_{cut}.txt"
        rc = main(["segment", "--model", model, "--input", lines, "--output", str(pred), "--eig-cut", cut])
        assert rc == 0
        assert main(["eval", "--gold", gold, "--pred", str(pred)]) == 0
        eval_f.append(re.search(r"F=(\S+)", capsys.readouterr().out).group(1))
    assert main(["sweep", "--model", model, "--input", lines, "--gold", gold, "--cuts", ",".join(cuts)]) == 0
    rows = [r.split("\t") for r in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [(r[0], r[3]) for r in rows] == list(zip(cuts, eval_f))


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_gold_with_different_text_names_its_line(workdir, tmp_path, capsys, command):
    lines = (workdir / "lines.txt").read_text(encoding="utf-8").splitlines()[:3]
    gold = (workdir / "gold.txt").read_text(encoding="utf-8").splitlines()[:3]
    gold[1] = gold[1][:-1]
    src, gold_path, pred = tmp_path / "in.txt", tmp_path / "gold.txt", tmp_path / "pred.txt"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gold_path.write_text("\n".join(gold) + "\n", encoding="utf-8")
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = {
        "eval": ["eval", "--gold", str(gold_path), "--pred", str(pred)],
        "sweep": ["sweep", "--model", str(workdir / "model.bin"), "--input", str(src), "--gold", str(gold_path), "--cuts", "1.5"],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: gold and predicted segmentations spell different text\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, flag",
    [("segment", "--output"), ("segment", "--dump-eigen"), ("train", "--model"), ("synth", "--lines"), ("synth", "--gold")],
)
def test_unwritable_output_path_is_a_usage_error(workdir, tmp_path, capsys, command, flag):
    model, lines = str(workdir / "model.bin"), str(workdir / "lines.txt")
    out = {name: str(tmp_path / name) for name in ("seg.txt", "eig.jsonl", "m.bin", "l.txt", "g.txt")}
    argv = {
        "segment": ["segment", "--model", model, "--input", lines, "--output", out["seg.txt"], "--dump-eigen", out["eig.jsonl"]],
        "train": ["train", "--input", lines, "--model", out["m.bin"]],
        "synth": ["synth", "--sentences", "3", "--lines", out["l.txt"], "--gold", out["g.txt"]],
    }[command]
    for path in out.values():
        Path(path).write_text("keep\n", encoding="utf-8")
    bad = tmp_path / "absent" / "out"
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"
    # Every output is opened before any is emptied.
    assert all(Path(path).read_text(encoding="utf-8") == "keep\n" for path in out.values())


def test_unwritable_output_fails_before_any_line_is_segmented(workdir, tmp_path, monkeypatch, capsys):
    def segment_nothing(*args, **kwargs):
        raise AssertionError("a line was segmented")

    monkeypatch.setattr(cli, "trace_document", segment_nothing)
    bad, dump = tmp_path / "absent" / "out", tmp_path / "eig.jsonl"
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    assert main(argv + ["--output", str(bad), "--dump-eigen", str(dump)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"
    assert not dump.exists()


def test_output_may_overwrite_the_input(workdir, tmp_path):
    src = tmp_path / "in.txt"
    text = (workdir / "lines.txt").read_text(encoding="utf-8")
    src.write_text(text, encoding="utf-8")
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(src), "--output", str(src)]
    # A --dump-eigen path that cannot be written leaves the input as it was.
    assert main(argv + ["--dump-eigen", str(tmp_path / "absent" / "eig.jsonl")]) == 2
    assert src.read_text(encoding="utf-8") == text
    assert main(argv) == 0
    assert src.read_text(encoding="utf-8").replace(" ", "") == text


@pytest.mark.parametrize("alias", ["same path", "symlink", "stdout twice"])
@pytest.mark.parametrize("command", ["segment", "synth"])
def test_two_outputs_naming_one_file_are_a_usage_error(workdir, tmp_path, capsys, command, alias):
    first, second = {"segment": ("--output", "--dump-eigen"), "synth": ("--lines", "--gold")}[command]
    target = tmp_path / "o.txt"
    target.write_text("keep\n", encoding="utf-8")
    if alias == "symlink":
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        paths = (str(target), str(link))
    else:
        paths = ("-", "-") if alias == "stdout twice" else (str(target), str(target))
    argv = {
        "segment": ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")],
        "synth": ["synth", "--sentences", "3"],
    }[command]
    assert main(argv + [first, paths[0], second, paths[1]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {first} {paths[0]} and {second} {paths[1]} name the same file\n"
    assert captured.out == ""
    assert target.read_text(encoding="utf-8") == "keep\n"


def test_two_outputs_may_share_a_device(workdir):
    # Only a regular file is refused twice: both outputs may go to os.devnull.
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    assert main(argv + ["--output", os.devnull, "--dump-eigen", os.devnull]) == 0


def test_lexicon_recipe_flags(workdir, tmp_path, capsys):
    args = [
        "segment",
        "--model",
        str(workdir / "model.bin"),
        "--input",
        str(workdir / "lines.txt"),
        "--output",
        str(tmp_path / "o.txt"),
        "--recipe",
        "lexicon",
    ]
    assert main(args) == 2  # missing --lexicon
    assert "--lexicon" in capsys.readouterr().err
    lex = tmp_path / "lex.tsv"
    lex.write_text("天安\t3\n", encoding="utf-8")
    assert main(args + ["--lexicon", str(lex)]) == 0


def test_trainwords_recipe_flags(workdir, tmp_path):
    stats = tmp_path / "words.tsv"
    stats.write_text("天安\t40\n的\t900\n", encoding="utf-8")
    rc = main(
        [
            "segment",
            "--model",
            str(workdir / "model.bin"),
            "--input",
            str(workdir / "lines.txt"),
            "--output",
            str(tmp_path / "o.txt"),
            "--recipe",
            "train-words",
            "--word-stats",
            str(stats),
        ]
    )
    assert rc == 0


@pytest.mark.parametrize("recipe, flag", [("lexicon", "--lexicon"), ("train-words", "--word-stats")])
def test_recipe_resource_errors(workdir, tmp_path, capsys, recipe, flag):
    args = [
        "segment",
        "--model",
        str(workdir / "model.bin"),
        "--input",
        str(workdir / "lines.txt"),
        "--output",
        str(tmp_path / "o.txt"),
        "--recipe",
        recipe,
    ]
    assert main(args) == 2
    assert flag in capsys.readouterr().err
    assert main(args + [flag, str(tmp_path / "absent.tsv")]) == 2
    assert "file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.tsv"
    bad.write_text("天安\t3\n门 4\n", encoding="utf-8")
    assert main(args + [flag, str(bad)]) == 1
    assert f"{bad}:2" in capsys.readouterr().err



@pytest.mark.parametrize("recipe, flag", [("lexicon", "--lexicon"), ("train-words", "--word-stats")])
def test_repeated_resource_word_is_a_data_error(workdir, tmp_path, capsys, recipe, flag):
    dup = tmp_path / "dup.tsv"
    dup.write_text("天安\t1\n的\t2\n天安\t3\n", encoding="utf-8")
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    argv += ["--output", str(tmp_path / "o.txt"), "--recipe", recipe, flag, str(dup)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {dup}:3: word '天安' already listed on line 1\n"

@pytest.mark.parametrize(
    "recipe, flag, key, value, message",
    [
        ("ehr", None, "factor_1", 0.5, "weakening factors must be >= 1"),
        ("lexicon", "--lexicon", "boost", 0, "boost must be positive"),
        ("train-words", "--word-stats", "damp_divisor", 0, "boost and damp_divisor must be positive"),
        ("lexicon", "--lexicon", "rank_scale", 0, "rank_scale must be positive"),
        ("lexicon", "--lexicon", "rank_floor", 0, "rank_floor must be positive"),
        ("lexicon", "--lexicon", "rank_threshold", -5, "rank_threshold must be an integer >= 1, got -5"),
        ("lexicon", "--lexicon", "rank_threshold", 0, "rank_threshold must be an integer >= 1, got 0"),
    ],
    ids=[
        "ehr", "lexicon", "train-words", "lexicon-rank_scale", "lexicon-rank_floor",
        "lexicon-rank_threshold-negative", "lexicon-rank_threshold-zero",
    ],
)
def test_config_value_out_of_range_is_a_usage_error(workdir, tmp_path, capsys, recipe, flag, key, value, message):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    resource = tmp_path / "words.tsv"
    resource.write_text("天安\t3\n的\t1\n", encoding="utf-8")
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    argv += ["--output", str(tmp_path / "o.txt"), "--recipe", recipe]
    if flag is not None:
        argv += [flag, str(resource)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _exits_2_with_one_usage_message(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "--eig-cut", "nan"],
        ["segment", "--eig-cut", "inf"],
        ["segment", "--eig-cut=-inf"],
        ["sweep", "--cuts", "nan,1.5,inf"],
        ["sweep", "--cuts", "1.5,inf"],
        ["sweep", "--cuts", "nan"],
        ["sweep", "--cuts", "1.5", "--eig-cut", "nan"],
    ],
    ids=["segment-nan", "segment-inf", "segment-neg-inf", "sweep-nan-inf", "sweep-inf", "sweep-nan", "sweep-eig-cut"],
)
def test_nonfinite_cut_flag_is_a_usage_error(workdir, capsys, argv):
    command, *flags = argv
    base = [command, "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    _exits_2_with_one_usage_message(base + flags, capsys)


@pytest.mark.parametrize(
    "recipe, flag, text",
    [
        ("ehr", None, '{"eig_cut_ehr": NaN}'),
        ("ehr", None, '{"eig_cut_ehr": Infinity}'),
        ("ehr", None, '{"eig_cut_lexicon": NaN}'),
        ("ehr", None, '{"factor_1": NaN}'),
        ("ehr", None, '{"factor_2": Infinity}'),
        ("lexicon", "--lexicon", '{"boost": NaN}'),
        ("lexicon", "--lexicon", '{"rank_scale": Infinity}'),
        ("train-words", "--word-stats", '{"boost": Infinity}'),
    ],
)
@pytest.mark.parametrize("command", ["segment", "sweep"])
def test_nonfinite_config_value_is_a_usage_error(workdir, tmp_path, capsys, command, recipe, flag, text):
    config = tmp_path / "c.json"
    config.write_text(text, encoding="utf-8")
    resource = tmp_path / "words.tsv"
    resource.write_text("天安\t3\n的\t1\n", encoding="utf-8")
    argv = [command, "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    argv += ["--recipe", recipe, "--config", str(config)]
    if command == "sweep":
        argv += ["--cuts", "1.5"]
    if flag is not None:
        argv += [flag, str(resource)]
    _exits_2_with_one_usage_message(argv, capsys)



@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
@pytest.mark.parametrize("key", ["boost", "eig_cut_ehr"])
def test_config_int_too_large_for_a_float_is_a_usage_error(workdir, tmp_path, capsys, key, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    argv += ["--output", str(tmp_path / "o.txt"), "--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: config key {key!r} expects float, got {value!r}\n"


@pytest.mark.parametrize(
    "recipe, flag, what", [("lexicon", "--lexicon", "rank"), ("train-words", "--word-stats", "count")]
)
def test_one_character_word_number_too_large_for_a_float_is_a_data_error(
    workdir, tmp_path, capsys, recipe, flag, what
):
    # A bond touching a one-character word is damped by a divisor computed
    # from the word's rank or count as a float; a longer word's is never
    # converted, so it may be as large as it likes.
    lines = tmp_path / "lines.txt"
    lines.write_text("天安的门\n", encoding="utf-8")
    resource = tmp_path / "words.tsv"
    resource.write_text(f"天安\t{10**400}\n的\t{10**401}\n", encoding="utf-8")
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(lines)]
    argv += ["--output", str(tmp_path / "o.txt"), "--recipe", recipe, flag, str(resource)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: a one-character word's {what} must fit in a float\n"


def test_lexicon_rank_that_underflows_rank_scale_is_refused_at_load(workdir, tmp_path, capsys):
    # 1e-300 / 10**300 underflows to 0, which has no log: the lexicon is
    # refused once, before any line is written, not on each line holding 的.
    lines = tmp_path / "lines.txt"
    lines.write_text("天安的门\n的\n", encoding="utf-8")
    resource = tmp_path / "lex.tsv"
    resource.write_text(f"天安\t1\n的\t{10**300}\n", encoding="utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"rank_scale": 1e-300}), encoding="utf-8")
    out = tmp_path / "o.txt"
    out.write_text("keep\n", encoding="utf-8")
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(lines), "--output", str(out)]
    argv += ["--recipe", "lexicon", "--lexicon", str(resource), "--config", str(config)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: rank_scale 1e-300 over the rank of '的' underflows to 0\n"
    assert out.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("command", ["segment", "sweep"])
@pytest.mark.parametrize("recipe, flag", [("lexicon", "--lexicon"), ("train-words", "--word-stats")])
def test_boost_that_overflows_a_bond_is_refused_once(workdir, tmp_path, capsys, command, recipe, flag):
    # Boosted bonds of this model reach a few hundred, so 1e308 overflows
    # them: the boost is refused once, before any line is written, not on
    # each line holding a boosted pair. 1e300 keeps every bond finite.
    words = dict.fromkeys((workdir / "gold.txt").read_text(encoding="utf-8").split())
    resource = tmp_path / "words.tsv"
    resource.write_text("".join(f"{w}\t{i}\n" for i, w in enumerate(words, 1)), encoding="utf-8")
    out = tmp_path / "o.txt"
    out.write_text("keep\n", encoding="utf-8")
    argv = [command, "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    argv += ["--recipe", recipe, flag, str(resource), "--config", str(tmp_path / "c.json")]
    argv += ["--output", str(out)] if command == "segment" else ["--cuts", "1e-4,1e-3"]
    for boost, status in ((1e308, 1), (1e300, 0)):
        (tmp_path / "c.json").write_text(json.dumps({"boost": boost}), encoding="utf-8")
        assert main(argv) == status
        stdout, err = capsys.readouterr()
        if status:
            assert err.startswith("error: boost 1e+308 ") and err.count("\n") == 1
            assert stdout == "" and out.read_text(encoding="utf-8") == "keep\n"
        else:
            assert err == ""


@pytest.mark.parametrize(
    "text", ['{"boost": ' + "9" * 5000 + "}", "[" * 100_000], ids=["5000-digit-integer", "deeply-nested"]
)
def test_config_json_loads_cannot_parse_is_a_usage_error(workdir, tmp_path, capsys, text):
    # json.loads raises neither as a JSONDecodeError: a plain ValueError for
    # an integer past Python's 4300-digit limit, a RecursionError for nesting.
    config = tmp_path / "c.json"
    config.write_text(text, encoding="utf-8")
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    argv += ["--output", str(tmp_path / "o.txt"), "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config} is not valid JSON: ") and err.count("\n") == 1, err


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("command", ["segment", "sweep"])
def test_closed_stdout_exits_quietly(workdir, tmp_path, monkeypatch, capsys, command):
    argv = [command, "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    if command == "sweep":
        argv += ["--cuts", "0.5,1.5"]
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
        assert main(argv) == 1
        # The descriptor now leads to devnull, so the flush at exit succeeds.
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["segment", "sweep", "eval", "train"])
def test_invalid_utf8_input_is_a_data_error(workdir, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes("天安\n门".encode("utf-8") + b"\xff" + "广\n".encode("utf-8"))
    model = str(workdir / "model.bin")
    argv = {
        "segment": ["segment", "--model", model, "--input", str(bad)],
        "sweep": ["sweep", "--model", model, "--input", str(bad), "--cuts", "1.5"],
        "eval": ["eval", "--gold", str(bad), "--pred", str(bad)],
        "train": ["train", "--input", str(bad), "--model", str(tmp_path / "m.bin")],
    }[command]
    assert main(argv) == 1
    assert "invalid UTF-8 at byte offset 10" in capsys.readouterr().err


# Every flag that names a file a command reads, the file's role being the
# flag's name: input, gold, pred, model, lexicon, word-stats and config.
_READ_FLAGS = [
    ("segment", "--input"),
    ("sweep", "--input"),
    ("train", "--input"),
    ("eval", "--gold"),
    ("sweep", "--gold"),
    ("eval", "--pred"),
    ("segment", "--model"),
    ("segment", "--lexicon"),
    ("segment", "--word-stats"),
    ("segment", "--config"),
]


def _reading_argv(workdir, tmp_path, command, flag, path) -> list[str]:
    """Arguments for command that read path through flag and good files
    everywhere else."""
    model, lines, gold = (str(workdir / name) for name in ("model.bin", "lines.txt", "gold.txt"))
    out = str(tmp_path / "o.txt")
    argv = {
        "segment": ["segment", "--model", model, "--input", lines, "--output", out],
        "sweep": ["sweep", "--model", model, "--input", lines, "--gold", gold, "--cuts", "1.5"],
        "train": ["train", "--input", lines, "--model", str(tmp_path / "m.bin")],
        "eval": ["eval", "--gold", gold, "--pred", gold],
    }[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(path)
    else:
        recipe = {"--lexicon": ["--recipe", "lexicon"], "--word-stats": ["--recipe", "train-words"]}
        argv += [*recipe.get(flag, []), flag, str(path)]
    return argv


@pytest.mark.parametrize("command, flag", _READ_FLAGS)
def test_unreadable_path_is_a_usage_error(workdir, tmp_path, capsys, command, flag):
    # A directory exists, so it is not "not found", but it cannot be read.
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main(_reading_argv(workdir, tmp_path, command, flag, folder)) == 2
    assert capsys.readouterr().err == f"error: cannot read {folder}: {os.strerror(errno.EISDIR)}\n"


@pytest.mark.parametrize("command, flag", _READ_FLAGS)
def test_bad_path_names_its_role(workdir, tmp_path, capsys, command, flag):
    missing = tmp_path / "missing"
    assert main(_reading_argv(workdir, tmp_path, command, flag, missing)) == 2
    assert capsys.readouterr().err == f"error: {flag[2:]} file not found: {missing}\n"
    # A path under a regular file is not missing: it cannot be read.
    regular = tmp_path / "regular"
    regular.write_text("x\n", encoding="utf-8")
    under = regular / "x"
    assert main(_reading_argv(workdir, tmp_path, command, flag, under)) == 2
    assert capsys.readouterr().err == f"error: cannot read {under}: {os.strerror(errno.ENOTDIR)}\n"


def test_config_that_is_not_utf8_is_a_usage_error(workdir, tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"eig_cut_ehr": 1.5}\xff')
    argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
    assert main(argv + ["--output", str(tmp_path / "o.txt"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {config}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_inner_whitespace_is_its_own_token_and_eval_drops_it(workdir, tmp_path, capsys):
    # Put a space between the first two gold words of a line; at cut 1.5
    # every line of this corpus is segmented right.
    gold_words = (workdir / "gold.txt").read_text(encoding="utf-8").splitlines()[0].split(" ")
    line = gold_words[0] + " " + "".join(gold_words[1:])
    src = tmp_path / "in.txt"
    src.write_text(line + "\n", encoding="utf-8")
    gold = tmp_path / "gold.txt"
    gold.write_text(" ".join(gold_words) + "\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    model = str(workdir / "model.bin")
    assert main(["segment", "--model", model, "--input", str(src), "--output", str(pred), "--eig-cut", "1.5"]) == 0
    assert pred.read_text(encoding="utf-8") == " ".join([gold_words[0], " ", *gold_words[1:]]) + "\n"
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    n = len(gold_words)
    assert capsys.readouterr().out.strip() == f"R=1.0000 P=1.0000 F=1.0000 gold={n} pred={n} correct={n}"


def _readme_table(heading: str) -> list[list[str]]:
    """Body rows of the first table under a README heading, as cell lists."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def test_readme_tables_match_code():
    keys = {key for row in _readme_table("Configuration") for key in re.findall(r"`([^`]+)`", row[0])}
    assert keys == set(DEFAULT_CONFIG)
    recipes = [(name.strip("`"), LaplacianForm(form.strip("`")), float(cut)) for name, _, form, cut in _readme_table("Recipes")]
    assert recipes == list(RECIPES.values())



# The package's public surface: every name README uses, what bench/ calls
# at the top level, the names the acceptance gate reaches as sg.<name>,
# the error classes public calls raise, and the recipe resources.
PUBLIC_NAMES = {
    "CorpusEncodingError", "NGramModel", "ingest_corpus",
    "ModelChecksumError", "ModelFormatError", "ModelIOError", "ModelTruncatedError",
    "ModelVersionError", "load_model", "save_model",
    "SINGLE_CHAR_WORDS", "WEAKEN_SET_1", "WEAKEN_SET_2", "ConnectionMatrix", "EhrParams",
    "Lexicon", "WordStats", "load_lexicon", "load_word_stats",
    "EigenConvergenceError", "EigenDecomposition", "eigh_symmetric", "kmeans_cluster",
    "CutKind", "LaplacianForm", "brute_force_best_contiguous", "build_laplacian", "choose_k",
    "cut_objective", "indicator_span_residual", "spectral_embed", "zero_eig_multiplicity",
    "SegmenterConfig", "SentenceTrace", "prepare_sentence", "segment_document",
    "segment_prepared", "segment_sentence", "trace_document",
    "EvalReport", "SynthSpec", "generate_synthetic", "score_corpus",
    "__version__",
}


def test_public_surface_matches_code():
    assert sorted(segspectral.__all__) == sorted(PUBLIC_NAMES)
    star: dict = {}
    exec("from segspectral import *", star)
    del star["__builtins__"]
    assert set(star) == PUBLIC_NAMES
    # __init__ binds nothing else but the package's own submodules.
    bound = {name for name, value in vars(segspectral).items() if not name.startswith("__")}
    bound |= {"__version__"}
    submodules = {name for name in bound if inspect.ismodule(getattr(segspectral, name))}
    assert bound - submodules == PUBLIC_NAMES
    api = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1].split("```", 2)[1]
    imported = re.search(r"from segspectral import \(([^)]*)\)", api).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= PUBLIC_NAMES

# Every config key, a non-default value for it, the recipes that read it,
# and where it lands in the SegmenterConfig the CLI builds.
_ALL_RECIPES = ("ehr", "lexicon", "train-words")
_CONFIG_WIRING = {
    "weaken_set_1": ("天地", ("ehr",), "recipe.weaken_set_1"),
    "weaken_set_2": ("门广", ("ehr",), "recipe.weaken_set_2"),
    "factor_1": (3.0, ("ehr",), "recipe.factor_1"),
    "factor_2": (50.0, ("ehr",), "recipe.factor_2"),
    "boost": (7.5, ("lexicon", "train-words"), "recipe.boost"),
    "rank_threshold": (60, ("lexicon",), "recipe.rank_threshold"),
    "rank_scale": (1e5, ("lexicon",), "recipe.rank_scale"),
    "rank_floor": (3.0, ("lexicon",), "recipe.rank_floor"),
    "single_char_set": ("的了", ("lexicon",), "recipe.single_char_set"),
    "damp_divisor": (5.0, ("train-words",), "recipe.damp_divisor"),
    "eig_cut_ehr": (0.5, ("ehr",), "eig_cut"),
    "eig_cut_lexicon": (0.002, ("lexicon",), "eig_cut"),
    "eig_cut_train_words": (0.003, ("train-words",), "eig_cut"),
}


class TestConfig:
    def test_every_key_reaches_the_segmenter(self, workdir, tmp_path, monkeypatch):
        assert set(_CONFIG_WIRING) == set(DEFAULT_CONFIG)
        overrides = {key: value for key, (value, _, _) in _CONFIG_WIRING.items()}
        assert all(value != DEFAULT_CONFIG[key] for key, value in overrides.items())
        config = tmp_path / "c.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
        resource = tmp_path / "words.tsv"
        resource.write_text("天安\t3\n的\t1\n", encoding="utf-8")
        built = []
        monkeypatch.setattr("segspectral.cli.trace_document", lambda lines, model, cfg: built.append(cfg) or iter(()))
        flags = {"ehr": [], "lexicon": ["--lexicon", str(resource)], "train-words": ["--word-stats", str(resource)]}
        for recipe in _ALL_RECIPES:
            argv = ["segment", "--model", str(workdir / "model.bin"), "--input", str(workdir / "lines.txt")]
            assert main(argv + ["--output", str(tmp_path / "o.txt"), "--config", str(config), "--recipe", recipe, *flags[recipe]]) == 0
            cfg = built.pop()
            for key, (value, readers, where) in _CONFIG_WIRING.items():
                if recipe in readers:
                    got = operator.attrgetter(where)(cfg)
                    assert got == (frozenset(value) if isinstance(got, frozenset) else value), (recipe, key)

    def test_defaults_returned_as_copy(self):
        cfg = load_config(None)
        assert cfg == DEFAULT_CONFIG
        cfg["rank_threshold"] = 99
        assert DEFAULT_CONFIG["rank_threshold"] == 25000

    def test_defaults_match_dataclasses(self):
        # DEFAULT_CONFIG repeats the dataclass and per-recipe defaults;
        # this keeps the copies from drifting apart.
        ehr, lex, ws = EhrParams(), Lexicon(entries={}), WordStats(words={})
        seg = SegmenterConfig.for_recipe(ehr)
        expect = {
            "factor_1": ehr.factor_1,
            "factor_2": ehr.factor_2,
            "weaken_set_1": ehr.weaken_set_1,
            "weaken_set_2": ehr.weaken_set_2,
            "boost": lex.boost,
            "rank_threshold": lex.rank_threshold,
            "rank_scale": lex.rank_scale,
            "rank_floor": lex.rank_floor,
            "single_char_set": lex.single_char_set,
            "damp_divisor": ws.damp_divisor,
            "eig_cut_ehr": seg.eig_cut,
            "eig_cut_lexicon": SegmenterConfig.for_recipe(lex).eig_cut,
            "eig_cut_train_words": SegmenterConfig.for_recipe(ws).eig_cut,
        }
        assert sorted(DEFAULT_CONFIG) == sorted(expect)
        for key, value in DEFAULT_CONFIG.items():
            if isinstance(expect[key], frozenset):
                value = frozenset(value)
            assert value == expect[key], key
        assert DEFAULT_CONFIG["boost"] == ws.boost

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nope": 1}), encoding="utf-8")
        with pytest.raises(UsageError, match="unknown config keys: nope"):
            load_config(str(p))

    def test_wrong_type_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"rank_threshold": "zero"}), encoding="utf-8")
        with pytest.raises(UsageError, match="rank_threshold"):
            load_config(str(p))
        p.write_text(json.dumps({"factor_1": True}), encoding="utf-8")
        with pytest.raises(UsageError, match="factor_1"):
            load_config(str(p))

    def test_int_promotes_to_float(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"factor_1": 8}), encoding="utf-8")
        cfg = load_config(str(p))
        assert cfg["factor_1"] == 8.0 and isinstance(cfg["factor_1"], float)

    def test_bad_json_and_missing_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(UsageError, match="valid JSON"):
            load_config(str(p))
        with pytest.raises(UsageError, match="not found"):
            load_config(str(tmp_path / "absent.json"))
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(UsageError, match="JSON object"):
            load_config(str(p))

    def test_unknown_key_exits_2_via_cli(self, workdir, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"mystery": 1}), encoding="utf-8")
        rc = main(
            [
                "segment",
                "--model",
                str(workdir / "model.bin"),
                "--input",
                str(workdir / "lines.txt"),
                "--config",
                str(p),
            ]
        )
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_env_var_config_applies(self, workdir, tmp_path, capsys, monkeypatch):
        # A huge threshold forces one cluster per character; the output for
        # a pure-CJK line is then fully space-separated single characters.
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"eig_cut_ehr": 1e6}), encoding="utf-8")
        monkeypatch.setenv("SEGSPECTRAL_CONFIG", str(p))
        src = tmp_path / "one.txt"
        line = (workdir / "lines.txt").read_text(encoding="utf-8").splitlines()[0]
        src.write_text(line + "\n", encoding="utf-8")
        rc = main(["segment", "--model", str(workdir / "model.bin"), "--input", str(src)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.split(" ") == list(line)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "segspectral" in capsys.readouterr().out


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
