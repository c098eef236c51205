"""Command-line front end.

Subcommands: train a character n-gram model from raw text, segment lines
with a chosen recipe, score a segmentation against a gold file, sweep the
granularity threshold over a grid, and generate a synthetic benchmark
corpus. Settings come from built-in defaults, optionally overridden by a
flat JSON config file (--config, or the SEGSPECTRAL_CONFIG environment
variable), then by command-line flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import __version__
from .evaluation import EvalReport, SynthSpec, count_matches, generate_synthetic, parse_segmented, score_corpus
from .graph import Lexicon, WordStats, check_boost, load_lexicon, load_word_stats
from .model_io import ModelIOError, load_model, save_model
from .ngram import ingest_corpus, iter_corpus_lines
from .pipeline import RECIPES, SegmenterConfig, trace_document
from .spectral import LaplacianForm

_RECIPE_BY_NAME = {name: cls for cls, (name, _, _) in RECIPES.items()}

# The recipes that read a resource file: its command-line flag and loader.
_RESOURCES = {Lexicon: ("--lexicon", load_lexicon), WordStats: ("--word-stats", load_word_stats)}


def _cut_key(recipe_name: str) -> str:
    return "eig_cut_" + recipe_name.replace("-", "_")


# One key per defaulted field of the recipe classes (recipes that share a
# field name share its key), plus each recipe's `eig_cut_<name>`. Set-valued
# fields default to strings, so every default here is a str, int or float.
DEFAULT_CONFIG = {f.name: f.default for cls in RECIPES for f in fields(cls) if f.default is not MISSING}
DEFAULT_CONFIG.update({_cut_key(name): cut for name, _, cut in RECIPES.values()})

class UsageError(Exception):
    """Bad invocation, config, or missing file; exits with status 2."""


class DataError(Exception):
    """Bad data encountered while running; exits with status 1."""


@contextlib.contextmanager
def _reading(path, role: str):
    """Around the code that reads the file at path: a path the file system
    cannot encode, a missing file (naming its role) and any other OSError
    are usage errors; a ValueError raised on the file's contents is a data
    error."""
    try:
        os.fsencode(path)  # as open does; a lone surrogate stands for no byte
    except UnicodeEncodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        yield
    except FileNotFoundError:
        raise UsageError(f"{role} file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _coerce(key: str, value, want: type):
    if want is float:
        # The bound refuses NaN, the infinities and an int too large to convert.
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif want is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif want is str:
        if isinstance(value, str):
            return value
    raise UsageError(f"config key {key!r} expects {want.__name__}, got {value!r}")


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON file at path (or the env var)."""
    cfg = dict(DEFAULT_CONFIG)
    if path is None:
        path = os.environ.get("SEGSPECTRAL_CONFIG") or None
    if path is None:
        return cfg
    # A config file that is not UTF-8 or not JSON is a usage error too.
    with _reading(path, "config"):
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
        except (ValueError, RecursionError) as exc:
            # bad JSON, an integer past Python's digit limit, or nesting too deep
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(cfg))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        cfg[key] = _coerce(key, value, type(DEFAULT_CONFIG[key]))
    return cfg


def _read_lines(path: str, role: str) -> list[str]:
    with _reading(path, role):
        return list(iter_corpus_lines(path))


def _cannot_write(path, exc: OSError | UnicodeEncodeError) -> UsageError:
    # a UnicodeEncodeError: the file system cannot encode path
    return UsageError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}")


@contextlib.contextmanager
def _open_outputs(*outputs: tuple[str, str | None]):
    """Yield one text file per (flag, path) to write lines to: None for a
    None path, stdout for "-", else the file at path, emptied. Every file
    is opened before any is emptied, so a path that cannot be written, or
    two outputs that are one regular file or both stdout, leave the
    others' contents as they were."""
    with contextlib.ExitStack() as stack:
        files, opened, seen = [], [], {}
        for flag, path in outputs:
            if path is None or path == "-":
                files.append(None if path is None else sys.stdout)
                key = path
            else:
                try:
                    f = stack.enter_context(open(path, "a", encoding="utf-8", newline="\n"))
                except (OSError, UnicodeEncodeError) as exc:
                    raise _cannot_write(path, exc) from None
                files.append(f)
                opened.append((path, f))
                st = os.fstat(f.fileno())
                # A device or pipe may take two streams; a regular file may not.
                key = (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None
            if key in seen:
                raise UsageError(f"{seen[key]} and {flag} {path} name the same file")
            if key is not None:
                seen[key] = f"{flag} {path}"
        # Appending starts at the end: a non-empty regular file is emptied;
        # pipes and devices are left alone, as opening with "w" would.
        for path, f in opened:
            try:
                if f.seekable() and f.tell():
                    f.truncate(0)
            except OSError as exc:
                raise _cannot_write(path, exc) from None
        yield files


def _load_model(path: str, scfg: SegmenterConfig):
    """The model at path, once its recipe's boost is known to keep every
    bond built from it finite."""
    with _reading(path, "model"):
        try:
            model = load_model(path)
        except ModelIOError as exc:
            raise DataError(f"cannot load model {path}: {exc}") from None
    try:
        check_boost(model, scfg.recipe)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    return model


def _build_recipe(args, cfg: dict):
    cls = _RECIPE_BY_NAME[args.recipe]
    kwargs = {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}
    # Check the config values on an empty vocabulary before any resource
    # file is read: a value out of range is a usage error, a bad file line
    # stays a data error.
    try:
        recipe = cls({}, **kwargs) if cls in _RESOURCES else cls(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if cls not in _RESOURCES:
        return recipe
    flag, load = _RESOURCES[cls]
    path = getattr(args, flag[2:].replace("-", "_"))
    if path is None:
        raise UsageError(f"--recipe {args.recipe} requires {flag} PATH")
    with _reading(path, flag[2:]):
        return load(path, **kwargs)


def _segmenter_config(args) -> SegmenterConfig:
    """The config, then the recipe, then the segmenter config of segment
    and sweep; flags beat the config file, which beats the defaults."""
    cfg = load_config(args.config)
    recipe = _build_recipe(args, cfg)
    if args.eig_cut is None:
        source, eig_cut = _cut_key(args.recipe), cfg[_cut_key(args.recipe)]
    else:
        source, eig_cut = "--eig-cut", args.eig_cut
    overrides = {"eig_cut": eig_cut}
    if args.form:
        overrides["form"] = LaplacianForm(args.form)
    try:
        return SegmenterConfig.for_recipe(recipe, **overrides)
    except ValueError as exc:
        # eig_cut's is the one refusal; name the config key or flag that set it.
        raise UsageError(str(exc).replace("eig_cut", source, 1)) from None


def _report_failed(errors) -> int:
    """Print each failed line's (line number, message) on stderr; the exit
    status is 1 if any line failed."""
    for lineno, msg in errors:
        print(f"line {lineno}: {msg}", file=sys.stderr)
    return 1 if errors else 0


def cmd_train(args) -> int:
    source = args.source
    if source is not None:
        try:
            source.encode("utf-8")  # as the model file stores it
        except UnicodeEncodeError:
            raise UsageError(f"--source must be encodable as UTF-8, got {source!r}") from None
    with _reading(args.input, "input"):
        if source is None:
            # The bytes of a file name that the file system could not decode
            # are lone surrogates here; the model's source holds U+FFFD instead.
            source = Path(args.input).name.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
        model = ingest_corpus(iter_corpus_lines(args.input), source=source)
    try:
        save_model(model, args.model)
    except (OSError, UnicodeEncodeError) as exc:
        raise _cannot_write(args.model, exc) from None
    uni, bi, tri = (len(model.of_order(order)[0]) for order in (1, 2, 3))
    print(f"trained on {model.line_count} lines: {uni} unigrams, {bi} bigrams, {tri} trigrams")
    return 0


def cmd_segment(args) -> int:
    scfg = _segmenter_config(args)
    model = _load_model(args.model, scfg)
    lines = _read_lines(args.input, "input")

    # The input is read, so --output may name it; both outputs are opened
    # before any line is segmented, so a bad path fails at once.
    errors = []
    output = "-" if args.output is None else args.output
    with _open_outputs(("--output", output), ("--dump-eigen", args.dump_eigen)) as (out, dump):
        for lineno, words, traces, error in trace_document(lines, model, scfg):
            out.write(" ".join(words[0]) + "\n")
            if error is not None:
                errors.append((lineno, error))
            if dump is not None:
                for trace in traces:
                    row = {"line": lineno, "n": len(trace.text), "k": trace.k}
                    row["eigenvalues"] = trace.eigenvalues.tolist()
                    dump.write(json.dumps(row) + "\n")
    return _report_failed(errors)


def cmd_eval(args) -> int:
    gold = [parse_segmented(line) for line in _read_lines(args.gold, "gold")]
    pred = [parse_segmented(line) for line in _read_lines(args.pred, "pred")]
    try:
        report = score_corpus(gold, pred)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    print(report.summary_line())
    return 0


def _parse_cuts(text: str) -> list[float]:
    try:
        cuts = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--cuts expects comma-separated numbers, got {text!r}") from None
    if not cuts or not all(0.0 < c < math.inf for c in cuts):
        raise UsageError("--cuts needs one or more values, all positive and finite")
    return sorted(set(cuts))


def cmd_sweep(args) -> int:
    scfg = _segmenter_config(args)
    cuts = _parse_cuts(args.cuts)
    model = _load_model(args.model, scfg)
    lines = _read_lines(args.input, "input")
    gold = None if args.gold is None else _read_lines(args.gold, "gold")
    if gold is not None and len(gold) != len(lines):
        raise DataError(f"gold has {len(gold)} lines but input has {len(lines)}")

    # Per cut: the sums of k and of words over the lines that segmented (empty
    # and failed lines have no traces and stay out of both means), then the
    # counts of gold, predicted and shared spans over every line, which F pools.
    totals = [[0] * 5 for _ in cuts]
    segmented, errors = 0, []
    for lineno, words, traces, error in trace_document(lines, model, scfg, cuts):
        segmented += bool(traces)
        for total, trace in zip(totals, traces):
            total[0] += trace.k
            total[1] += len(trace.words)
        if gold is not None:
            truth = parse_segmented(gold[lineno - 1])
            for total, cut_words in zip(totals, words):
                # Score what eval would read back from segment's output
                # line, which drops the whitespace tokens.
                try:
                    matches = count_matches(truth, parse_segmented(" ".join(cut_words)))
                except ValueError as exc:
                    raise DataError(f"line {lineno}: {exc}") from None
                total[2:] = [a + b for a, b in zip(total[2:], matches)]
        if error is not None:
            errors.append((lineno, error))

    header = ["eig_cut", "mean_k", "mean_words"]
    if gold is not None:
        header.append("F")
    rows = ["\t".join(header)]
    n = segmented or 1
    for cut, (k_sum, word_sum, *spans) in zip(cuts, totals):
        row = [f"{cut:g}", f"{k_sum / n:.3f}", f"{word_sum / n:.3f}"]
        if gold is not None:
            row.append(f"{EvalReport(*spans).f1:.4f}")
        rows.append("\t".join(row))
    print("\n".join(rows))
    return _report_failed(errors)


def cmd_synth(args) -> int:
    try:
        spec = SynthSpec(
            vocab_size=args.vocab_size,
            word_len=tuple(args.word_len),
            sentence_len=tuple(args.sentence_len),
            sentences=args.sentences,
            seed=args.seed,
        )
        lines, gold = generate_synthetic(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _open_outputs(("--lines", args.lines), ("--gold", args.gold)) as (lines_out, gold_out):
        lines_out.writelines(line + "\n" for line in lines)
        gold_out.writelines(" ".join(words) + "\n" for words in gold)
    return 0


def _add_recipe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--recipe", choices=tuple(_RECIPE_BY_NAME), default="ehr")
    p.add_argument("--lexicon", help="word<TAB>rank file (recipe: lexicon)")
    p.add_argument("--word-stats", help="word<TAB>count file (recipe: train-words)")
    p.add_argument("--eig-cut", type=float, help="granularity threshold override")
    forms = sorted(form.value for form in LaplacianForm)
    p.add_argument("--form", choices=forms, help="Laplacian form override")
    p.add_argument("--config", help="JSON config file (else $SEGSPECTRAL_CONFIG)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segspectral",
        description="Unsupervised Chinese word segmentation by spectral graph partitioning.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="count n-grams from raw text into a model file")
    p.add_argument("--input", required=True, help="UTF-8 text, one sentence per line")
    p.add_argument("--model", required=True, help="model file to write")
    p.add_argument("--source", help="corpus label stored in the model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment lines into space-delimited words")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="UTF-8 text, one sentence per line")
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--dump-eigen", help="also write per-line eigenvalues as JSON lines")
    _add_recipe_flags(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score a segmentation against a gold file")
    p.add_argument("--gold", required=True, help="space-delimited words per line")
    p.add_argument("--pred", required=True, help="space-delimited words per line")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="segment at several granularity thresholds")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--cuts", required=True, help="comma-separated thresholds")
    p.add_argument("--gold", help="gold file; adds an F column")
    _add_recipe_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="write a synthetic corpus with known boundaries")
    p.add_argument("--lines", required=True, help="raw sentence file to write")
    p.add_argument("--gold", required=True, help="gold segmentation file to write")
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--word-len", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--sentence-len", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--sentences", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth, **{f.name: f.default for f in fields(SynthSpec)})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout has gone. Python flushes stdout at exit, so
        # point it at devnull to keep that flush from failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (UsageError, DataError) as exc:
        # Escaped as the console's stderr escapes it, so that a message
        # naming a path the file system cannot encode prints on any stream.
        print(f"error: {exc}".encode("utf-8", "backslashreplace").decode("utf-8"), file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
