#!/usr/bin/env python3
"""Benchmark for segspectral.

    python3 bench/run.py --workload segment-short --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. Each run generates a seeded synthetic
corpus, trains a model on it and saves it, times loading the model and
the recipe resources back from disk, and segments lines in a closed loop
(one caller, one process) for about --seconds of wall time. It checks
every output and prints one JSON object as the last line of standard
output: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1. Lines starting with "info" before it record
the machine, the latency percentile used, the machine-speed scale and the
unscaled figures. Timings are process CPU time scaled to a nominal
machine speed (see reference.py). bench/README.md explains the workloads
and metrics.
"""

import os

# Pin the BLAS pool before numpy is imported: the loop has one caller and
# its matrices are small, so extra BLAS threads only add contention.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Tracer, clock  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str  # "ehr" or "lexicon"
    cuts: tuple[float, ...]  # one eig_cut, or a sweep grid
    vocab_size: int
    train_len: tuple[int, int]  # words per training sentence
    train_lines: int
    timed_len: tuple[int, int] | None  # None: time the training lines
    timed_lines: int
    f_lines: int  # F is scored on this many timed lines
    f_floor: float
    tail_pct: float  # nominal latency tail percentile
    mixed_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        # Short lines at the ehr default cut, where F is not saturated:
        # per-line fixed costs and the eigensolver dominate.
        Workload(
            "segment-short", "ehr", (0.15,), 200, (5, 20), 2000, None, 2000,
            f_lines=1200, f_floor=0.93, tail_pct=99.0,
        ),
        # 150-250 character lines at cut 1.5 (k about 60): the cubic
        # stages dominate and graph building is a few percent.
        Workload(
            "segment-long", "ehr", (1.5,), 200, (5, 20), 2000, (50, 80), 400,
            f_lines=96, f_floor=0.98, tail_pct=90.0,
        ),
        # Mixed text, lexicon recipe (sym form), each line prepared once
        # and clustered at every cut of a grid around the recipe default.
        Workload(
            "sweep-lexicon", "lexicon",
            (0.0001, 0.00015, 0.00025, 0.00035, 0.0005, 0.001),
            200, (5, 20), 2000, None, 2000,
            f_lines=800, f_floor=0.82, tail_pct=99.0, mixed_rate=0.15,
        ),
    )
}

# A run is ROUNDS rounds of: train and save the model TRAIN_REPEATS
# times, load it and the recipe resources back SETUP_REPEATS times, then
# one slice of the timed loop. Spreading the repeats over the run makes
# their medians sample the same machine conditions as the loop.
ROUNDS = 5
TRAIN_REPEATS = 2
SETUP_REPEATS = 4

# The loop is scaled to the nominal machine speed in chunks this long,
# rounded up to whole blocks.
CHUNK_S = 1.0

# CPU time spent in the reference kernel, as a share of the CPU time of
# the work it scales: after each line of the loop, and split between
# before and after each timed train or setup repeat. A repeat is one
# short sample, so its kernel runs longer and on both sides.
REF_SHARE_LOOP = 0.1
REF_SHARE_OP = 1.0

E2E_UNITS = {
    "lines_per_s": "1/s",
    "chars_per_s": "1/s",
    "line_ms_p50": "ms",
    "line_ms_tail": "ms",
    "F": "1",
    "setup_s": "s",
    "train_chars_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span names whose self time makes up each per-line layer metric; "line"
# is the parent span the benchmark opens around each input line.
LAYER_SPANS = {
    "graph.build_w_s": ("build_w",),
    "spectral.laplacian_s": ("build_laplacian",),
    "eigen.eigh_s": ("eigh_symmetric",),
    "spectral.embed_s": ("choose_k", "spectral_embed"),
    "kmeans.kmeans_s": ("kmeans_cluster",),
    "pipeline.words_s": ("labels_to_words", "postprocess_merge"),
    "pipeline.self_s": ("line",),
}

LAYER_UNITS = {
    **{name: "s/line" for name in LAYER_SPANS},
    "pipeline.line_s": "s/line",
    "eigen.calls": "1/line",
    "eigen.n3_sum": "1/line",
    "kmeans.calls": "1/line",
    "kmeans.nk2_sum": "1/line",
    "graph.calls": "1/line",
    "spectral.k_mean": "count",
    "spectral.zero_mult_mean": "count",
    "ngram.ingest_s": "s",
    "ngram.keys": "count",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.bytes": "B",
    "evaluation.score_s": "s",
    "trace.overhead": "ratio",
}


def import_package():
    """The segspectral package of this checkout, never an installed copy."""
    init = SRC / "segspectral" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a segspectral checkout")
    sys.path.insert(0, str(SRC))
    import segspectral

    if Path(segspectral.__file__).resolve() != init:
        raise SystemExit(f"error: imported {segspectral.__file__}, expected {init}")
    return segspectral


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Checks:
    """Correctness failures of a run; any one makes it incorrect."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


@dataclass
class Window:
    """What the closed loop over the timed lines produced."""

    keep: int  # outputs are kept for the first keep lines, for scoring
    ncuts: int
    latencies: list[float] = field(default_factory=list)  # CPU seconds, unscaled
    factors: list[float] = field(default_factory=list)  # machine-speed scale, per closed line
    outputs: list[list[list[str]]] = field(default_factory=list)  # per kept line, per cut
    chars: int = 0
    failed: int = 0
    misspelled: int = 0
    chunk_factors: list[float] = field(default_factory=list)

    @property
    def lines(self) -> int:
        return len(self.latencies)

    def add(self, line: str, words: list[list[str]], bad: int, seconds: float, checks: Checks) -> None:
        """Record one line; words must hold one output per cut (for a
        single cut, one output line per input line), each spelling line."""
        if len(words) != self.ncuts or any("".join(w) != line for w in words):
            checks.fail(f"output does not spell the line {line!r}: {words!r}")
            self.misspelled += 1
        if self.lines < self.keep:
            self.outputs.append(words)
        self.latencies.append(seconds)
        self.chars += len(line)
        self.failed += bad

    def close_chunk(self, factor: float) -> None:
        """Scale the CPU time of the lines added since the last chunk by
        factor."""
        self.chunk_factors.append(factor)
        self.factors.extend([factor] * (self.lines - len(self.factors)))

    def scaled_latencies(self) -> np.ndarray:
        return np.asarray(self.latencies) * np.asarray(self.factors)


def timed(ref: Reference, fn, last: float):
    """(fn(), its CPU seconds, the machine-speed scale around it). The
    reference kernel runs for REF_SHARE_OP / 2 of fn's time on either
    side; last, fn's time on the previous call, sizes the side before."""
    ref.run(REF_SHARE_OP / 2 * last)
    t0 = clock()
    result = fn()
    t = clock() - t0
    ref.run(REF_SHARE_OP / 2 * t)
    return result, t, ref.take()


def segment_line(api, line: str, model, cfgs) -> tuple[list[list[str]], int]:
    """One word list per cut for line, and 1 if the line failed."""
    if len(cfgs) == 1:
        results, errors = api.segment_document([line], model, cfgs[0])
        return results, len(errors)
    try:
        prep = api.prepare_sentence(line, model, cfgs[0])
    except Exception:  # noqa: BLE001 - per-line isolation, as the sweep command does
        return [[line]] * len(cfgs), 1
    return [api.segment_prepared(prep, cfg).words for cfg in cfgs], 0


def run_slice(api, lines, model, cfgs, i, seconds, min_lines, checks, ref, plain, traced=None, tracer=None) -> int:
    """Closed loop with one caller over lines from index i, wrapping
    around, until seconds have passed and at least min_lines lines have
    been done in all, at a block boundary. Returns the next index.

    The reference kernel ref runs after every line; each chunk of the
    loop is scaled by the factor it measured during that chunk.

    With a tracer every line runs twice, untraced into plain and traced
    (as one parent span) into traced, in an order that alternates by
    block, so both windows cover the same lines under the same conditions.
    """
    windows = [w for w in (plain, traced) if w is not None]
    start = chunk_start = perf_counter()
    while True:
        line = lines[i % len(lines)]
        line_start = clock()
        passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        if (i // corpus.BLOCK) % 2:
            passes.reverse()
        outputs = []
        for window, tr in passes:
            if tr:
                tr.install()
            span = tr.span("line", trace=i) if tr else contextlib.nullcontext()
            t0 = clock()
            with span:
                words, bad = segment_line(api, line, model, cfgs)
            window.add(line, words, bad, clock() - t0, checks)
            if tr:
                tr.uninstall()
            outputs.append(words)
        if outputs[0] != outputs[-1]:
            checks.fail(f"traced words differ from untraced words on {line!r}")
        ref.run(REF_SHARE_LOOP * (clock() - line_start))
        i += 1
        if i % corpus.BLOCK:
            continue
        now = perf_counter()
        done = i >= min_lines and now - start >= seconds
        if done or now - chunk_start >= CHUNK_S:
            factor = ref.take()
            for window in windows:
                window.close_chunk(factor)
            chunk_start = now
        if done:
            return i


def score(api, gold, window: Window) -> float:
    """F of the kept lines against gold, averaged over the cuts."""
    outs = window.outputs
    return statistics.fmean(api.score_corpus(gold[: len(outs)], [o[c] for o in outs]).f1 for c in range(window.ncuts))


def tail_percentile(nominal: float, samples: int) -> float:
    """nominal, or the highest percentile with at least 10 samples beyond it."""
    if samples * (1.0 - nominal / 100.0) >= 10:
        return nominal
    return max(0.0, math.floor(1000.0 * (1.0 - 10.0 / samples)) / 10.0)


def write_lexicon(gold, path: Path) -> None:
    """word<TAB>rank from gold word counts, rank 1 the most frequent."""
    counts = Counter(w for words in gold for w in words)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    path.write_text("".join(f"{w}\t{r}\n" for r, (w, _) in enumerate(ranked, 1)), encoding="utf-8")


def make_configs(api, wl: Workload, lexicon_path: Path):
    if wl.recipe == "lexicon":
        base = api.SegmenterConfig.for_recipe(api.load_lexicon(lexicon_path))
    else:
        base = api.SegmenterConfig.for_recipe(api.EhrParams())
    return [replace(base, eig_cut=cut) for cut in wl.cuts]


def make_tracer(api) -> Tracer:
    """Spans at every name pipeline.py calls at module level, plus the
    train, load and scoring entry points the benchmark calls."""
    p = api.pipeline
    tracer = Tracer()
    tracer.wrap(p, "build_w", "build_w")
    tracer.wrap(p, "build_laplacian", "build_laplacian")
    tracer.wrap(
        p, "eigh_symmetric", "eigh_symmetric",
        lambda args, dec: {"n": dec.n, "zero_mult": api.zero_eig_multiplicity(dec)},
    )
    tracer.wrap(p, "choose_k", "choose_k", lambda args, k: {"k": k})
    tracer.wrap(p, "spectral_embed", "spectral_embed")
    tracer.wrap(
        p, "kmeans_cluster", "kmeans_cluster",
        lambda args, labels: {"n": len(labels), "k": args[1]},
    )
    tracer.wrap(p, "labels_to_words", "labels_to_words")
    tracer.wrap(p, "postprocess_merge", "postprocess_merge")
    tracer.wrap(
        api, "ingest_corpus", "ingest_corpus",
        lambda args, m: {"keys": len(m.uni) + len(m.bi) + len(m.tri)},
    )
    tracer.wrap(api, "save_model", "save_model", lambda args, _: {"bytes": Path(args[1]).stat().st_size})
    tracer.wrap(api, "load_model", "load_model")
    tracer.wrap(api, "score_corpus", "score_corpus")
    return tracer


def layer_metrics(tracer: Tracer, factor: float) -> dict[str, float]:
    """Per-line figures of the traced loop, plus per-call medians of the
    train, load and scoring spans; times are scaled by factor."""
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s.name == name]

    lines = named("line")
    per_line = 1.0 / len(lines)
    self_s = tracer.self_seconds()
    scale = factor * per_line
    out = {name: scale * sum(self_s[n] for n in names) for name, names in LAYER_SPANS.items()}
    out["pipeline.line_s"] = scale * sum(s.duration for s in lines)
    eigh, km = named("eigh_symmetric"), named("kmeans_cluster")
    out["eigen.calls"] = per_line * len(eigh)
    out["eigen.n3_sum"] = per_line * sum(s.attrs["n"] ** 3 for s in eigh)
    out["kmeans.calls"] = per_line * len(km)
    out["kmeans.nk2_sum"] = per_line * sum(s.attrs["n"] * s.attrs["k"] ** 2 for s in km)
    out["graph.calls"] = per_line * len(named("build_w"))
    out["spectral.k_mean"] = statistics.fmean(s.attrs["k"] for s in named("choose_k"))
    out["spectral.zero_mult_mean"] = statistics.fmean(s.attrs["zero_mult"] for s in eigh)
    ingest, save = named("ingest_corpus"), named("save_model")
    out["ngram.ingest_s"] = factor * statistics.median(s.duration for s in ingest)
    out["ngram.keys"] = ingest[-1].attrs["keys"]
    out["model_io.save_s"] = factor * statistics.median(s.duration for s in save)
    out["model_io.load_s"] = factor * statistics.median(s.duration for s in named("load_model"))
    out["model_io.bytes"] = save[-1].attrs["bytes"]
    out["evaluation.score_s"] = factor * statistics.median([s.duration for s in named("score_corpus")] or [0.0])
    return out


def run_workload(api, wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path, outdir: Path):
    """Run one workload in ROUNDS rounds; returns (result object, info dict)."""
    checks = Checks()
    rng = random.Random(seed)
    special = api.WEAKEN_SET_1 + api.WEAKEN_SET_2 + api.SINGLE_CHAR_WORDS
    vocab = corpus.make_vocab(rng, wl.vocab_size, (2, 4), corpus.reserved_chars(special))
    train_gold = corpus.make_sentences(rng, vocab, wl.train_len, wl.train_lines, wl.mixed_rate)
    if wl.timed_len is None:
        gold = train_gold[: wl.timed_lines]
    else:
        gold = corpus.make_sentences(rng, vocab, wl.timed_len, wl.timed_lines, wl.mixed_rate)
    train_text = ["".join(words) for words in train_gold]
    lines = ["".join(words) for words in gold]

    tracer = make_tracer(api) if trace else None
    plain = Window(wl.f_lines, len(wl.cuts))
    traced = Window(wl.f_lines, len(wl.cuts)) if trace else None
    ref = Reference()
    train_s, setup_s = [], []  # (CPU seconds, machine-speed scale)
    i = 0
    workdir.mkdir(parents=True, exist_ok=True)
    model_path = workdir / "model.bin"
    lexicon_path = workdir / "lexicon.tsv"

    def train():
        m = api.ingest_corpus(train_text, source="bench")
        api.save_model(m, model_path)
        return m

    def setup():
        return api.load_model(model_path), make_configs(api, wl, lexicon_path)

    try:
        if wl.recipe == "lexicon":
            write_lexicon(train_gold, lexicon_path)
        for r in range(ROUNDS):
            if tracer:
                tracer.install()
            model = None
            for _ in range(TRAIN_REPEATS):
                trained = None  # free the previous model first
                trained, t, f = timed(ref, train, train_s[-1][0] if train_s else 0.0)
                train_s.append((t, f))
            for _ in range(SETUP_REPEATS):
                model = None
                (model, cfgs), t, f = timed(ref, setup, setup_s[-1][0] if setup_s else 0.0)
                setup_s.append((t, f))
                checks.require(model == trained, "load_model(save_model(m)) != m")
            trained = None
            if tracer:
                tracer.uninstall()
            if r == 0:  # warm-up: lazily built tables and first-call costs
                for line in lines[: corpus.BLOCK]:
                    segment_line(api, line, model, cfgs)
            min_lines = wl.f_lines if r == ROUNDS - 1 else 0
            i = run_slice(
                api, lines, model, cfgs, i, seconds / ROUNDS, min_lines,
                checks, ref, plain, traced, tracer,
            )
        model = None
        if tracer:
            tracer.install()
        window = traced or plain
        # Scoring needs outputs that spell their lines; a run that failed
        # that check is already incorrect.
        f1 = 0.0 if window.misspelled else score(api, gold, window)
        checks.require(f1 >= wl.f_floor, f"F {f1:.4f} below the floor {wl.f_floor}")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    pct = tail_percentile(wl.tail_pct, len(window.latencies))
    lat_ms = window.scaled_latencies() * 1000.0
    busy = math.fsum(lat_ms) / 1000.0
    factor = statistics.median(window.chunk_factors)
    train_chars = sum(map(len, train_text))
    if trace:
        values = layer_metrics(tracer, factor)
        values["trace.overhead"] = math.fsum(plain.latencies) / math.fsum(traced.latencies)
        units = LAYER_UNITS
        outdir.mkdir(parents=True, exist_ok=True)
        tracer.write(outdir / f"spans-{wl.name}-seed{seed}.jsonl")
    else:
        values = {
            "lines_per_s": window.lines / busy,
            "chars_per_s": window.chars / busy,
            "line_ms_p50": float(np.median(lat_ms)),
            "line_ms_tail": float(np.percentile(lat_ms, pct)),
            "F": f1,
            "setup_s": statistics.median(t * f for t, f in setup_s),
            "train_chars_per_s": statistics.median(train_chars / (t * f) for t, f in train_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    result = {
        "correct": not checks.failures,
        "attempted": window.lines,
        "failed": window.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    raw_ms = np.asarray(window.latencies) * 1000.0
    info = {
        "latency": {"tail_pct": pct, "samples": len(window.latencies)},
        "scale": {"median": factor, "min": min(window.chunk_factors), "max": max(window.chunk_factors)},
        "unscaled": {
            "lines_per_s": window.lines / math.fsum(window.latencies),
            "line_ms_p50": float(np.median(raw_ms)),
            "line_ms_tail": float(np.percentile(raw_ms, pct)),
            "setup_s": statistics.median(t for t, _ in setup_s),
            "train_chars_per_s": statistics.median(train_chars / t for t, _ in train_s),
        },
        "failures": checks.failures[:10],
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    api = import_package()
    print("info machine " + json.dumps(machine_info()), flush=True)
    wl = WORKLOADS[args.workload]
    result, info = run_workload(
        api, wl, args.seed, args.seconds, bool(args.trace),
        workdir=ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}",
        outdir=ROOT / ".bench_out",
    )
    for key in ("latency", "scale", "unscaled"):
        print(f"info {key} " + json.dumps(info[key]))
    for failure in info["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
