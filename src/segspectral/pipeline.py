"""End-to-end sentence segmentation.

One input line is one sentence. The pipeline builds the recipe's
connection matrix, takes the Laplacian's eigendecomposition, picks the
cluster count as the number of eigenvalues under the granularity
threshold, clusters the embedded rows into that many contiguous runs, and
splits the sentence between runs, so it yields k words that concatenate
back to the exact input. A last pass merges split-up digit runs and a
following unit character.

Everything up to the eigendecomposition depends on the recipe and the
Laplacian form, not on the threshold, and once k is chosen the embedding
and the split depend on nothing else. So a line is prepared once, and a
prepared sentence is embedded and clustered once per distinct k however
many thresholds it is segmented at; only the labels and words of each k
are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graph import ConnectionMatrix, EhrParams, Lexicon, WordStats, build_w_ehr, build_w_vocab
from .eigen import EigenConvergenceError, EigenDecomposition, eigh_symmetric
from .kmeans import kmeans_cluster
from .spectral import LaplacianForm, build_laplacian, choose_k, spectral_embed

Recipe = EhrParams | Lexicon | WordStats

# Words that merge during post-processing: digit runs, and digit runs
# followed by one date/time/percent unit character.
DIGIT_CHARS = frozenset("0123456789０１２３４５６７８９")
UNIT_CHARS = frozenset("年月日时分秒%％")

# What a line's data can raise anywhere in the pipeline. Callers that
# isolate failures per line catch exactly these; anything else is a bug.
DATA_ERRORS = (ValueError, EigenConvergenceError)

# Each recipe class's command-line name, and the Laplacian form and
# granularity threshold conventional for it. The recipe's own knobs are its
# dataclass fields.
RECIPES = {
    EhrParams: ("ehr", LaplacianForm.UNNORMALIZED, 0.15),
    Lexicon: ("lexicon", LaplacianForm.SYMMETRIC_NORMALIZED, 0.00035),
    WordStats: ("train-words", LaplacianForm.SYMMETRIC_NORMALIZED, 0.001),
}


@dataclass
class SegmenterConfig:
    recipe: Recipe
    form: LaplacianForm
    eig_cut: float

    def __post_init__(self):
        if not 0.0 < self.eig_cut < np.inf:
            raise ValueError(f"eig_cut must be positive and finite, got {self.eig_cut!r}")

    @classmethod
    def for_recipe(cls, recipe: Recipe, **overrides) -> "SegmenterConfig":
        """Config with the form and granularity threshold conventional for
        the recipe; pass overrides to depart from them."""
        _, form, eig_cut = RECIPES[type(recipe)]
        cfg = cls(recipe=recipe, form=form, eig_cut=eig_cut)
        return replace(cfg, **overrides) if overrides else cfg


def build_w(s: str, model, recipe: Recipe) -> ConnectionMatrix:
    if isinstance(recipe, EhrParams):
        return build_w_ehr(s, model, recipe)
    if isinstance(recipe, (Lexicon, WordStats)):
        return build_w_vocab(s, model, recipe)
    raise TypeError(f"unknown recipe type {type(recipe).__name__}")


def labels_to_words(s: str, labels) -> list[str]:
    """Split the sentence at every adjacent pair with different labels."""
    labels = np.asarray(labels)
    if labels.shape != (len(s),):
        raise ValueError(f"got {labels.size} labels for {len(s)} characters")
    bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(s)]
    return [s[start:end] for start, end in zip(bounds, bounds[1:])]


def _is_digit_run(word: str) -> bool:
    return DIGIT_CHARS.issuperset(word)


def postprocess_merge(words: list[str]) -> list[str]:
    """Concatenate split-up numbers and number-unit pairs.

    Adjacent all-digit words merge; an all-digit word followed by a single
    unit character merges with it. Idempotent, and never changes the
    concatenation of the list. A list with no digit is returned as it is,
    not copied.
    """
    if DIGIT_CHARS.isdisjoint("".join(words)):
        return words
    out: list[str] = []
    for word in words:
        if out and _is_digit_run(out[-1]):
            if _is_digit_run(word):
                out[-1] += word
                continue
            if len(word) == 1 and word in UNIT_CHARS:
                out[-1] += word
                continue
        out.append(word)
    return out


@dataclass
class PreparedSentence:
    """Recipe- and form-dependent, threshold-independent work for one
    sentence; sweeping granularities can reuse it.

    clustered holds the (labels, words) that segment_prepared computed for
    each k it was asked for, so thresholds that choose the same k share
    them. It lives as long as the prepared sentence, and holds at most one
    entry per distinct k of the line. The n×k embedding the labels were
    read from is not kept: spectral_embed(dec, k, form) gives it again.
    """

    text: str
    w: ConnectionMatrix
    dec: EigenDecomposition
    form: LaplacianForm
    clustered: dict[int, tuple[np.ndarray, list[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


@dataclass
class SentenceTrace:
    """Everything the pipeline decided for one sentence."""

    text: str
    w: ConnectionMatrix
    eigenvalues: np.ndarray
    k: int
    labels: np.ndarray
    words: list[str]


def prepare_sentence(s: str, model, cfg: SegmenterConfig) -> PreparedSentence:
    if len(s) == 0:
        raise ValueError("cannot segment an empty sentence")
    w = build_w(s, model, cfg.recipe)
    lap = build_laplacian(w, cfg.form)
    dec = eigh_symmetric(lap)
    # Every trace of the sentence shares these; choose_k and spectral_embed
    # read them.
    dec.values.flags.writeable = dec.stack.flags.writeable = False
    return PreparedSentence(text=s, w=w, dec=dec, form=cfg.form)


def segment_prepared(prep: PreparedSentence, cfg: SegmenterConfig) -> SentenceTrace:
    """Segment a prepared sentence at cfg.eig_cut.

    Only choose_k runs for a k the sentence has been segmented at before;
    for a new k the embedding is dropped once k-means has read it.
    Traces of one sentence share its eigenvalues, and traces of one k its
    labels; both are read-only, and each trace gets its own copy of the
    word list. cfg.form must be the form the sentence was prepared in: a
    mismatch is a caller's bug and raises RuntimeError, which is not a
    data error.
    """
    if cfg.form is not prep.form:
        raise RuntimeError(
            f"sentence prepared in the {prep.form.value} form, segmented in {cfg.form.value}"
        )
    k = choose_k(prep.dec.values, cfg.eig_cut)
    if k not in prep.clustered:
        labels = kmeans_cluster(spectral_embed(prep.dec, k, cfg.form), k)
        words = postprocess_merge(labels_to_words(prep.text, labels))
        labels.flags.writeable = False
        prep.clustered[k] = labels, words
    labels, words = prep.clustered[k]
    return SentenceTrace(
        text=prep.text,
        w=prep.w,
        eigenvalues=prep.dec.values,
        k=k,
        labels=labels,
        words=list(words),
    )


def segment_sentence(s: str, model, cfg: SegmenterConfig) -> list[str]:
    """Segment one sentence into words."""
    return segment_prepared(prepare_sentence(s, model, cfg), cfg).words


def trace_document(lines, model, cfg: SegmenterConfig, cuts=None):
    """Yield (line number, words, traces, error) for each line, in order.

    Each line is prepared once and segmented at every cut (cfg.eig_cut when
    cuts is None), giving one word list and one SentenceTrace per cut. An
    empty line gives [] per cut; a line that fails on its data (DATA_ERRORS)
    is passed through as [line] per cut with its error message. Neither has
    traces. Any other exception propagates.
    """
    cut_cfgs = [cfg] if cuts is None else [replace(cfg, eig_cut=cut) for cut in cuts]
    for lineno, line in enumerate(lines, 1):
        if line == "":
            yield lineno, [[] for _ in cut_cfgs], [], None
            continue
        try:
            prep = prepare_sentence(line, model, cfg)
            traces = [segment_prepared(prep, cut_cfg) for cut_cfg in cut_cfgs]
        except DATA_ERRORS as exc:
            yield lineno, [[line] for _ in cut_cfgs], [], str(exc)
            continue
        yield lineno, [trace.words for trace in traces], traces, None


def segment_document(
    lines, model, cfg: SegmenterConfig
) -> tuple[list[list[str]], list[tuple[int, str]]]:
    """Segment each line independently.

    Returns one word list per input line plus (line number, message) pairs
    for lines that failed on their data; see trace_document for how empty
    and failed lines are passed through.
    """
    results, errors = [], []
    for lineno, words, _, error in trace_document(lines, model, cfg):
        results.append(words[0])
        if error is not None:
            errors.append((lineno, error))
    return results, errors
