"""Unsupervised Chinese word segmentation by spectral graph partitioning.

A sentence becomes a weighted path-shaped graph over its characters, with
bond strengths from character n-gram statistics; words are the clusters a
spectral partition of that graph finds.

The names below are the package's public surface. Everything else lives
in its module (graph, spectral, eigen, kmeans, pipeline, evaluation,
ngram, model_io, chars) for the package's own use.
"""

from .ngram import CorpusEncodingError, NGramModel, ingest_corpus
from .model_io import (
    ModelChecksumError,
    ModelFormatError,
    ModelIOError,
    ModelTruncatedError,
    ModelVersionError,
    load_model,
    save_model,
)
from .graph import (
    SINGLE_CHAR_WORDS,
    WEAKEN_SET_1,
    WEAKEN_SET_2,
    ConnectionMatrix,
    EhrParams,
    Lexicon,
    WordStats,
    load_lexicon,
    load_word_stats,
)
from .eigen import EigenConvergenceError, EigenDecomposition, eigh_symmetric
from .kmeans import kmeans_cluster
from .spectral import (
    CutKind,
    LaplacianForm,
    build_laplacian,
    choose_k,
    cut_objective,
    spectral_embed,
    zero_eig_multiplicity,
)
from .pipeline import (
    SegmenterConfig,
    SentenceTrace,
    prepare_sentence,
    segment_document,
    segment_prepared,
    segment_sentence,
    trace_document,
)
from .evaluation import EvalReport, SynthSpec, generate_synthetic, score_corpus

__version__ = "0.1.0"

__all__ = [
    "CorpusEncodingError",
    "NGramModel",
    "ingest_corpus",
    "ModelChecksumError",
    "ModelFormatError",
    "ModelIOError",
    "ModelTruncatedError",
    "ModelVersionError",
    "load_model",
    "save_model",
    "SINGLE_CHAR_WORDS",
    "WEAKEN_SET_1",
    "WEAKEN_SET_2",
    "ConnectionMatrix",
    "EhrParams",
    "Lexicon",
    "WordStats",
    "load_lexicon",
    "load_word_stats",
    "EigenConvergenceError",
    "EigenDecomposition",
    "eigh_symmetric",
    "kmeans_cluster",
    "CutKind",
    "LaplacianForm",
    "build_laplacian",
    "choose_k",
    "cut_objective",
    "spectral_embed",
    "zero_eig_multiplicity",
    "SegmenterConfig",
    "SentenceTrace",
    "prepare_sentence",
    "segment_document",
    "segment_prepared",
    "segment_sentence",
    "trace_document",
    "EvalReport",
    "SynthSpec",
    "generate_synthetic",
    "score_corpus",
    "__version__",
]
