"""Spectral machinery on top of sentence connection matrices.

Builds graph Laplacians as their lower bands (3n entries; eigen finds
and solves the blocks), chooses a cluster count from the small end of
the spectrum, embeds nodes into the corresponding eigenvector columns,
and scores partitions with the two classic cut objectives.

The embedding comes in two shapes with the same rows: spectral_embed
builds the n×k matrix, for inspection, and embed_blocks leaves the rows in
the eigensolver's blocks, as k-means reads them; a block's rows are
non-zero only in the columns of its own eigenpairs.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .eigen import EigenDecomposition, SymmetricBands
from .graph import ConnectionMatrix
from .kmeans import BlockRows

# Eigenvalues within this distance of 0 count as the zero eigenspace.
ZERO_EIG_TOL = 1e-9


class LaplacianForm(Enum):
    UNNORMALIZED = "unnorm"
    SYMMETRIC_NORMALIZED = "sym"


class CutKind(Enum):
    RATIO = "ratio"
    NORMALIZED = "normalized"


def build_laplacian(w: ConnectionMatrix, form: LaplacianForm) -> SymmetricBands:
    """Laplacian of the sentence graph, by its lower bands.

    Unnormalized: degree matrix minus weights. Symmetric normalized:
    identity minus the degree-scaled weights; requires strictly positive
    degrees, which any builder-produced matrix has via its unit diagonal.
    Each band is written once, straight from w's; eigh_symmetric finds
    the blocks.
    """
    n = w.n
    deg = w.degrees()
    lower = np.zeros((n, 3))
    if form is LaplacianForm.UNNORMALIZED:
        np.subtract(deg, w.diag, out=lower[:, 2])
        np.subtract(0.0, w.off1, out=lower[1:, 1])
        np.subtract(0.0, w.off2, out=lower[2:, 0])
    elif form is LaplacianForm.SYMMETRIC_NORMALIZED:
        if deg.min() <= 0.0:
            raise ValueError("normalized Laplacian needs positive degrees on every node")
        inv_sqrt = 1.0 / np.sqrt(deg)
        np.subtract(1.0, w.diag * (inv_sqrt * inv_sqrt), out=lower[:, 2])
        np.subtract(0.0, w.off1 * (inv_sqrt[:-1] * inv_sqrt[1:]), out=lower[1:, 1])
        np.subtract(0.0, w.off2 * (inv_sqrt[:-2] * inv_sqrt[2:]), out=lower[2:, 0])
    else:
        raise TypeError(f"unknown Laplacian form {form!r}")
    return SymmetricBands(lower)


def choose_k(values: np.ndarray, eig_cut: float) -> int:
    """Number of eigenvalues at or below the granularity threshold, min 1."""
    if not 0.0 < eig_cut < np.inf:
        raise ValueError(f"eig_cut must be positive and finite, got {eig_cut!r}")
    return max(1, int(np.count_nonzero(np.asarray(values) <= eig_cut)))


def spectral_embed(dec: EigenDecomposition, k: int, form: LaplacianForm) -> np.ndarray:
    """First k eigenvector columns, one row per graph node; rows
    unit-normalized under the symmetric normalized form (all-zero rows are
    left alone)."""
    if not 1 <= k <= dec.n:
        raise ValueError(f"k={k} out of range for n={dec.n}")
    return _normalized(dec.columns(k), form)


def embed_blocks(dec: EigenDecomposition, k: int, form: LaplacianForm) -> BlockRows:
    """The rows of spectral_embed(dec, k, form), left in the blocks of the
    eigendecomposition: b·m·max k_B entries, where k_B is how many of the
    first k eigenpairs are block B's, instead of n·k."""
    if not 1 <= k <= dec.n:
        raise ValueError(f"k={k} out of range for n={dec.n}")
    return BlockRows(_normalized(dec.leading(k), form), dec.row)


def _normalized(u: np.ndarray, form: LaplacianForm) -> np.ndarray:
    """u, its rows (along the last axis) unit-normalized in place under
    the symmetric normalized form; all-zero rows are left alone."""
    if form is LaplacianForm.SYMMETRIC_NORMALIZED:
        norms = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))
        np.divide(u, norms, out=u, where=norms > 0.0)
    return u


def zero_eig_multiplicity(dec: EigenDecomposition) -> int:
    """How many eigenvalues are numerically zero: within ZERO_EIG_TOL of 0."""
    return int(np.count_nonzero(np.abs(dec.values) <= ZERO_EIG_TOL))


def _check_partition(parts, n: int) -> list[np.ndarray]:
    arrs = []
    seen: set[int] = set()
    total = 0
    for part in parts:
        idx = np.asarray(sorted(part))
        if idx.size == 0:
            raise ValueError("partition contains an empty part")
        # Converting to int would truncate 1.4 to node 1.
        if idx.dtype.kind not in "iu":
            raise ValueError(f"partition indices must be integers, got {idx.dtype}")
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"partition index out of range [0, {n})")
        total += idx.size
        seen.update(int(i) for i in idx)
        arrs.append(idx)
    if total != n or len(seen) != n:
        raise ValueError("parts must cover all nodes exactly once")
    return arrs


def cut_objective(w: ConnectionMatrix, partition, kind: CutKind) -> float:
    """Ratio-cut or normalized-cut value of a partition.

    Each part contributes its total boundary weight divided by its size
    (ratio) or its volume, the summed degrees of its nodes (normalized).
    Parts need not be contiguous. Each bond of the two off-diagonal bands
    whose ends lie in different parts adds its weight to both parts'
    boundaries; no n×n matrix is built.
    """
    parts = _check_partition(partition, w.n)
    label = np.empty(w.n, dtype=int)
    for j, idx in enumerate(parts):
        label[idx] = j
    boundary = np.zeros(len(parts))
    for d, band in ((1, w.off1), (2, w.off2)):
        left, right = label[:-d], label[d:]
        crossing = left != right
        np.add.at(boundary, left[crossing], band[crossing])
        np.add.at(boundary, right[crossing], band[crossing])
    if kind is CutKind.RATIO:
        divisor = np.bincount(label)
    elif kind is CutKind.NORMALIZED:
        divisor = np.bincount(label, w.degrees())
    else:
        raise ValueError(f"unknown cut kind {kind!r}")
    # Zero volume forces zero boundary (weights are nonnegative), so that
    # term's limit is 0.
    terms = np.divide(boundary, divisor, out=np.zeros(len(parts)), where=divisor > 0)
    return float(terms.sum())
