"""Spectral machinery on top of sentence connection matrices.

Builds graph Laplacians from band matrices, block by block, chooses a
cluster count from the small end of the spectrum, embeds nodes into the
corresponding eigenvector columns, and scores partitions with the two
classic cut objectives. A brute-force enumerator over contiguous
partitions serves as a ground-truth oracle at toy sizes.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

import numpy as np

from .eigen import BlockDiagonal, EigenDecomposition
from .graph import ConnectionMatrix

# Eigenvalues within this distance of 0 count as the zero eigenspace.
ZERO_EIG_TOL = 1e-9

# Contiguous-partition enumeration blows up combinatorially; keep it honest.
BRUTE_FORCE_MAX_N = 16


class LaplacianForm(Enum):
    UNNORMALIZED = "unnorm"
    SYMMETRIC_NORMALIZED = "sym"


class CutKind(Enum):
    RATIO = "ratio"
    NORMALIZED = "normalized"


def build_laplacian(w: ConnectionMatrix, form: LaplacianForm) -> BlockDiagonal:
    """Laplacian of the sentence graph, as blocks over contiguous runs.

    Unnormalized: degree matrix minus weights. Symmetric normalized:
    identity minus the degree-scaled weights; requires strictly positive
    degrees, which any builder-produced matrix has via its unit diagonal.

    A gap i|i+1 is cut when off1[i], off2[i-1] and off2[i] are all 0: no
    bond crosses it, so the Laplacian is block-diagonal over the runs
    between cut gaps. Each block's entries are written straight from the
    bands; no n×n matrix is built.
    """
    n = w.n
    deg = w.degrees()
    # rows[j, 2 + d] is the entry in row j and column j + d.
    rows = np.zeros((n, 5))
    if form is LaplacianForm.UNNORMALIZED:
        np.subtract(deg, w.diag, out=rows[:, 2])
        np.subtract(0.0, w.off1, out=rows[:-1, 3])
        np.subtract(0.0, w.off2, out=rows[:-2, 4])
    elif form is LaplacianForm.SYMMETRIC_NORMALIZED:
        if deg.min() <= 0.0:
            raise ValueError("normalized Laplacian needs positive degrees on every node")
        inv_sqrt = 1.0 / np.sqrt(deg)
        np.subtract(1.0, w.diag * (inv_sqrt * inv_sqrt), out=rows[:, 2])
        np.subtract(0.0, w.off1 * (inv_sqrt[:-1] * inv_sqrt[1:]), out=rows[:-1, 3])
        np.subtract(0.0, w.off2 * (inv_sqrt[:-2] * inv_sqrt[2:]), out=rows[:-2, 4])
    else:
        raise TypeError(f"unknown Laplacian form {form!r}")
    rows[1:, 1] = rows[:-1, 3]
    rows[2:, 0] = rows[:-2, 4]

    # cut[i]: no bond crosses the gap before node i; both ends count.
    cut = np.ones(n + 1, dtype=bool)
    np.equal(w.off1, 0.0, out=cut[1:-1])
    unbonded2 = w.off2 == 0.0
    cut[1:-2] &= unbonded2
    cut[2:-1] &= unbonded2
    edges = np.flatnonzero(cut)
    sizes = edges[1:] - edges[:-1]
    b, m = sizes.size, int(sizes.max())
    # Each block's rows get two spare columns on either side, so that
    # columns j - 2 .. j + 2 of row j never run into another row. Node j,
    # at offset r = j - f in block blk that starts at node f, has those
    # five entries at flat indices at[j] + 0 .. 4, where
    # at[j] = blk·m·(m + 4) + r·(m + 5).
    width = m + 4
    offset = edges[:-1] * -(width + 1)
    offset += np.arange(0, b * m * width, m * width)
    at = np.arange(0, n * (width + 1), width + 1) + np.repeat(offset, sizes)
    wide = np.zeros((b, m, width))
    wide.reshape(-1)[at[:, None] + np.arange(5)] = rows
    return BlockDiagonal(wide[:, :, 2 : m + 2], sizes)


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
    u = dec.columns(k)
    if form is LaplacianForm.SYMMETRIC_NORMALIZED:
        norms = np.sqrt(np.add.reduce(u * u, axis=1, keepdims=True))
        np.divide(u, norms, out=u, where=norms > 0.0)
    return u


def zero_eig_multiplicity(dec: EigenDecomposition, tol: float = ZERO_EIG_TOL) -> int:
    """How many eigenvalues are numerically zero."""
    return int(np.count_nonzero(np.abs(dec.values) <= tol))


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


def indicator_span_residual(
    dec: EigenDecomposition,
    components,
    form: LaplacianForm,
    degrees: np.ndarray | None = None,
    tol: float = ZERO_EIG_TOL,
) -> float:
    """Frobenius distance between two projectors: onto the span of the
    (degree-scaled, for the normalized form) component indicator vectors,
    and onto the numerically-zero eigenspace.

    A value near 0 certifies that the zero eigenspace is exactly the
    indicator span, i.e. the component structure is fully recoverable from
    the low eigenvectors.
    """
    n = dec.n
    parts = _check_partition(components, n)
    if form is LaplacianForm.SYMMETRIC_NORMALIZED:
        if degrees is None:
            raise ValueError("degrees are required for the normalized form")
        scale = np.sqrt(np.asarray(degrees, dtype=float))
    else:
        scale = np.ones(n)
    basis = np.zeros((n, len(parts)))
    for j, idx in enumerate(parts):
        basis[idx, j] = scale[idx]
        norm = np.linalg.norm(basis[:, j])
        if norm == 0.0:
            raise ValueError("component indicator has zero norm")
        basis[:, j] /= norm
    # Disjoint supports make the columns orthonormal already.
    p_span = basis @ basis.T
    # Values ascend, so the zero ones are among the first that are <= tol.
    below = int(np.count_nonzero(dec.values <= tol))
    zero_vecs = dec.columns(below)[:, np.abs(dec.values[:below]) <= tol]
    p_eig = zero_vecs @ zero_vecs.T
    return float(np.linalg.norm(p_span - p_eig, ord="fro"))


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


def contiguous_partitions(n: int, k: int):
    """Yield every split of range(n) into k consecutive nonempty parts."""
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        yield [list(range(bounds[i], bounds[i + 1])) for i in range(k)]


def brute_force_best_contiguous(
    w: ConnectionMatrix, k: int, kind: CutKind
) -> tuple[list[list[int]], float]:
    """Exhaustive minimizer of the cut objective over contiguous k-part
    splits. Ties go to the earliest boundary set in lexicographic order."""
    n = w.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"n={n} exceeds enumeration guard {BRUTE_FORCE_MAX_N}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    best_parts: list[list[int]] | None = None
    best_value = np.inf
    for parts in contiguous_partitions(n, k):
        value = cut_objective(w, parts, kind)
        if value < best_value:
            best_value = value
            best_parts = parts
    assert best_parts is not None
    return best_parts, float(best_value)
