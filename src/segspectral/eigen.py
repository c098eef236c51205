"""Symmetric eigendecomposition of block-diagonal matrices.

A sentence graph falls apart wherever no bond crosses a gap between two
characters, and its Laplacian is then block-diagonal over contiguous runs
of nodes. The blocks' eigenpairs are exactly the whole matrix's, so the
blocks, zero-padded to the largest block size m, go through one batched
call of LAPACK's symmetric eigensolver (numpy.linalg.eigh over a
(b, m, m) stack). That solves b padded m×m matrices, about b·m³ work
instead of n³, and holds b·m² matrix entries instead of n². Padding
makes it more than the sum of the cubed block sizes: on 150-250
character lines of short words that sum is about 3,700 a line and b·m³
about 43,000. One stack per block size was measured slower there, as
each costs a call of its own. A dense matrix is the one-block case.
Results are deterministic for a given numpy/LAPACK build; within a
degenerate eigenspace the basis is whatever that build's LAPACK returns.

Output convention: eigenvalues ascending (equal ones in block order).
The eigenvectors stay in the (b, m, m) stack the solve returns, one
column per eigenpair of a block, signed as LAPACK returned it: an
eigenvector is defined only up to sign, and no k, label or word depends on
it. Each eigenpair records its block and column, and each block row its
row of the line, so the first k eigenvectors are gathered as an n×k
matrix on demand; no n×n eigenvector matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance for accepting the input as symmetric.
SYMMETRY_TOL = 1e-12


class EigenConvergenceError(RuntimeError):
    """LAPACK failed to converge on the eigendecomposition."""


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvectors, kept in their
    blocks. Eigenpair i is values[i] with column column[i] of
    stack[block[i]], whose row r is row rows[block[i], r] of the line;
    padding rows have row n."""

    values: np.ndarray  # (n,)
    stack: np.ndarray  # (b, m, m)
    rows: np.ndarray  # (b, m)
    block: np.ndarray  # (n,)
    column: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.values.size

    def columns(self, k: int) -> np.ndarray:
        """The first k eigenvectors as the columns of a new n×k matrix."""
        if not 0 <= k <= self.n:
            raise ValueError(f"k={k} out of range for n={self.n}")
        block = self.block[:k]
        gathered = self.stack[block, :, self.column[:k]]  # (k, m)
        # Row n is where the padding rows land; it is dropped.
        out = np.zeros((self.n + 1, k))
        out[self.rows.take(block, axis=0), np.arange(k)[:, None]] = gathered
        return out[: self.n]


@dataclass
class BlockDiagonal:
    """An n×n block-diagonal matrix whose diagonal blocks cover contiguous
    runs of rows, in order. Block j is blocks[j, :sizes[j], :sizes[j]];
    the rest of blocks[j] is zero padding."""

    blocks: np.ndarray  # (b, m, m), m the largest block size
    sizes: np.ndarray  # (b,), summing to n


def eigh_symmetric(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, given dense or as a
    BlockDiagonal.

    Raises ValueError when the input is not square, not finite, or not
    symmetric within SYMMETRY_TOL, and EigenConvergenceError when LAPACK
    does not converge (essentially unreachable for well-scaled input).
    """
    if not isinstance(a, BlockDiagonal):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("expected at least a 1x1 matrix")
        a = BlockDiagonal(a[None], np.array([a.shape[0]]))
    stack, sizes = a.blocks, a.sizes
    b, m, _ = stack.shape
    flipped = stack.swapaxes(1, 2)
    sym = stack + flipped
    sym *= 0.5
    # m times the largest entry bounds every row's absolute sum, and so
    # every block's Gershgorin bound; it is finite only if every entry is.
    bound = np.abs(sym).max() * m
    if not bound < np.inf:
        raise ValueError("matrix entries must be finite")
    if m > 1:
        asym = np.abs(stack - flipped).max()
        if asym > SYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric: max|a - a^T| = {asym:g}")
    # A padding diagonal above the bound puts the padding's eigenvalues
    # last, so each block's own come first.
    pad = np.arange(m) >= sizes[:, None]
    sym.reshape(b, m * m)[:, :: m + 1][pad] = 2.0 * bound + 1.0
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc

    # Eigenpairs are numbered block by block, and block rows row by row,
    # in the line's order; padding goes to row n.
    real = ~pad
    block, column = np.nonzero(real)
    values = values[real]
    n = values.size
    rows = np.full((b, m), n)
    rows[real] = np.arange(n)
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values[order], vectors, rows, block[order], column[order])
