"""Symmetric eigendecomposition of band-stored sentence Laplacians.

A sentence's Laplacian has bandwidth 2, so its lower bands (3n entries)
hold all of it. Wherever no entry crosses the gap between two characters
it is block-diagonal over contiguous runs of nodes, and the blocks'
eigenpairs are the whole matrix's. eigh_symmetric finds the blocks, pads
them to the largest block size m and solves the (b, m, m) stack in one
batched call of LAPACK's symmetric eigensolver (numpy.linalg.eigh): about
b·m³ work and b·m² entries instead of n³ and n², which one connected
block (b = 1, m = n) still costs. Padding makes that more than the sum
of the cubed block sizes (on 150-250 character lines of short words
about 43,000 against 3,700 a line), but one call per block size was
measured slower. Results are deterministic for a given
numpy/LAPACK build; within a degenerate eigenspace the basis is whatever
that build's LAPACK returns.

Output convention: eigenvalues ascending (equal ones in block order).
The eigenvectors stay in the (b, m, m) stack the solve returns, one
column per eigenpair of a block, signed as LAPACK returned it: an
eigenvector is defined only up to sign, and no k, label or word depends on
it. Each eigenpair records its block and column, and each node its row of
the stack, so no n×n eigenvector matrix is built. Values ascend within a
block and the order of all of them is a stable sort, so a block's
eigenpairs among the first k are its first k_B columns: leading(k) hands
them over block by block, as k-means reads them, in b·m·max k_B entries,
and columns(k) gathers them as an n×k matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EigenConvergenceError(RuntimeError):
    """LAPACK failed to converge on the eigendecomposition."""


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvectors, kept in their
    blocks. Eigenpair i is values[i] with column column[i] of
    stack[block[i]]. Node t of the line is row row[t] of the stack viewed
    as (b·m, m); the rows no node maps to are padding."""

    values: np.ndarray  # (n,)
    stack: np.ndarray  # (b, m, m)
    row: np.ndarray  # (n,)
    block: np.ndarray  # (n,)
    column: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.values.size

    def columns(self, k: int) -> np.ndarray:
        """The first k eigenvectors as the columns of a new n×k matrix."""
        if not 0 <= k <= self.n:
            raise ValueError(f"k={k} out of range for n={self.n}")
        b, m, _ = self.stack.shape
        # Node t's entry of each column in its own block, kept where that
        # block is the eigenpair's.
        gathered = self.stack.reshape(b * m, m)[self.row[:, None], self.column[:k]]
        return np.where(np.equal.outer(self.row // m, self.block[:k]), gathered, 0.0)

    def leading(self, k: int) -> np.ndarray:
        """The first k eigenvectors block by block: a (b, m, j) array whose
        block B holds, in its first k_B columns, the k_B of B's eigenpairs
        among the first k, in order, and zeros after them; j is the largest
        k_B. Row row[t] of it, viewed as (b·m, j), is node t's."""
        if not 0 <= k <= self.n:
            raise ValueError(f"k={k} out of range for n={self.n}")
        counts = np.bincount(self.block[:k], minlength=self.stack.shape[0])
        j = int(counts.max())
        return self.stack[:, :, :j] * (np.arange(j) < counts[:, None, None])


@dataclass
class SymmetricBands:
    """A symmetric n×n matrix of bandwidth 2 by its lower bands: row j of
    the (n, 3) array lower holds the entries in columns j - 2, j - 1 and
    j, with 0 before column 0."""

    lower: np.ndarray  # (n, 3)


def eigh_symmetric(bands: SymmetricBands) -> EigenDecomposition:
    """Full eigendecomposition of a band-stored symmetric matrix.

    Raises ValueError when the input is not SymmetricBands or not finite,
    and EigenConvergenceError when LAPACK does not converge (essentially
    unreachable for well-scaled input).
    """
    if not isinstance(bands, SymmetricBands):
        raise ValueError(f"expected SymmetricBands, got {type(bands).__name__}")
    lower = bands.lower
    n = lower.shape[0]
    # cut[i]: no entry crosses the gap before node i; both ends count.
    cut = np.ones(n + 1, dtype=bool)
    np.equal(lower[1:, 1], 0.0, out=cut[1:-1])
    unbonded2 = lower[2:, 0] == 0.0
    cut[1:-2] &= unbonded2
    cut[2:-1] &= unbonded2
    edges = np.flatnonzero(cut)
    sizes = edges[1:] - edges[:-1]
    b, m = sizes.size, int(sizes.max())
    # m times the largest entry bounds every row's absolute sum, and so
    # every block's Gershgorin bound; it is finite only if every entry is.
    bound = np.abs(lower).max() * m
    if not bound < np.inf:
        raise ValueError("matrix entries must be finite")

    # Every diagonal starts at 2·bound + 1 and each node's row overwrites
    # its own. Node j, row r of block blk, is stack row blk·m + r; its three
    # entries go to columns r .. r + 2 of wide, whose two spare columns
    # ahead of the stack's take the zeros before a block's first column.
    row = np.arange(n) + np.repeat(np.arange(0, b * m, m) - edges[:-1], sizes)
    wide = np.zeros((b, m, m + 2))
    wide.reshape(b, -1)[:, 2 :: m + 3] = 2.0 * bound + 1.0
    wide.reshape(-1)[(row * (m + 2) + row % m)[:, None] + np.arange(3)] = lower
    try:
        # The lower triangle (UPLO='L', the default) is all eigh reads.
        values, vectors = np.linalg.eigh(wide[:, :, 2:])
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc

    # A padding row is its diagonal alone, so each padding eigenvalue is
    # 2·bound + 1, above every block's own. The first n of one stable sort
    # of all b·m values, block by block, are thus the blocks' own values,
    # ascending, equal ones in block order.
    order = np.argsort(values, axis=None, kind="stable")[:n]
    block, column = np.divmod(order, m)
    return EigenDecomposition(values.reshape(-1)[order], vectors, row, block, column)
