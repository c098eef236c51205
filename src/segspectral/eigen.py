"""Dense symmetric eigendecomposition.

A thin wrapper around LAPACK's symmetric eigensolver through
numpy.linalg.eigh. Sentence graphs are small (n well under a few
hundred), so a dense O(n^3) routine is the right tool. Results are
deterministic for a given numpy/LAPACK build; within a degenerate
eigenspace the basis is whatever that build's LAPACK returns.

Output convention: eigenvalues ascending, eigenvectors as matching
columns, and the sign of each column fixed so that its entry of largest
magnitude (first such index on ties) is positive.
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
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size


def eigh_symmetric(a) -> EigenDecomposition:
    """Full eigendecomposition of a dense symmetric matrix.

    Raises ValueError when the input is not square, not finite, or not
    symmetric within SYMMETRY_TOL, and EigenConvergenceError when LAPACK
    does not converge (essentially unreachable for well-scaled input).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("expected at least a 1x1 matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if a.shape[0] > 1:
        asym = np.max(np.abs(a - a.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric: max|a - a^T| = {asym:g}")
    a = 0.5 * (a + a.T)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # argmax returns the first index on ties, which is the sign rule's tie-break.
    peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors[:, peak < 0.0] *= -1.0
    return EigenDecomposition(values=values, vectors=vectors)
