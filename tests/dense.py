"""Dense and exhaustive references for tests: the n×n matrix behind the
package's two banded types, the Laplacian by the textbook formulas and
its eigendecomposition by one dense solve, the contiguous k-means DP over
its full (n+1)² cost table, every split of a sentence into contiguous
parts with the cut-minimizing one, and the distance between the zero
eigenspace and the span of component indicators. Tests check the
package's banded, block-wise forms and its spectral partitions against
these."""

from itertools import combinations

import numpy as np

from segspectral.eigen import EigenDecomposition, SymmetricBands
from segspectral.spectral import ZERO_EIG_TOL, LaplacianForm, _check_partition, cut_objective

# Contiguous-partition enumeration blows up combinatorially; keep it honest.
BRUTE_FORCE_MAX_N = 16


def dense_matrix(m) -> np.ndarray:
    """A ConnectionMatrix or SymmetricBands as one dense matrix."""
    if isinstance(m, SymmetricBands):
        bands = ((0, m.lower[:, 2]), (1, m.lower[1:, 1]), (2, m.lower[2:, 0]))
    else:
        bands = ((0, m.diag), (1, m.off1), (2, m.off2))
    out = np.zeros((bands[0][1].size,) * 2)
    for d, band in bands:
        i = np.arange(band.size)
        out[i, i + d] = out[i + d, i] = band
    return out


def dense_laplacian(w, form):
    """The Laplacian as one n x n matrix, by the textbook formulas."""
    deg = w.degrees()
    if form is LaplacianForm.UNNORMALIZED:
        return np.diag(deg) - dense_matrix(w)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return np.eye(w.n) - dense_matrix(w) * np.outer(inv_sqrt, inv_sqrt)


def dense_eigh(a) -> EigenDecomposition:
    """np.linalg.eigh of a dense symmetric matrix, as a one-block
    EigenDecomposition."""
    values, vectors = np.linalg.eigh(a)
    n = values.size
    return EigenDecomposition(values, vectors[None], np.arange(n), np.zeros(n, dtype=int), np.arange(n))


def _full_cost_table(x):
    """cost[s, e]: squared error about its mean of rows s .. e - 1, from a
    Gram product of prefix sums (inf unless s < e); and the tie tolerance."""
    n = x.shape[0]
    y = x - x.mean(axis=0)
    sums = np.vstack([np.zeros(x.shape[1]), np.cumsum(y, axis=0)])
    sq = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", y, y))])
    gram = sums @ sums.T
    norms = np.diag(gram)
    size = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    spread = norms[None, :] + norms[:, None] - 2.0 * gram
    cost = sq[None, :] - sq[:, None] - spread / np.maximum(size, 1)
    cost = np.where(size > 0, np.maximum(cost, 0.0), np.inf)
    return cost, 1e-12 * float(np.einsum("ij,ij->", x, x))


def full_table_labels(points, k):
    """The DP over every (start, end) pair that the banded DP replaced,
    with its (n+1)² cost table from a Gram product: the reference whose
    labels the banded DP must match exactly."""
    x = np.asarray(points, dtype=float)
    n = x.shape[0]
    cost, tol = _full_cost_table(x)

    # best[m][t]: least error of rows 0 .. m + t in m + 1 runs.
    w = n - k + 1
    best = [cost[0, 1 : w + 1]]
    for m in range(1, k):
        total = best[-1][:, None] + cost[m : m + w, m + 1 : m + 1 + w]
        best.append(total.min(axis=0))

    # From the last run back, each run starts at the earliest row whose
    # candidate is within tol of the least error up to the run's end.
    labels = np.zeros(n, dtype=int)
    end = n
    for m in range(k - 1, 0, -1):
        candidates = best[m - 1] + cost[m : m + w, end]
        begin = m + int(np.argmax(candidates <= best[m][end - m - 1] + tol))
        labels[begin:end] = m
        end = begin
    return labels


def least_errors(points, k, count):
    """The count least errors over all splits of the rows into k
    contiguous runs, ascending (inf past the last split), and the tie
    tolerance."""
    x = np.asarray(points, dtype=float)
    n = x.shape[0]
    cost, tol = _full_cost_table(x)

    # least[:, t]: the count least errors of rows 0 .. m + t in m + 1 runs.
    # Splits whose last runs start apart differ, so the count least of a
    # step are among the count least of each last run's prefix.
    w = n - k + 1
    least = np.full((count, w), np.inf)
    least[0] = cost[0, 1 : w + 1]
    for m in range(1, k):
        total = least[:, :, None] + cost[m : m + w, m + 1 : m + 1 + w]
        least = np.sort(total.reshape(count * w, w), axis=0)[:count]
    return least[:, -1], tol


def indicator_span_residual(dec, components, form, degrees=None) -> float:
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
    # Values ascend, so the zero ones are among the first within ZERO_EIG_TOL.
    below = int(np.count_nonzero(dec.values <= ZERO_EIG_TOL))
    zero_vecs = dec.columns(below)[:, np.abs(dec.values[:below]) <= ZERO_EIG_TOL]
    p_eig = zero_vecs @ zero_vecs.T
    return float(np.linalg.norm(p_span - p_eig, ord="fro"))


def contiguous_partitions(n, k):
    """Yield every split of range(n) into k consecutive nonempty parts."""
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        yield [list(range(bounds[i], bounds[i + 1])) for i in range(k)]


def brute_force_best_contiguous(w, k, kind):
    """Exhaustive minimizer of the cut objective over contiguous k-part
    splits, and its value. Ties go to the earliest boundary set in
    lexicographic order."""
    n = w.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"n={n} exceeds enumeration guard {BRUTE_FORCE_MAX_N}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    best_parts = None
    best_value = np.inf
    for parts in contiguous_partitions(n, k):
        value = cut_objective(w, parts, kind)
        if value < best_value:
            best_value = value
            best_parts = parts
    assert best_parts is not None
    return best_parts, float(best_value)
