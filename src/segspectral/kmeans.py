"""Exact contiguous k-means for spectral embeddings.

A word is a contiguous run of characters, so the rows of a sentence's
embedding are clustered into k contiguous runs. Among all such splits,
dynamic programming over prefix sums finds the one with the least total
within-run squared error, the k-means objective restricted to runs
(Fisher, "On grouping for maximum homogeneity", JASA 1958). The result
uses no random numbers and depends only on the distances between rows, so
it does not change when the rows are rotated, as an eigensolver may do
inside a degenerate eigenspace.
"""

from __future__ import annotations

import numpy as np

# Candidate splits whose error is this close to the minimum, relative to
# the rows' total squared norm, are ties; rounding stays far below it.
_TIE_RTOL = 1e-12


def kmeans_cluster(points, k: int) -> np.ndarray:
    """Labels of the split of the rows into k contiguous runs with the
    least total within-run squared error.

    Labels are non-decreasing, 0 to k-1. Ties go to the earliest boundary:
    among splits whose errors are equal up to rounding, the last boundary
    sits as early as it can, then the one before it, and so on. Takes at
    most O(k·n²) time, and an O(n²) cost table.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d row matrix, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")

    # Centring keeps the prefix sums small, and so the cancellation below.
    y = x - x.mean(axis=0)
    sums = np.vstack([np.zeros(x.shape[1]), np.cumsum(y, axis=0)])
    sq = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", y, y))])
    gram = sums @ sums.T
    norms = np.diag(gram)
    # cost[i, j]: squared error of the run of rows i..j-1 about its mean.
    size = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    spread = norms[None, :] + norms[:, None] - 2.0 * gram
    cost = sq[None, :] - sq[:, None] - spread / np.maximum(size, 1)
    cost = np.where(size > 0, np.maximum(cost, 0.0), np.inf)
    tol = _TIE_RTOL * float(np.einsum("ij,ij->", x, x))

    # The first m + 1 runs hold a row each and leave one for each of the
    # k - m - 1 runs after them, so they end (exclusive) at m + 1 .. m + w.
    # best[t]: least error of rows 0 .. m + t in m + 1 runs; start[m, t]:
    # where the last of those runs begins.
    w = n - k + 1
    best = cost[0, 1 : w + 1]
    start = np.zeros((k, w), dtype=int)
    cols = np.arange(w)
    for m in range(1, k):
        total = best[:, None] + cost[m : m + w, m + 1 : m + 1 + w]
        pick = np.argmax(total <= total.min(axis=0) + tol, axis=0)
        start[m] = m + pick
        best = total[pick, cols]

    labels = np.zeros(n, dtype=int)
    end = n
    for m in range(k - 1, 0, -1):
        begin = start[m, end - m - 1]
        labels[begin:end] = m
        end = begin
    return labels
