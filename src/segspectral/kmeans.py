"""Exact contiguous k-means for spectral embeddings.

A word is a contiguous run of characters, so the rows of a sentence's
embedding are clustered into k contiguous runs. Among all such splits,
dynamic programming over prefix sums finds the one with the least total
within-run squared error, the k-means objective restricted to runs
(Fisher, "On grouping for maximum homogeneity", JASA 1958). The result
uses no random numbers and depends only on the distances between rows, so
it does not change when the rows are rotated, as an eigensolver may do
inside a degenerate eigenspace.

The optimal runs are short next to the sentence, so the DP only considers
runs of at most L rows, starting from twice the mean run length, and
certifies its answer afterwards: when every run of L + 1 rows costs more
than the banded optimum plus the tie tolerance of all k steps, no longer
run can appear in any split the full DP would pick, and the labels are
the full DP's. Otherwise L doubles, up to the longest run a split allows;
the costs of the runs already tabled are kept, and only the longer runs'
are added.
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
    sits as early as it can, then the one before it, and so on. Takes
    O(k·n·L) time and O(n·L) memory, where L is a bound on run length that
    starts at twice n/k and doubles while the result cannot be certified.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d row matrix, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    # The total squared norm is finite only if every entry is (and small
    # enough for the errors below to stay finite).
    norm = float(np.einsum("ij,ij->", x, x))
    if not np.isfinite(norm):
        raise ValueError("rows must be finite")
    tol = _TIE_RTOL * norm

    # Centring keeps the prefix sums small, and so the cancellation below.
    y = x - x.sum(axis=0) / n
    sums = np.zeros((n + 1, x.shape[1]))
    np.cumsum(y, axis=0, out=sums[1:])
    sq = np.zeros(n + 1)
    np.cumsum(np.einsum("ij,ij->i", y, y), out=sq[1:])

    # A split has k - 1 runs besides the longest, so no run exceeds w rows.
    w = n - k + 1
    longest = min(w, -2 * (-n // k))
    cost = _run_costs(sums, sq, longest + 1, 1)
    while True:
        labels, error = _banded_split(cost, k, tol)
        # A longer run costs at least as much as each run of longest + 1
        # rows inside it, so when those all cost more than the error found
        # plus k tie tolerances, no split the full DP could pick has one.
        if longest == w or cost[0, longest + 1 :].min() > error + k * tol:
            return labels
        # The rows for runs of up to longest + 1 rows stay as they are.
        wider = min(w, 2 * longest)
        cost = np.concatenate([_run_costs(sums, sq, wider + 1, longest + 2), cost])
        longest = wider


def _run_costs(sums: np.ndarray, sq: np.ndarray, most: int, least: int) -> np.ndarray:
    """cost[r, e]: squared error about its mean of the run of most - r rows
    that ends before row e, for runs of most down to least rows. Entries
    for runs that would start before row 0 are finite and meaningless;
    each row depends only on its run length."""
    n = sq.size - 1
    size = np.arange(most, least - 1, -1)
    spread = np.zeros((size.size, n + 1))
    step = np.empty((n, sums.shape[1]))
    for row, s in enumerate(size.tolist()):
        d = np.subtract(sums[s:], sums[:-s], out=step[: n + 1 - s])
        np.einsum("ij,ij->i", d, d, out=spread[row, s:])
    # lagged[r, e] = sq[e - size[r]], read from sq padded in front.
    lagged = _windows(np.concatenate([np.zeros(most), sq[: n + 1 - least]]), size.size)
    cost = sq - lagged
    cost -= spread / size[:, None]
    return np.maximum(cost, 0.0, out=cost)


def _banded_split(cost: np.ndarray, k: int, tol: float) -> tuple[np.ndarray, float]:
    """Labels of the best split into k runs of at most L rows (cost has
    rows for runs of L + 1 .. 1 rows, see _run_costs), and its error.

    Follows the full DP's tie rule: among candidates within tol of the
    least error, the one whose last run starts earliest.
    """
    band = cost.shape[0] - 1
    n = cost.shape[1] - 1
    w = n - k + 1
    # The first m + 1 runs hold a row each and leave one for each of the
    # k - m - 1 runs after them, so they end (exclusive) at m + 1 .. m + w.
    # best[band - 1 + t]: least error of rows 0 .. m + t in m + 1 runs; the
    # band - 1 infinities in front rule out a last run starting before row
    # m, which would leave an earlier run empty.
    # window[r, t] = best[r + t] is then the error before a last run of
    # band - r rows ending at row m + t, so row 0 is the earliest start.
    best = np.full(band - 1 + w, np.inf)
    best[band - 1 : 2 * band - 1] = cost[np.arange(band, 0, -1), np.arange(1, band + 1)]
    window = _windows(best, band)
    total = np.empty((band, w))
    low = np.empty(w)
    near = np.empty((band, w), dtype=bool)
    pick = np.zeros((k, w), dtype=np.intp)
    cols = np.arange(w)
    for m in range(1, k):
        np.add(window, cost[1:, m + 1 : m + 1 + w], out=total)
        np.minimum.reduce(total, axis=0, out=low)
        low += tol
        np.less_equal(total, low, out=near)
        near.argmax(axis=0, out=pick[m])
        best[band - 1 :] = total[pick[m], cols]

    labels = np.zeros(n, dtype=int)
    end = n
    for m in range(k - 1, 0, -1):
        begin = end - band + pick.item(m, end - m - 1)
        labels[begin:end] = m
        end = begin
    return labels, float(best[-1])


def _windows(a: np.ndarray, rows: int) -> np.ndarray:
    """Writable view of the 1-d array a as rows overlapping windows,
    out[r, j] = a[r + j]; sliding_window_view builds the same view at
    about ten times the call cost, which the DP pays on every line."""
    step = a.strides[0]
    return np.ndarray((rows, a.size - rows + 1), a.dtype, a, strides=(step, step))
