"""Exact contiguous k-means for spectral embeddings.

A word is a contiguous run of characters, so the rows of a sentence's
embedding are clustered into k contiguous runs. Among all such splits,
dynamic programming over prefix sums finds the one with the least total
within-run squared error, the k-means objective restricted to runs
(Fisher, "On grouping for maximum homogeneity", JASA 1958). The result
uses no random numbers and depends only on the distances between rows, so
it does not change when the rows are rotated, as an eigensolver may do
inside a degenerate eigenspace, or when a column changes sign, as any
eigenvector may. Ties go to early boundaries: from the last run back, each
run starts at the earliest row whose best split before it comes within a
tie tolerance of the least error up to the run's end.

The optimal runs are short next to the sentence, so the DP only considers
runs of at most L rows, starting from twice the mean run length, and
certifies its answer afterwards: when every run of L + 1 rows costs more
than the banded optimum plus the tie tolerance of all k steps, no longer
run can appear in any split the full DP would pick, and the labels are
the full DP's. Otherwise L doubles, up to the longest run a split allows,
and the wider band's table is built again.
"""

from __future__ import annotations

import math

import numpy as np

# Candidate splits whose error is this close to the minimum, relative to
# the rows' total squared norm, are ties; rounding stays far below it.
_TIE_RTOL = 1e-12

# The run-cost table is built for as many run lengths at a time as keep
# its temporaries within this many floats (256 KiB).
_BATCH_FLOATS = 1 << 15


def kmeans_cluster(points, k: int) -> np.ndarray:
    """Labels of the split of the rows into k contiguous runs with the
    least total within-run squared error.

    Labels are non-decreasing, 0 to k-1. From the last run back, each run
    starts at the earliest row whose split of the rows before it, plus the
    run, comes within the tie tolerance of the least error up to its end.
    Takes O(k·n·L) time and O(n·L + k·n) memory, where L is a bound on run
    length that starts at twice n/k and doubles while the result cannot be
    certified.
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
    if not math.isfinite(norm):
        raise ValueError("rows must be finite")
    tol = _TIE_RTOL * norm

    # Centring keeps the prefix sums small, and so the cancellation below.
    # Both prefix sums start with lead zero rows, which stand in for the
    # prefix before row 0 of runs that would start there (see _run_costs).
    y = x - np.add.reduce(x, axis=0) / n
    w = n - k + 1
    lead = w + 1
    sums = np.zeros((lead + n + 1, x.shape[1]))
    np.add.accumulate(y, axis=0, out=sums[lead + 1 :])
    sq = np.zeros(lead + n + 1)
    np.add.accumulate(np.einsum("ij,ij->i", y, y), out=sq[lead + 1 :])
    del y

    # A split has k - 1 runs besides the longest, so no run exceeds w rows.
    longest = min(w, -2 * (-n // k))
    while True:
        most = longest + 1
        cost = _run_costs(sums[lead - most :], sq[lead - most :], most)
        labels, error = _banded_split(cost, k, tol)
        # A longer run costs at least as much as each run of longest + 1
        # rows inside it, so when those all cost more than the error found
        # plus k tie tolerances, no split the full DP could pick has one.
        if longest == w or cost[0, longest + 1 :].min() > error + k * tol:
            return labels
        longest = min(w, 2 * longest)


def _run_costs(sums: np.ndarray, sq: np.ndarray, most: int) -> np.ndarray:
    """cost[r, e]: squared error about its mean of the run of most - r rows
    that ends before row e, for runs of most rows down to 1, given the
    prefix sums of n rows (and of their squared norms), each preceded by
    most zero rows. Entries for runs that would start before row 0 are
    finite and meaningless; each row depends only on its run length.

    Run lengths go in batches whose temporaries hold at most _BATCH_FLOATS
    floats, or one at a time where one alone holds more: a short line
    makes one subtract and one einsum in all, a long line one of each per
    run length."""
    n = sq.size - most - 1
    # lagged[r, e] is the prefix sum at e - (most - r), the row where the
    # run of most - r rows ending before row e starts.
    lagged = _windows(sums[: most + n], most)
    ends = sums[most:]
    batch = max(1, _BATCH_FLOATS // max(1, ends.size))
    diff = np.empty((min(batch, most), *ends.shape))
    spread = np.empty((most, n + 1))
    for first in range(0, most, batch):
        d = np.subtract(ends, lagged[first : first + batch], out=diff[: min(batch, most - first)])
        np.einsum("rej,rej->re", d, d, out=spread[first : first + batch])
    cost = sq[most:] - _windows(sq[: most + n], most)
    cost -= spread / np.arange(most, 0, -1)[:, None]
    return np.maximum(cost, 0.0, out=cost)


def _banded_split(cost: np.ndarray, k: int, tol: float) -> tuple[np.ndarray, float]:
    """Labels of the best split into k runs of at most L rows (cost has
    rows for runs of L + 1 .. 1 rows, see _run_costs), and its error; ties
    go as in kmeans_cluster, so the labels are the full DP's."""
    band, n = cost.shape[0] - 1, cost.shape[1] - 1
    w = n - k + 1
    # The first m + 1 runs hold a row each and leave one for each run after
    # them, so they end (exclusive) at m + 1 .. m + w. best[m, band - 1 + t]:
    # least error of rows 0 .. m + t in m + 1 runs; the band - 1 infinities
    # in front rule out a last run starting before row m.
    best = np.full((k, band - 1 + w), np.inf)
    # The runs of 1 .. band rows from row 0: cost[band - t, 1 + t].
    best[0, band - 1 : 2 * band - 1] = cost[band:0:-1].diagonal(1)
    # Step m sums windows[m - 1] and runs[m]: with windows[m, r, t] =
    # best[m, r + t] and runs[m, r, t] = cost[1 + r, m + 1 + t], that is the
    # error of m + 1 runs, the last of band - r rows ending at row m + t.
    windows = np.ndarray((k, band, w), float, best, strides=(*best.strides, best.itemsize))
    row, col = cost.strides
    runs = np.ndarray((k, band, w), float, cost, row + col, (col, row, col))
    total = np.empty((band, w))
    for before, run, least in zip(windows, runs[1:], best[1:, band - 1 :]):
        np.add(before, run, out=total)
        np.minimum.reduce(total, axis=0, out=least)

    # Each run starts as early as it can: at the first candidate within
    # tol of the least error, summed as the forward pass summed it.
    lengths, end = [], n
    for m in range(k - 1, 0, -1):
        t = end - m - 1
        limit = best.item(m, band - 1 + t) + tol
        prefix, costs = best[m - 1, t : t + band].tolist(), cost[1:, end].tolist()
        r = 0
        while prefix[r] + costs[r] > limit:
            r += 1
        lengths.append(band - r)
        end -= band - r
    lengths.append(end)
    return np.repeat(np.arange(k), lengths[::-1]), best.item(-1, -1)


def _windows(a: np.ndarray, rows: int) -> np.ndarray:
    """Writable view of a as rows overlapping windows along its first axis,
    out[r, j] = a[r + j]; sliding_window_view builds the same view at
    about ten times the call cost, which the DP pays on every line."""
    step = a.strides[0]
    shape = (rows, a.shape[0] - rows + 1, *a.shape[1:])
    return np.ndarray(shape, a.dtype, a, strides=(step, *a.strides))
