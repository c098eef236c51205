"""Exact contiguous k-means for spectral embeddings.

A word is a contiguous run of characters, so the rows of a sentence's
embedding are clustered into k contiguous runs. Among all such splits,
dynamic programming finds the one with the least total within-run squared
error, the k-means objective restricted to runs (Fisher, "On grouping for
maximum homogeneity", JASA 1958). The result uses no random numbers and
depends only on the distances between rows, so it does not change when
the rows are rotated, as an eigensolver may do inside a degenerate
eigenspace, or when a column changes sign, as any eigenvector may. Ties
go to early boundaries: from the last run back, each run starts at the
earliest row whose best split before it comes within a tie tolerance of
the least error up to the run's end.

The optimal runs are short next to the sentence, so the DP only considers
runs of at most L rows, starting from twice the mean run length, and
certifies its answer afterwards: when every run of L + 1 rows costs more
than the banded optimum plus the tie tolerance of all k steps, no longer
run can appear in any split the full DP would pick, and the labels are
the full DP's. Otherwise L doubles, up to the longest run a split allows,
and the wider band's table is built again.

A run's error is the sum of its rows' squared norms less the squared norm
of their sum over its length. Both come from the Gram band
g[t, d] = x_t·x_{t-d} of the rows at most L apart, so the cost table is a
few cumulative sums over that band, with no prefix sums over the whole
line. The rows come as an n×d matrix, centred at its coordinate-wise
lower median first, or block by block (BlockRows), as the
eigendecomposition of a graph that falls apart into components leaves
them: rows of different blocks are orthogonal, so only products inside a
block are formed. For one block of n rows and d columns the band takes
O(n·L·d) time and O(n·(L + d)) memory. For b blocks of at most m rows and j columns it
takes O(b·m·min(L + 1, m)·j) time and O(b·m·(j + min(L + 1, m)) + n·L)
memory, and no n×j matrix is built. The DP then takes O(k·n·L) time and
O(n·L + k·n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Candidate splits whose error is this close to the minimum, relative to
# the rows' total squared norm, are ties; rounding stays far below it.
_TIE_RTOL = 1e-12


@dataclass
class BlockRows:
    """n rows kept block by block: row t is row rows[t] of blocks viewed
    as a (b·m, d) matrix. A block's first rows are consecutive rows of
    the line, in order, and its rows after them are ignored. Rows of
    different blocks are orthogonal, so their inner products are 0 and
    never formed."""

    blocks: np.ndarray  # (b, m, d)
    rows: np.ndarray  # (n,)


def kmeans_cluster(points, k: int) -> np.ndarray:
    """Labels of the split of the rows into k contiguous runs with the
    least total within-run squared error.

    points is an n×d row matrix or BlockRows. Labels are non-decreasing,
    0 to k-1. From the last run back, each run starts at the earliest row
    whose split of the rows before it, plus the run, comes within the tie
    tolerance of the least error up to its end. Takes O(k·n·L) time and
    O(n·L + k·n) memory besides the Gram band (see the module docstring),
    where L is a bound on run length that starts at twice n/k and doubles
    while the result cannot be certified.
    """
    if isinstance(points, BlockRows):
        rows, norm = points, None
    else:
        x = np.asarray(points, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-d row matrix, got shape {x.shape}")
        norm = float(np.einsum("ij,ij->", x, x))
        # A run's error does not move when every row does, and its
        # rounding error scales with its rows' squared distance from the
        # origin: the coordinate-wise lower median puts that origin among
        # the rows, at a value of each coordinate that rows share if most
        # do. Rows that are not finite fail below.
        if math.isfinite(norm) and x.size:
            x = x - np.sort(x, axis=0)[(x.shape[0] - 1) // 2]
        rows = BlockRows(x[None], np.arange(x.shape[0]))
    n = rows.rows.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")

    # A split has k - 1 runs besides the longest, so no run exceeds w rows.
    w = n - k + 1
    longest = min(w, -2 * (-n // k))
    band = _gram_band(rows, longest + 1)
    if norm is None:
        # The rows' squared norms are the band's first row.
        norm = float(np.add.reduce(band[0]))
    # The total squared norm is finite only if every entry is (and small
    # enough for the errors below to stay finite).
    if not math.isfinite(norm):
        raise ValueError("rows must be finite")
    tol = _TIE_RTOL * norm
    while True:
        cost = _cost_table(band)
        labels, error = _banded_split(cost, k, tol)
        # A longer run costs at least as much as each run of longest + 1
        # rows inside it, so when those all cost more than the error found
        # plus k tie tolerances, no split the full DP could pick has one.
        if longest == w or cost[0, longest + 1 :].min() > error + k * tol:
            return labels
        longest = min(w, 2 * longest)
        band = _gram_band(rows, longest + 1)


def _gram_band(x: BlockRows, most: int) -> np.ndarray:
    """The (most, n + 2·most) Gram band of the rows: entry [d, most + t]
    is x_t·x_{t-d}, 0 where row t - d is before row 0 or in another block;
    the most columns before and after the n rows' are 0.

    The blocks are laid end to end, each led by zero rows, and
    transposed, so one einsum over windows of up to most rows forms every
    product inside a block with the rows in its inner loop. A product
    further apart than a block is long is 0 and is not formed."""
    blocks, rows = x.blocks, x.rows
    b, m, d = blocks.shape
    near = min(most, m)
    # Each block is led by near - 1 zero rows: block row r of block B is
    # column near - 1 + i of flat, i = B·(near - 1 + m) + r, and
    # windows[:, e, i] is the row near - 1 - e before it.
    padded = np.zeros((d, b, near - 1 + m))
    padded[:, :, near - 1 :] = blocks.transpose(2, 0, 1)
    flat = padded.reshape(d, b * (near - 1 + m))
    col, step = flat.strides
    windows = np.ndarray((d, near, flat.shape[1] - near + 1), float, flat, strides=(col, step, step))
    products = np.einsum("cei,ci->ei", windows, flat[:, near - 1 :])
    band = np.zeros((most, rows.size + 2 * most))
    products.take(rows + rows // m * (near - 1), axis=1, out=band[near - 1 :: -1, most : most + rows.size])
    return band


def _cost_table(band: np.ndarray) -> np.ndarray:
    """cost[r, e]: squared error about its mean of the run of most - r
    rows that ends before row e, for runs of most rows down to 1, from a
    Gram band laid out as _gram_band lays it out. Entries for runs that
    would start before row 0 are finite and meaningless: they count the
    zero rows in front.

    For the run of rows u = e - l .. e - 1, the squared norm of its sum
    is the sum over u of x_u·(x_u + 2·(x_{u+1} + ... + x_{e-1})). Each
    term is a cumulative sum along one diagonal of the band, and adding
    up the terms, like adding up the rows' squared norms, is a cumulative
    sum over l."""
    most = band.shape[0]
    n = band.shape[1] - 2 * most
    row, col = band.strides
    # ahead[j, i] = x_u·(x_u + 2·(x_{u+1} + ... + x_{u+j})), u = i - most,
    # from the band's diagonal band[d, i + d] = x_{u+d}·x_u.
    ahead = np.add.accumulate(np.ndarray((most, n + most), float, band, strides=(row + col, col)), axis=0)
    ahead *= 2.0
    ahead -= band[0, : n + most]
    # Row l - 1 of both views holds, at column e, the l-th row from the
    # end of the run ending before e, u = e - l: its term
    # ahead[l - 1, most + u] and its squared norm.
    arow, acol = ahead.strides
    terms = np.ndarray((most, n + 1), float, ahead, (most - 1) * acol, (arow - acol, acol))
    norms = np.ndarray((most, n + 1), float, band, (most - 1) * col, (-col, col))
    cost = np.empty((most, n + 1))
    np.add.accumulate(norms, axis=0, out=cost[::-1])
    spread = np.add.accumulate(terms, axis=0)
    spread /= np.arange(1.0, most + 1.0)[:, None]
    cost[::-1] -= spread
    return np.maximum(cost, 0.0, out=cost)


def _banded_split(cost: np.ndarray, k: int, tol: float) -> tuple[np.ndarray, float]:
    """Labels of the best split into k runs of at most L rows (cost has
    rows for runs of L + 1 .. 1 rows, see _cost_table), and its error; ties
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
