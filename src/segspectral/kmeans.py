"""Seeded, deterministic k-means for spectral embeddings.

Lloyd iteration with either careful distance-squared seeding or centers
picked evenly from the rows. Embedding rows belonging to one graph
component can be exactly identical, so a small Gaussian jitter is applied
first to keep initial centers distinct; with a fixed seed the whole
procedure is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

INIT_KMEANS_PP = "kmeans++"
INIT_EVEN_ROWS = "even"

_MAX_ITER = 100


def _pairwise_sq(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _init_plusplus(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    for j in range(1, k):
        d2 = _pairwise_sq(x, centers[:j]).min(axis=1)
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            # All points coincide with a chosen center; any pick works.
            idx = rng.integers(n)
        centers[j] = x[idx]
    return centers


def _init_even(x: np.ndarray, k: int) -> np.ndarray:
    # floor of an arithmetic sequence with step >= 1: indices are distinct.
    idx = np.floor(np.linspace(0, x.shape[0] - 1, k)).astype(int)
    return x[idx].copy()


def kmeans_cluster(
    points,
    k: int,
    *,
    init: str = INIT_KMEANS_PP,
    seed: int = 0,
    jitter_sd: float = 0.001,
) -> np.ndarray:
    """Cluster rows into k groups; returns an integer label per row.

    Accepts a plain array or anything with a `.u` row matrix (a spectral
    embedding). Runs until labels stop changing or _MAX_ITER is hit. Empty
    clusters are reseeded from the point farthest from its own center.
    """
    x = np.asarray(getattr(points, "u", points), dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d row matrix, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")

    rng = np.random.default_rng(seed)
    if jitter_sd > 0.0:
        x = x + rng.normal(0.0, jitter_sd, x.shape)

    if init == INIT_KMEANS_PP:
        centers = _init_plusplus(x, k, rng)
    elif init == INIT_EVEN_ROWS:
        centers = _init_even(x, k)
    else:
        raise ValueError(f"unknown init {init!r}")

    prev = None
    for _ in range(_MAX_ITER):
        d2 = _pairwise_sq(x, centers)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        repair = 0
        while (counts == 0).any() and repair < k:
            own = d2[np.arange(n), labels]
            for j in np.flatnonzero(counts == 0):
                far = int(own.argmax())
                centers[j] = x[far]
                own[far] = -1.0
            d2 = _pairwise_sq(x, centers)
            labels = d2.argmin(axis=1)
            counts = np.bincount(labels, minlength=k)
            repair += 1
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        for j in range(k):
            if counts[j] > 0:  # repair can stall on duplicate points
                centers[j] = x[labels == j].mean(axis=0)
    return labels
