import numpy as np
import pytest

from segspectral import contiguous_partitions, kmeans_cluster


def two_blobs(rng, n_per=20, sep=10.0):
    a = rng.normal(size=(n_per, 2))
    b = rng.normal(size=(n_per, 2)) + sep
    return np.vstack([a, b])


def as_partition(labels):
    return {frozenset(np.flatnonzero(labels == j).tolist()) for j in np.unique(labels)}


def run_error(x, parts):
    return sum(float(((x[p] - x[p].mean(axis=0)) ** 2).sum()) for p in parts)


def rows_with_duplicates(rng, n, d):
    """Random rows, or (three times in ten) rows drawn from a pool of three,
    so that exact duplicates and tied splits occur."""
    if rng.uniform() < 0.3:
        return rng.normal(size=(3, d))[rng.integers(0, 3, n)]
    return rng.normal(size=(n, d))


def test_recovers_separated_blobs():
    rng = np.random.default_rng(1)
    x = two_blobs(rng)
    labels = kmeans_cluster(x, 2)
    want = {frozenset(range(20)), frozenset(range(20, 40))}
    assert as_partition(labels) == want


def test_labels_shape_and_range():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(17, 3))
    for k in (1, 2, 5, 17):
        labels = kmeans_cluster(x, k)
        assert labels.shape == (17,)
        assert labels.dtype.kind == "i"
        assert labels.min() >= 0 and labels.max() < k


def test_k_equals_one():
    rng = np.random.default_rng(3)
    labels = kmeans_cluster(rng.normal(size=(6, 2)), 1)
    assert np.array_equal(labels, np.zeros(6, dtype=int))


def test_k_equals_n_separates_distinct_points():
    x = np.arange(5.0)[:, None] * 10
    labels = kmeans_cluster(x, 5)
    assert len(set(labels.tolist())) == 5


def test_separates_identical_rows():
    # Spectral embeddings repeat rows exactly within a component.
    x = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 10, axis=0)
    labels = kmeans_cluster(x, 2)
    assert as_partition(labels) == {frozenset(range(10)), frozenset(range(10, 20))}


def test_degenerate_all_identical_points_terminates():
    x = np.zeros((8, 2))
    labels = kmeans_cluster(x, 3)
    assert labels.shape == (8,)
    assert labels.min() >= 0 and labels.max() < 3


def test_matches_brute_force_minimum():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        x = rows_with_duplicates(rng, n, int(rng.integers(1, 5)))
        for k in range(1, n + 1):
            labels = kmeans_cluster(x, k)
            assert np.all(np.diff(labels) >= 0)
            assert np.array_equal(np.unique(labels), np.arange(k))
            got = run_error(x, [np.flatnonzero(labels == j) for j in range(k)])
            best = min(run_error(x, parts) for parts in contiguous_partitions(n, k))
            assert got == pytest.approx(best, abs=1e-9), (x, k)


def test_labels_do_not_depend_on_the_basis():
    # An eigensolver may return any orthonormal basis of a degenerate
    # eigenspace; distances between rows, and so the labels, stay put.
    rng = np.random.default_rng(7)
    for _ in range(150):
        n, d = int(rng.integers(2, 13)), int(rng.integers(1, 5))
        x = rows_with_duplicates(rng, n, d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        for k in range(1, n + 1):
            assert np.array_equal(kmeans_cluster(x @ q, k), kmeans_cluster(x, k)), (x, k)


def test_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="out of range"):
        kmeans_cluster(x, 0)
    with pytest.raises(ValueError, match="out of range"):
        kmeans_cluster(x, 5)
    with pytest.raises(ValueError, match="2-d"):
        kmeans_cluster(np.zeros(4), 2)
