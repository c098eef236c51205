import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segspectral import kmeans
from segspectral import (
    EhrParams,
    LaplacianForm,
    Lexicon,
    SegmenterConfig,
    WordStats,
    kmeans_cluster,
    prepare_sentence,
    segment_prepared,
    spectral_embed,
)
from dense import contiguous_partitions, full_table_labels


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
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((8, 2))
        x[3, 1] = bad
        with pytest.raises(ValueError, match="rows must be finite"):
            kmeans_cluster(x, 3)


@st.composite
def random_rows(draw):
    """Random rows, or rows from a pool of three that tie splits, scaled by
    zero at times so that the tie tolerance is zero too; k is 1, n, or
    anything between."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    x = rows_with_duplicates(rng, n, draw(st.integers(1, 4)))
    x *= draw(st.sampled_from([1.0, 1e-3, 0.0]))
    return x, draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))


@st.composite
def near_tie_rows(draw):
    """Rows from a pool of two, moved by noise at the scale of the tie
    tolerance, so that several splits come within it of the least error
    and the tie rule decides; k is 1, n, or anything between."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    x = rng.normal(size=(2, draw(st.integers(1, 3))))[rng.integers(0, 2, n)]
    noise = np.sqrt(1e-12 * float(np.einsum("ij,ij->", x, x)))
    x += noise * draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])) * rng.normal(size=x.shape)
    return x, draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))


@st.composite
def long_runs(draw):
    """Runs of equal rows, one of 20-40 rows among k - 1 of 1-2 rows, with
    k >= 3; values come from a pool of two, so neighbouring runs may be
    equal and splits tie."""
    k = draw(st.integers(3, 6))
    lengths = [draw(st.integers(1, 2)) for _ in range(k - 1)]
    lengths.insert(draw(st.integers(0, k - 1)), draw(st.integers(20, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(size=(2, draw(st.integers(1, 3))))
    return np.repeat(pool[rng.integers(0, 2, k)], lengths, axis=0), k


@settings(deadline=None, max_examples=300)
@given(random_rows())
def test_matches_full_table_dp(case):
    x, k = case
    assert np.array_equal(kmeans_cluster(x, k), full_table_labels(x, k)), (x, k)


@settings(deadline=None, max_examples=300)
@given(near_tie_rows())
def test_matches_full_table_dp_at_the_tie_tolerance(case):
    x, k = case
    assert np.array_equal(kmeans_cluster(x, k), full_table_labels(x, k)), (x, k)


@settings(deadline=None, max_examples=150)
@given(long_runs())
def test_matches_full_table_dp_when_the_band_widens(case):
    x, k = case
    want = full_table_labels(x, k)
    # The first band holds runs of up to 2·ceil(n/k) rows; a longer run in
    # the answer means the band had to widen.
    assert np.bincount(want).max() > -2 * (-len(x) // k)
    assert np.array_equal(kmeans_cluster(x, k), want), (x, k)


@settings(deadline=None, max_examples=300)
@given(st.one_of(random_rows(), near_tie_rows(), long_runs()), st.integers(0, 2**32 - 1))
def test_labels_do_not_depend_on_column_signs(case, seed):
    # An eigensolver may return any eigenvector negated; the split must
    # not move, not even at a near tie.
    x, k = case
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=x.shape[1])
    assert np.array_equal(kmeans_cluster(x * signs, k), kmeans_cluster(x, k)), (x, signs, k)


def test_matches_full_table_dp_on_near_ties():
    # Two runs of 12 rows so close that merging them costs about the tie
    # tolerance, then 2 distant rows. Within the tolerance the full DP
    # takes the earliest boundaries, and so a middle run of 23 rows, longer
    # than the first band of 18. Every run of 19 rows costs only a little
    # more than the banded optimum, so the band widens only if the
    # certificate allows for the ties of all k steps.
    for share in (2, 4, 6, 8, 12):
        x = np.repeat([[1.0], [1.0], [5.0]], [12, 12, 2], axis=0)
        x[12:24] += np.sqrt(1e-12 * float(np.einsum("ij,ij->", x, x)) / share)
        assert np.array_equal(kmeans_cluster(x, 3), full_table_labels(x, 3)), share


def test_matches_full_table_dp_on_pipeline_embeddings(synth_corpus, synth_model):
    # The quick-start text through every recipe, in both forms, at the
    # recipe's default cut and at 1.5. Rows repeat within a component, and
    # a zero eigenspace shared by several components comes back in any
    # basis, so splits tie for real.
    lines, gold = synth_corpus
    counts = Counter(word for words in gold for word in words)
    ranked = sorted(counts, key=lambda word: (-counts[word], word))
    lexicon = Lexicon(entries={word: rank for rank, word in enumerate(ranked, 1)})
    for recipe in (EhrParams(), lexicon, WordStats(words=dict(counts))):
        for form in LaplacianForm:
            cfg = SegmenterConfig.for_recipe(recipe, form=form)
            for line in lines[:100]:
                prep = prepare_sentence(line, synth_model, cfg)
                for cut in (cfg.eig_cut, 1.5):
                    k = segment_prepared(prep, replace(cfg, eig_cut=cut)).k
                    x = spectral_embed(prep.dec, k, prep.form)
                    want = full_table_labels(x, k)
                    assert np.array_equal(kmeans_cluster(x, k), want), (line, cfg, cut)


def test_memory_stays_linear_in_n_times_k():
    # 2000 rows in 2-4 row runs, one run per cluster, each with its own
    # k-dimensional row, as a spectral embedding of short words has. The
    # run-cost table is built for several run lengths at a time only while
    # that stays small, so the temporaries stay a few n×k arrays.
    rng = np.random.default_rng(0)
    lengths = [2, 3, 4] * 222 + [2]
    k = len(lengths)
    x = np.repeat(rng.normal(size=(k, k)), lengths, axis=0)
    n = x.shape[0]
    assert n == 2000
    tracemalloc.start()
    try:
        labels = kmeans_cluster(x, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(labels, np.repeat(np.arange(k), lengths))
    # One n×k float array is n·k·8 bytes.
    assert peak < 4 * n * k * 8


def _direct_run_costs(x, most):
    """The run-cost table one run at a time, straight from the rows: entry
    [most - l, e] is the squared error about its mean of rows e - l .. e - 1,
    and NaN for runs that would start before row 0."""
    n = x.shape[0]
    cost = np.full((most, n + 1), np.nan)
    for length in range(1, most + 1):
        for end in range(length, n + 1):
            run = x[end - length : end]
            cost[most - length, end] = ((run - run.mean(axis=0)) ** 2).sum()
    return cost


def block_rows(rng, sizes, width):
    """Rows of blocks of the given sizes, each block with its own columns
    (up to width of them), as BlockRows and as the dense matrix they stand
    for; rows come from a pool of two per block, so runs repeat and tie."""
    n, m = sum(sizes), max(sizes)
    counts = rng.integers(0, width + 1, len(sizes))
    blocks = np.zeros((len(sizes), m + 1, int(counts.max())))
    dense = np.zeros((n, int(counts.sum())))
    rows = np.empty(n, dtype=int)
    start = column = 0
    for b, (size, count) in enumerate(zip(sizes, counts)):
        pool = rng.normal(size=(2, count))
        blocks[b, :size, :count] = pool[rng.integers(0, 2, size)]
        # A row no line row maps to is ignored.
        blocks[b, size:, :count] = rng.normal(size=(m + 1 - size, count))
        dense[start : start + size, column : column + count] = blocks[b, :size, :count]
        rows[start : start + size] = b * (m + 1) + np.arange(size)
        start, column = start + size, column + count
    return kmeans.BlockRows(blocks, rows), dense


def test_band_cost_tables_equal_a_direct_computation(monkeypatch):
    # Every table the DP reads, from an n×d matrix and from blocks, the
    # wider tables built when the band widens included.
    cost_table, built = kmeans._cost_table, []

    def spy(band):
        cost = cost_table(band)
        built.append(cost.copy())
        return cost

    monkeypatch.setattr(kmeans, "_cost_table", spy)
    rng = np.random.default_rng(3)
    tables = []
    for _ in range(40):
        k = int(rng.integers(3, 7))
        lengths = rng.integers(1, 3, k)
        lengths[rng.integers(0, k)] = rng.integers(20, 41)
        pool = rng.normal(size=(2, int(rng.integers(1, 4))))
        x = np.repeat(pool[rng.integers(0, 2, k)], lengths, axis=0)
        x += 1e-3 * rng.normal(size=x.shape)
        sizes = rng.integers(1, 9, int(rng.integers(1, 12)))
        blocks, dense = block_rows(rng, sizes.tolist(), 3)
        cases = [(x, x, k), (rng.normal(size=(int(rng.integers(1, 30)), 3)),) * 2 + (1,)]
        cases.append((blocks, dense, int(rng.integers(1, dense.shape[0] + 1))))
        for points, rows, k in cases:
            before = len(built)
            kmeans_cluster(points, k)
            tables.append(len(built) - before)
            norm = float((rows * rows).sum())
            for cost in built[before:]:
                want = _direct_run_costs(rows, cost.shape[0])
                valid = ~np.isnan(want)
                # Rounding stays far below the tie tolerance, 1e-12 of the
                # total squared norm.
                assert np.abs(cost[valid] - want[valid]).max(initial=0.0) <= 1e-15 * max(norm, 1.0)
                # Runs that would start before row 0 are finite, so the DP's
                # infinities alone rule them out.
                assert np.isfinite(cost).all()
    # Some calls widen the band twice.
    assert 3 in tables


@pytest.mark.parametrize("budget", [1, 40, 200, 32768])
def test_batched_run_costs_equal_a_direct_computation(budget):
    # One table batches every run length up to its band's height: from one
    # run length (height 1) to every length the line allows, at heights the
    # DP's own widening need not reach.
    rng = np.random.default_rng(budget)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        x = rows_with_duplicates(rng, n, int(rng.integers(1, 4)))
        sizes = rng.integers(1, 9, int(rng.integers(1, 12)))
        blocks, dense = block_rows(rng, sizes.tolist(), 3)
        for points, rows in [(kmeans.BlockRows(x[None], np.arange(n)), x), (blocks, dense)]:
            most = min(budget, rows.shape[0])
            cost = kmeans._cost_table(kmeans._gram_band(points, most))
            assert cost.shape == (most, rows.shape[0] + 1)
            want = _direct_run_costs(rows, most)
            valid = ~np.isnan(want)
            norm = float((rows * rows).sum())
            assert np.abs(cost[valid] - want[valid]).max(initial=0.0) <= 1e-15 * max(norm, 1.0)
            assert np.isfinite(cost).all()


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 9), min_size=1, max_size=20), st.integers(1, 4))
def test_block_rows_give_the_labels_of_their_dense_matrix(seed, sizes, width):
    rng = np.random.default_rng(seed)
    blocks, dense = block_rows(rng, sizes, width)
    for k in {1, dense.shape[0], int(rng.integers(1, dense.shape[0] + 1))}:
        labels = kmeans_cluster(blocks, k)
        assert np.array_equal(labels, full_table_labels(dense, k)), (sizes, k)
        assert np.array_equal(labels, kmeans_cluster(dense, k)), (sizes, k)
