import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segspectral import EhrParams, EigenConvergenceError, LaplacianForm, SegmenterConfig, eigh_symmetric, prepare_sentence
from segspectral.eigen import SymmetricBands

from dense import dense_matrix

RESID_TOL = 1e-9
ORTH_TOL = 1e-8


def bands(diag, off1=None, off2=None) -> SymmetricBands:
    """The symmetric bandwidth-2 matrix with these three bands; missing
    off bands are 0."""
    n = len(diag)
    lower = np.zeros((n, 3))
    lower[:, 2] = diag
    lower[1:, 1] = 0.0 if off1 is None else off1
    lower[2:, 0] = 0.0 if off2 is None else off2
    return SymmetricBands(lower)


def check_decomposition(a, dec):
    a = np.asarray(a, dtype=float)
    scale = max(1.0, np.linalg.norm(a))
    vectors = dec.columns(dec.n)
    resid = np.linalg.norm(a @ vectors - vectors * dec.values)
    assert resid <= RESID_TOL * scale
    gram = vectors.T @ vectors
    assert np.linalg.norm(gram - np.eye(dec.n)) <= ORTH_TOL
    assert np.all(np.diff(dec.values) >= 0.0)


def test_one_by_one():
    dec = eigh_symmetric(bands([5.0]))
    assert np.array_equal(dec.values, [5.0])
    assert np.array_equal(dec.columns(dec.n), [[1.0]])


def test_two_by_two_exact():
    dec = eigh_symmetric(bands([0.0, 0.0], [1.0]))
    assert dec.values == pytest.approx([-1.0, 1.0], abs=1e-14)
    s = 1 / math.sqrt(2)
    # Each eigenvector is defined only up to its sign.
    got = dec.columns(dec.n)
    got *= np.sign(got[0])
    assert got == pytest.approx(np.array([[s, s], [-s, s]]), abs=1e-14)


def test_diagonal_input():
    dec = eigh_symmetric(bands([3.0, 1.0, 2.0]))
    assert dec.stack.shape == (3, 1, 1)
    assert np.array_equal(dec.values, [1.0, 2.0, 3.0])
    assert np.array_equal(dec.columns(dec.n), np.eye(3)[:, [1, 2, 0]])


def test_diagonal_ties_keep_block_order():
    dec = eigh_symmetric(bands([2.0, 1.0, 2.0, 1.0]))
    assert np.array_equal(dec.values, [1.0, 1.0, 2.0, 2.0])
    assert np.array_equal(dec.columns(dec.n), np.eye(4)[:, [1, 3, 0, 2]])


def test_identity_has_degenerate_spectrum():
    dec = eigh_symmetric(bands(np.ones(6)))
    assert np.array_equal(dec.values, np.ones(6))
    check_decomposition(np.eye(6), dec)


def test_random_matrices():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 8, 13, 21, 34, 40):
        for _ in range(3):
            b = bands(rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n - 2))
            a = dense_matrix(b)
            dec = eigh_symmetric(b)
            check_decomposition(a, dec)
            assert dec.values == pytest.approx(
                np.linalg.eigvalsh(a), abs=1e-9 * max(1.0, np.linalg.norm(a))
            )


def test_clustered_eigenvalues():
    # Four copies of one three-node block, nothing between them: each
    # eigenvalue appears four times.
    diag = np.tile([2.0, 1e4, 3.0], 4)
    off1 = np.tile([1.0, 0.5, 0.0], 4)[:-1]
    off2 = np.tile([0.25, 0.0, 0.0], 4)[:-2]
    b = bands(diag, off1, off2)
    dec = eigh_symmetric(b)
    assert dec.stack.shape == (4, 3, 3)
    check_decomposition(dense_matrix(b), dec)
    one = np.linalg.eigvalsh(dense_matrix(b)[:3, :3])
    assert dec.values == pytest.approx(np.repeat(one, 4), rel=1e-10)
    assert np.array_equal(dec.values[0::4], dec.values[3::4])


def test_deterministic():
    rng = np.random.default_rng(0)
    b = bands(rng.normal(size=9), rng.normal(size=8), rng.normal(size=7))
    d1 = eigh_symmetric(b)
    d2 = eigh_symmetric(b)
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.columns(9), d2.columns(9))


def test_columns_k_out_of_range():
    dec = eigh_symmetric(bands([1.0, 2.0], [0.5]))
    assert dec.columns(0).shape == (2, 0)
    for k in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            dec.columns(k)


def test_input_validation():
    # Only band storage is read: a dense matrix, even a 3×3 one whose
    # shape matches (n, 3), is refused.
    for a in (np.eye(3), [[5.0]], np.zeros((4, 3))):
        with pytest.raises(ValueError, match="expected SymmetricBands"):
            eigh_symmetric(a)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            eigh_symmetric(bands([bad, 1.0], [0.0]))
        with pytest.raises(ValueError, match="finite"):
            eigh_symmetric(bands([1.0, 1.0, 1.0], [1.0, 0.0], [bad]))


def test_lapack_failure_is_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        eigh_symmetric(bands([0.0, 0.0], [1.0]))


def test_blocks_of_very_different_scales():
    # One sort of the padded spectrum finds each block's own eigenvalues
    # only if the padding stays above all of them; and a block far smaller
    # than its neighbours must keep its own relative accuracy.
    rng = np.random.default_rng(7)
    for _ in range(300):
        sizes = rng.integers(1, 9, size=rng.integers(2, 7))
        blocks = [rng.normal(size=(m, 3)) * 10.0 ** rng.uniform(-150, 150) for m in sizes]
        for lower in blocks:
            # no entry reaches back past the block's first column
            lower[:2, 0] = lower[:1, 1] = 0.0
        dec = eigh_symmetric(SymmetricBands(np.concatenate(blocks)))
        assert np.all(np.diff(dec.values) >= 0.0)
        assert dec.stack.shape[0] == len(sizes)
        for j, lower in enumerate(blocks):
            want = np.linalg.eigvalsh(dense_matrix(SymmetricBands(lower)))
            got = dec.values[dec.block == j]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# Laplacian blocks by their lower bands. The triangle of unit weights has
# eigenvalues 0, 3, 3: a repeated one inside a block. Blocks drawn again
# from the pool have the same eigenvalues as their copies.
_LONE = [[0.0, 0.0, 0.0]]
_PAIR = [[0.0, 0.0, 1.0], [0.0, -1.0, 1.0]]
_TRIANGLE = [[0.0, 0.0, 2.0], [0.0, -1.0, 2.0], [-1.0, -1.0, 2.0]]


@st.composite
def laplacian_blocks(draw):
    """The lower bands of a path Laplacian of 1-6 nodes with random
    weights, and sometimes one-gap bonds too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 6))
    off1 = rng.uniform(0.1, 2.0, m - 1)
    off2 = rng.uniform(0.1, 2.0, max(0, m - 2)) * draw(st.sampled_from([0.0, 1.0]))
    deg = np.zeros(m)
    for d, band in ((1, off1), (2, off2)):
        deg[d:] += band
        deg[:-d] += band
    lower = np.zeros((m, 3))
    lower[:, 2] = deg
    lower[1:, 1] = -off1
    lower[2:, 0] = -off2
    return lower.tolist()


def check_leading_columns(dec):
    """At every k, each block's eigenpairs among the first k are its first
    k_B columns in order, and leading(k) holds just those columns of the
    stack, with zeros after them, as columns(k) gathers them."""
    b, m, _ = dec.stack.shape
    rows = dec.row.reshape(-1, 1) // m == np.arange(b)
    for k in range(dec.n + 1):
        block, column = dec.block[:k], dec.column[:k]
        counts = np.bincount(block, minlength=b)
        for j in range(b):
            assert np.array_equal(column[block == j], np.arange(counts[j])), (k, j)
        slab = dec.leading(k)
        assert slab.shape == (b, m, counts.max(initial=0))
        for j in range(b):
            assert np.array_equal(slab[j, :, : counts[j]], dec.stack[j, :, : counts[j]])
            assert not slab[j, :, counts[j] :].any()
        # Node t's row of the slab holds its entries of the first k columns.
        dense = dec.columns(k)
        flat = slab.reshape(b * m, -1)
        for i in range(k):
            assert np.array_equal(dense[rows[:, block[i]], i], flat[dec.row[rows[:, block[i]]], column[i]])


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.sampled_from([_LONE, _PAIR, _TRIANGLE]), laplacian_blocks()), min_size=1, max_size=10))
@example([_TRIANGLE, _PAIR, _TRIANGLE, _LONE, _TRIANGLE])
def test_each_block_gives_a_prefix_of_its_columns(blocks):
    dec = eigh_symmetric(SymmetricBands(np.concatenate([np.array(block) for block in blocks])))
    check_leading_columns(dec)


def test_identical_blocks_and_a_repeated_eigenvalue_at_the_cut():
    # Three triangles: 0 three times, then 3 six times, two in each block.
    # Every k from 4 to 8 cuts among the 3s, within a block or between
    # copies of one.
    dec = eigh_symmetric(SymmetricBands(np.concatenate([np.array(_TRIANGLE)] * 3)))
    assert np.abs(dec.values - [0, 0, 0, 3, 3, 3, 3, 3, 3]).max() < 1e-12
    for j in (1, 2):
        assert np.array_equal(dec.values[dec.block == j], dec.values[dec.block == 0])
    check_leading_columns(dec)


@pytest.mark.parametrize("form", LaplacianForm)
def test_repeated_words_give_equal_eigenvalues_across_blocks(synth_corpus, synth_model, form):
    # A word five times between commas: five blocks with the same
    # eigenvalues, so every k among them cuts between copies.
    _, gold = synth_corpus
    word, other = gold[0][:2]
    cfg = SegmenterConfig.for_recipe(EhrParams(), form=form)
    dec = prepare_sentence(",".join([word] * 4 + [other, word]), synth_model, cfg).dec
    copies = [j for j in range(dec.stack.shape[0]) if np.count_nonzero(dec.block == j) == len(word)]
    assert len(copies) >= 5
    same = [j for j in copies if np.array_equal(dec.values[dec.block == j], dec.values[dec.block == copies[0]])]
    assert len(same) == 5
    check_leading_columns(dec)
