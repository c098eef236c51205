import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segspectral import (
    ConnectionMatrix,
    CutKind,
    EigenDecomposition,
    LaplacianForm,
    build_laplacian,
    choose_k,
    cut_objective,
    eigh_symmetric,
    kmeans_cluster,
    spectral_embed,
    zero_eig_multiplicity,
)
from segspectral.eigen import SymmetricBands
from segspectral.spectral import embed_blocks

from dense import (
    brute_force_best_contiguous,
    contiguous_partitions,
    dense_eigh,
    dense_laplacian,
    dense_matrix,
    indicator_span_residual,
)


def two_block_w():
    # Nodes {0,1} and {2,3,4} joined internally, nothing across; note the
    # one-gap band entry at index i couples nodes i and i+2.
    return ConnectionMatrix(np.ones(5), [0.8, 0.0, 1.2, 0.6], [0.0, 0.0, 0.5])


class TestLaplacian:
    def test_unnormalized_frozen(self):
        w = ConnectionMatrix([1.0, 1.0], [0.5], [])
        lap = dense_matrix(build_laplacian(w, LaplacianForm.UNNORMALIZED))
        assert np.array_equal(lap, [[0.5, -0.5], [-0.5, 0.5]])

    def test_symmetric_normalized_frozen(self):
        w = ConnectionMatrix([1.0, 1.0], [0.5], [])
        lap = dense_matrix(build_laplacian(w, LaplacianForm.SYMMETRIC_NORMALIZED))
        third = 1.0 / 3.0
        np.testing.assert_allclose(lap, [[third, -third], [-third, third]], atol=1e-15)

    def test_row_sums_of_unnormalized_vanish(self):
        lap = dense_matrix(build_laplacian(two_block_w(), LaplacianForm.UNNORMALIZED))
        assert lap.sum(axis=1) == pytest.approx(np.zeros(5), abs=1e-12)
        assert np.array_equal(lap, lap.T)

    def test_both_forms_are_psd(self):
        for form in LaplacianForm:
            dec = eigh_symmetric(build_laplacian(two_block_w(), form))
            assert dec.values.min() >= -1e-12

    def test_normalized_needs_positive_degrees(self):
        w = ConnectionMatrix([0.0, 1.0], [0.0], [])
        with pytest.raises(ValueError, match="positive degrees"):
            build_laplacian(w, LaplacianForm.SYMMETRIC_NORMALIZED)


@st.composite
def cut_bands(draw):
    """Random bands in which some gaps are forced to carry no bond."""
    n = draw(st.integers(1, 24))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
    off1 = np.array(draw(st.lists(weight, min_size=n - 1, max_size=n - 1)) if n > 1 else [])
    off2 = np.array(draw(st.lists(weight, min_size=max(n - 2, 0), max_size=max(n - 2, 0))))
    diag = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    for gap in draw(st.sets(st.integers(0, max(n - 2, 0)))) if n > 1 else ():
        off1[gap] = 0.0
        off2[max(gap - 1, 0) : gap + 1] = 0.0
    return ConnectionMatrix(diag, off1, off2)


def block_sizes(w):
    """Sizes of the runs between gaps that no bond crosses."""
    sizes, size = [], 1
    for gap in range(w.n - 1):
        crossed = w.off1[gap] > 0 or (gap >= 1 and w.off2[gap - 1] > 0)
        crossed = crossed or (gap < w.n - 2 and w.off2[gap] > 0)
        if crossed:
            size += 1
        else:
            sizes.append(size)
            size = 1
    return sizes + [size]


def solved_sizes(dec):
    """The sizes of the blocks a decomposition was solved in: each block's
    rows of the line."""
    b, m, _ = dec.stack.shape
    return np.bincount(dec.row // m, minlength=b).tolist()


def check_block_solve(w, form):
    """The block solve against the dense one: the same Laplacian entries,
    eigenvalues and eigenpairs, and the same k-means labels at every k
    where the first k eigenvectors span a well-defined space."""
    lap = build_laplacian(w, form)
    dense = dense_laplacian(w, form)
    assert lap.lower.shape == (w.n, 3)
    assert not lap.lower[0, :2].any() and not lap.lower[1:2, 0].any()  # nothing before column 0
    assert np.array_equal(dense_matrix(lap), dense)
    dec = eigh_symmetric(lap)
    sizes = solved_sizes(dec)
    assert sizes == block_sizes(w)
    assert dec.stack.shape == (len(sizes), max(sizes), max(sizes))
    scale = max(1.0, np.abs(dense).sum(axis=1).max())
    assert np.abs(dec.values - np.linalg.eigvalsh(dense)).max() <= 1e-12 * scale
    vectors = dec.columns(w.n)
    assert np.linalg.norm(dense @ vectors - vectors * dec.values) <= 1e-12 * scale * w.n
    assert np.abs(vectors.T @ vectors - np.eye(w.n)).max() <= 1e-12 * w.n
    ref = dense_eigh(dense)
    for k in range(1, w.n + 1):
        if k < w.n and ref.values[k] - ref.values[k - 1] <= 1e-6 * scale:
            continue  # k splits an eigenspace, whose basis either solve may pick
        got = kmeans_cluster(spectral_embed(dec, k, form), k)
        want = kmeans_cluster(spectral_embed(ref, k, form), k)
        assert np.array_equal(got, want), k
        assert np.array_equal(kmeans_cluster(embed_blocks(dec, k, form), k), want), k


@settings(deadline=None, max_examples=150)
@given(cut_bands())
def test_block_solve_matches_dense_solve(w):
    for form in LaplacianForm:
        check_block_solve(w, form)


def solve_with_raw_output(lap):
    """eigh_symmetric(lap), plus a copy of what LAPACK returned to it."""
    calls = []
    eigh = np.linalg.eigh

    def spy(a):
        values, vectors = eigh(a)
        calls.append((values.copy(), vectors.copy()))
        return values, vectors

    with mock.patch.object(np.linalg, "eigh", spy):
        dec = eigh_symmetric(lap)
    (values, vectors), = calls
    return dec, values, vectors


def dense_eigenvectors(sizes, values, vectors):
    """Eigenvalues and n×n eigenvectors from a batched block solve: each
    block's own eigenpairs scattered into its diagonal block, columns in
    stable eigenvalue order."""
    own = np.concatenate([values[j, :size] for j, size in enumerate(sizes)])
    order = np.argsort(own, kind="stable")
    out = np.zeros((own.size, own.size))
    start = 0
    for block, size in zip(vectors, sizes):
        out[start : start + size, start : start + size] = block[:size, :size]
        start += size
    return own[order], out[:, order]


@settings(deadline=None, max_examples=150)
@given(cut_bands())
@example(ConnectionMatrix(np.ones(6), np.zeros(5), np.zeros(4)))  # blocks of size 1
@example(ConnectionMatrix(np.ones(6), [0.5, 1.5, 0.0, 0.5, 1.5], [0.25, 0.0, 0.0, 0.25]))  # ties
@example(ConnectionMatrix(np.ones(7), np.full(6, 0.5), np.full(5, 0.25)))  # one block
def test_embedding_matches_dense_eigenvectors(w):
    for form in LaplacianForm:
        dec, values, vectors = solve_with_raw_output(build_laplacian(w, form))
        ref_values, ref_vectors = dense_eigenvectors(solved_sizes(dec), values, vectors)
        assert np.array_equal(dec.values, ref_values)
        for k in range(1, w.n + 1):
            want = ref_vectors[:, :k].copy()
            if form is LaplacianForm.SYMMETRIC_NORMALIZED:
                norms = np.linalg.norm(want, axis=1)
                want[norms > 0.0] /= norms[norms > 0.0, None]
            assert np.array_equal(spectral_embed(dec, k, form), want), (form, k)


class TestBlockSolve:
    @pytest.mark.parametrize(
        "w",
        [
            ConnectionMatrix([1.3], [], []),
            ConnectionMatrix([1.0, 0.7], [0.4], []),
            ConnectionMatrix([1.0, 2.0], [0.0], []),
            ConnectionMatrix(np.ones(7), [0.5, 1.0, 0.2, 0.9, 0.3, 0.8], [0.1, 0.0, 0.6, 0.0, 0.4]),
        ],
        ids=["n1", "n2", "n2-cut", "one-block"],
    )
    def test_fixed_cases(self, w):
        for form in LaplacianForm:
            check_block_solve(w, form)

    def test_all_singletons(self):
        # b = n blocks of m = 1: every eigenvalue is 0, and the stable
        # sort keeps the blocks' unit vectors in node order.
        w = ConnectionMatrix(np.ones(6), np.zeros(5), np.zeros(4))
        for form in LaplacianForm:
            check_block_solve(w, form)
            dec = eigh_symmetric(build_laplacian(w, form))
            assert dec.stack.shape == (6, 1, 1)
            assert np.array_equal(dec.values, np.zeros(6))
            assert np.array_equal(dec.columns(6), np.eye(6))

    def test_identical_blocks_tie_across_blocks(self):
        # Two copies of one three-node block: every eigenvalue appears
        # twice, once from each block, and the stable sort keeps the
        # first block's copy first.
        w = ConnectionMatrix(np.ones(6), [0.5, 1.5, 0.0, 0.5, 1.5], [0.25, 0.0, 0.0, 0.25])
        for form in LaplacianForm:
            check_block_solve(w, form)
            lap = build_laplacian(w, form)
            dense = dense_matrix(lap)
            assert np.array_equal(dense[:3, :3], dense[3:, 3:])
            dec = eigh_symmetric(lap)
            assert solved_sizes(dec) == [3, 3]
            assert np.array_equal(dec.values[0::2], dec.values[1::2])
            vectors = dec.columns(6)
            assert np.array_equal(vectors[:3, 0::2], vectors[3:, 1::2])
            assert not vectors[3:, 0::2].any() and not vectors[:3, 1::2].any()

    def test_padding_does_not_leak(self):
        # Blocks of sizes 1, 4 and 2: the padding's eigenvalues sit above
        # every block's and are dropped.
        w = ConnectionMatrix(np.ones(7), [0.0, 2.0, 3.0, 1.0, 0.0, 5.0], [0.0, 1.0, 1.0, 0.0, 0.0])
        for form in LaplacianForm:
            lap = build_laplacian(w, form)
            dec = eigh_symmetric(lap)
            assert solved_sizes(dec) == [1, 4, 2] and dec.stack.shape == (3, 4, 4)
            assert dec.n == 7
            assert dec.values.max() <= np.abs(dense_matrix(lap)).sum(axis=1).max()

    @pytest.mark.parametrize("sizes", [[600], [38] * 8 + [37] * 8], ids=["connected", "16-blocks"])
    def test_peak_memory_is_under_three_padded_stacks(self, sizes):
        # The bands, one padded (b, m, m + 2) input and the (b, m, m)
        # eigenvectors: no symmetrized copy or mirrored bands on top.
        n = sum(sizes)
        off1, off2 = np.full(n - 1, 0.5), np.full(n - 2, 0.25)
        for edge in np.cumsum(sizes)[:-1]:
            off1[edge - 1] = 0.0
            off2[edge - 2 : edge] = 0.0
        w = ConnectionMatrix(np.ones(n), off1, off2)
        stack_bytes = 8 * len(sizes) * max(sizes) ** 2
        for form in LaplacianForm:
            tracemalloc.start()
            try:
                dec = eigh_symmetric(build_laplacian(w, form))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert solved_sizes(dec) == sizes
            assert peak < 3 * stack_bytes, (form, peak / stack_bytes)


class TestChooseK:
    def test_counts_at_or_below_cut(self):
        assert choose_k([0.0, 0.1, 0.2], 0.15) == 2
        assert choose_k([0.0, 0.1, 0.2], 0.1) == 2  # inclusive
        assert choose_k([0.0, 0.1, 0.2], 5.0) == 3

    def test_clamps_to_one(self):
        assert choose_k([0.5, 1.0], 1e-6) == 1

    def test_counts_numerically_negative_zeros(self):
        assert choose_k([-1e-12, 0.3], 1e-9) == 1

    def test_rejects_nonpositive_cut(self):
        with pytest.raises(ValueError, match="positive"):
            choose_k([0.0], 0.0)
        with pytest.raises(ValueError, match="positive"):
            choose_k([0.0], -0.1)


class TestEmbedding:
    def test_unnormalized_takes_columns_verbatim(self):
        dec = eigh_symmetric(build_laplacian(two_block_w(), LaplacianForm.UNNORMALIZED))
        emb = spectral_embed(dec, 2, LaplacianForm.UNNORMALIZED)
        assert np.array_equal(emb, dec.columns(2))
        assert not np.allclose(np.linalg.norm(emb, axis=1), 1.0)

    def test_normalized_rows_have_unit_norm(self):
        dec = eigh_symmetric(
            build_laplacian(two_block_w(), LaplacianForm.SYMMETRIC_NORMALIZED)
        )
        emb = spectral_embed(dec, 2, LaplacianForm.SYMMETRIC_NORMALIZED)
        assert emb.shape == (5, 2)
        assert np.linalg.norm(emb, axis=1) == pytest.approx(np.ones(5), abs=1e-12)

    def test_zero_rows_survive_normalization(self):
        # One block holding both nodes, with eigenvector columns e1 and 0.
        dec = EigenDecomposition(
            values=np.array([0.0, 1.0]),
            stack=np.array([[[0.0, 0.0], [1.0, 0.0]]]),
            row=np.array([0, 1]),
            block=np.array([0, 0]),
            column=np.array([0, 1]),
        )
        emb = spectral_embed(dec, 1, LaplacianForm.SYMMETRIC_NORMALIZED)
        assert np.array_equal(emb, [[0.0], [1.0]])
        rows = embed_blocks(dec, 1, LaplacianForm.SYMMETRIC_NORMALIZED)
        assert np.array_equal(rows.blocks, [[[0.0], [1.0]]])

    def test_k_out_of_range(self):
        dec = eigh_symmetric(SymmetricBands(np.tile([0.0, 0.0, 1.0], (3, 1))))
        for k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                spectral_embed(dec, k, LaplacianForm.UNNORMALIZED)
            with pytest.raises(ValueError, match="out of range"):
                embed_blocks(dec, k, LaplacianForm.UNNORMALIZED)


class TestZeroEigenspace:
    def test_multiplicity_counts_components(self):
        for form in LaplacianForm:
            dec = eigh_symmetric(build_laplacian(two_block_w(), form))
            assert zero_eig_multiplicity(dec) == 2

    def test_indicator_span_residual_small_for_true_blocks(self):
        w = two_block_w()
        blocks = [[0, 1], [2, 3, 4]]
        for form in LaplacianForm:
            dec = eigh_symmetric(build_laplacian(w, form))
            deg = w.degrees() if form is LaplacianForm.SYMMETRIC_NORMALIZED else None
            assert indicator_span_residual(dec, blocks, form, degrees=deg) <= 1e-8

    def test_indicator_span_residual_large_for_wrong_blocks(self):
        w = two_block_w()
        dec = eigh_symmetric(build_laplacian(w, LaplacianForm.UNNORMALIZED))
        wrong = [[0, 1, 2], [3, 4]]
        assert indicator_span_residual(dec, wrong, LaplacianForm.UNNORMALIZED) > 0.5

    def test_normalized_form_requires_degrees(self):
        dec = eigh_symmetric(
            build_laplacian(two_block_w(), LaplacianForm.SYMMETRIC_NORMALIZED)
        )
        with pytest.raises(ValueError, match="degrees"):
            indicator_span_residual(dec, [[0, 1], [2, 3, 4]], LaplacianForm.SYMMETRIC_NORMALIZED)

    def test_partition_validation(self):
        w = two_block_w()
        kind = CutKind.RATIO
        with pytest.raises(ValueError, match="empty part"):
            cut_objective(w, [[0, 1, 2, 3, 4], []], kind)
        with pytest.raises(ValueError, match="out of range"):
            cut_objective(w, [[0, 1], [2, 3, 5]], kind)
        with pytest.raises(ValueError, match="exactly once"):
            cut_objective(w, [[0, 1], [1, 2, 3, 4]], kind)
        with pytest.raises(ValueError, match="exactly once"):
            cut_objective(w, [[0, 1], [2, 3]], kind)
        with pytest.raises(ValueError, match="must be integers"):
            cut_objective(w, [[0, 1], [2, 3, 3.5]], kind)
        with pytest.raises(ValueError, match="unknown cut kind 'ratio'"):
            cut_objective(w, [[0, 1], [2, 3, 4]], "ratio")


class TestCutObjectives:
    def test_non_integer_index_is_refused(self):
        w = ConnectionMatrix(np.ones(3), [1.0, 1.0], [0.5])
        for kind in CutKind:
            # Truncating 1.4 would score [[0, 1], [2]].
            with pytest.raises(ValueError, match="must be integers"):
                cut_objective(w, [[0, 1.4], [2]], kind)

    def test_frozen_two_node_values(self):
        w = ConnectionMatrix([1.0, 1.0], [0.5], [])
        split = [[0], [1]]
        assert cut_objective(w, split, CutKind.RATIO) == pytest.approx(1.0)
        assert cut_objective(w, split, CutKind.NORMALIZED) == pytest.approx(2 / 3)

    def test_frozen_path_values(self):
        w = ConnectionMatrix([1.0, 1.0, 1.0], [1.0, 1.0], [0.0])
        split = [[0], [1, 2]]
        # Boundary weight 1 on both sides; degrees are [2, 3, 2].
        assert cut_objective(w, split, CutKind.RATIO) == pytest.approx(1.5)
        assert cut_objective(w, split, CutKind.NORMALIZED) == pytest.approx(0.7)

    def test_whole_graph_partition_costs_nothing(self):
        w = two_block_w()
        assert cut_objective(w, [list(range(5))], CutKind.RATIO) == 0.0
        assert cut_objective(w, [list(range(5))], CutKind.NORMALIZED) == 0.0

    def test_scaling_behavior(self):
        rng = np.random.default_rng(8)
        w = ConnectionMatrix(np.ones(6), rng.uniform(0.1, 2.0, 5), rng.uniform(0.0, 1.0, 4))
        parts = [[0, 1], [2, 3, 4], [5]]
        base_ratio = cut_objective(w, parts, CutKind.RATIO)
        base_ncut = cut_objective(w, parts, CutKind.NORMALIZED)
        for c in (0.5, 2.0, 10.0):
            scaled = ConnectionMatrix(w.diag * c, w.off1 * c, w.off2 * c)
            assert cut_objective(scaled, parts, CutKind.RATIO) == pytest.approx(
                c * base_ratio, rel=1e-12
            )
            assert cut_objective(scaled, parts, CutKind.NORMALIZED) == pytest.approx(
                base_ncut, rel=1e-12
            )


def dense_cut(w, parts, kind):
    """The cut objective by its definition, over the dense matrix."""
    full = dense_matrix(w)
    degrees = full.sum(axis=1)
    total = 0.0
    for part in parts:
        inside = np.isin(np.arange(w.n), part)
        boundary = full[np.ix_(inside, ~inside)].sum()
        size = inside.sum() if kind is CutKind.RATIO else degrees[inside].sum()
        total += boundary / size if size > 0 else 0.0
    return total


@settings(deadline=None, max_examples=200)
@given(cut_bands(), st.data())
def test_cut_objective_matches_dense_reference(w, data):
    # Some diagonal entries are 0, so a node cut off on both sides makes a
    # part of zero volume; parts are drawn as labels, so most are not
    # contiguous.
    zero = data.draw(st.lists(st.booleans(), min_size=w.n, max_size=w.n))
    w = ConnectionMatrix(np.where(zero, 0.0, w.diag), w.off1, w.off2)
    labels = np.array(data.draw(st.lists(st.integers(0, w.n - 1), min_size=w.n, max_size=w.n)))
    parts = [np.flatnonzero(labels == j).tolist() for j in np.unique(labels)]
    for kind in CutKind:
        got, want = cut_objective(w, parts, kind), dense_cut(w, parts, kind)
        assert abs(got - want) <= 1e-12 * abs(want), (kind, got, want)


class TestBruteForce:
    def test_enumeration(self):
        got = list(contiguous_partitions(4, 2))
        assert got == [[[0], [1, 2, 3]], [[0, 1], [2, 3]], [[0, 1, 2], [3]]]
        assert len(list(contiguous_partitions(8, 4))) == math.comb(7, 3)
        assert list(contiguous_partitions(3, 1)) == [[[0, 1, 2]]]

    def test_finds_weak_link(self):
        w = ConnectionMatrix(np.ones(4), [5.0, 0.01, 5.0], [0.0, 0.0])
        parts, value = brute_force_best_contiguous(w, 2, CutKind.RATIO)
        assert parts == [[0, 1], [2, 3]]
        assert value == pytest.approx(0.01, rel=1e-12)

    def test_tie_break_prefers_earliest_boundary(self):
        w = ConnectionMatrix(np.ones(3), [1.0, 1.0], [0.0])
        parts, _ = brute_force_best_contiguous(w, 2, CutKind.RATIO)
        assert parts == [[0], [1, 2]]

    def test_guards(self):
        w = ConnectionMatrix(np.ones(17), np.zeros(16), np.zeros(15))
        with pytest.raises(ValueError, match="enumeration guard"):
            brute_force_best_contiguous(w, 2, CutKind.RATIO)
        small = ConnectionMatrix(np.ones(3), np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError, match="out of range"):
            brute_force_best_contiguous(small, 4, CutKind.RATIO)
