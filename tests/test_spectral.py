import math

import numpy as np
import pytest

from segspectral import (
    ConnectionMatrix,
    CutKind,
    EigenDecomposition,
    LaplacianForm,
    brute_force_best_contiguous,
    build_laplacian,
    choose_k,
    contiguous_partitions,
    cut_objective,
    eigh_symmetric,
    indicator_span_residual,
    spectral_embed,
    zero_eig_multiplicity,
)


def two_block_w():
    # Nodes {0,1} and {2,3,4} joined internally, nothing across; note the
    # one-gap band entry at index i couples nodes i and i+2.
    return ConnectionMatrix(np.ones(5), [0.8, 0.0, 1.2, 0.6], [0.0, 0.0, 0.5])


class TestLaplacian:
    def test_unnormalized_frozen(self):
        w = ConnectionMatrix([1.0, 1.0], [0.5], [])
        lap = build_laplacian(w, LaplacianForm.UNNORMALIZED)
        assert np.array_equal(lap, [[0.5, -0.5], [-0.5, 0.5]])

    def test_symmetric_normalized_frozen(self):
        w = ConnectionMatrix([1.0, 1.0], [0.5], [])
        lap = build_laplacian(w, LaplacianForm.SYMMETRIC_NORMALIZED)
        third = 1.0 / 3.0
        np.testing.assert_allclose(lap, [[third, -third], [-third, third]], atol=1e-15)

    def test_row_sums_of_unnormalized_vanish(self):
        lap = build_laplacian(two_block_w(), LaplacianForm.UNNORMALIZED)
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
        assert np.array_equal(emb, dec.vectors[:, :2])
        assert not np.allclose(np.linalg.norm(emb, axis=1), 1.0)

    def test_normalized_rows_have_unit_norm(self):
        dec = eigh_symmetric(
            build_laplacian(two_block_w(), LaplacianForm.SYMMETRIC_NORMALIZED)
        )
        emb = spectral_embed(dec, 2, LaplacianForm.SYMMETRIC_NORMALIZED)
        assert emb.shape == (5, 2)
        assert np.linalg.norm(emb, axis=1) == pytest.approx(np.ones(5), abs=1e-12)

    def test_zero_rows_survive_normalization(self):
        dec = EigenDecomposition(
            values=np.array([0.0, 1.0]),
            vectors=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )
        emb = spectral_embed(dec, 1, LaplacianForm.SYMMETRIC_NORMALIZED)
        assert np.array_equal(emb, [[0.0], [1.0]])

    def test_k_out_of_range(self):
        dec = eigh_symmetric(np.eye(3))
        for k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                spectral_embed(dec, k, LaplacianForm.UNNORMALIZED)


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
        dec = eigh_symmetric(build_laplacian(w, LaplacianForm.UNNORMALIZED))
        form = LaplacianForm.UNNORMALIZED
        with pytest.raises(ValueError, match="empty part"):
            indicator_span_residual(dec, [[0, 1, 2, 3, 4], []], form)
        with pytest.raises(ValueError, match="out of range"):
            indicator_span_residual(dec, [[0, 1], [2, 3, 5]], form)
        with pytest.raises(ValueError, match="exactly once"):
            indicator_span_residual(dec, [[0, 1], [1, 2, 3, 4]], form)
        with pytest.raises(ValueError, match="exactly once"):
            indicator_span_residual(dec, [[0, 1], [2, 3]], form)


class TestCutObjectives:
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
            scaled = w.scaled(c)
            assert cut_objective(scaled, parts, CutKind.RATIO) == pytest.approx(
                c * base_ratio, rel=1e-12
            )
            assert cut_objective(scaled, parts, CutKind.NORMALIZED) == pytest.approx(
                base_ncut, rel=1e-12
            )


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
        w = ConnectionMatrix.identity(17)
        with pytest.raises(ValueError, match="enumeration guard"):
            brute_force_best_contiguous(w, 2, CutKind.RATIO)
        small = ConnectionMatrix.identity(3)
        with pytest.raises(ValueError, match="out of range"):
            brute_force_best_contiguous(small, 4, CutKind.RATIO)
