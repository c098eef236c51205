import math

import numpy as np
import pytest

from segspectral import EigenConvergenceError, eigh_symmetric

RESID_TOL = 1e-9
ORTH_TOL = 1e-8


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
    dec = eigh_symmetric([[5.0]])
    assert np.array_equal(dec.values, [5.0])
    assert np.array_equal(dec.columns(dec.n), [[1.0]])


def test_two_by_two_exact():
    dec = eigh_symmetric([[0.0, 1.0], [1.0, 0.0]])
    assert dec.values == pytest.approx([-1.0, 1.0], abs=1e-14)
    s = 1 / math.sqrt(2)
    # Each eigenvector is defined only up to its sign.
    got = dec.columns(dec.n)
    got *= np.sign(got[0])
    assert got == pytest.approx(np.array([[s, s], [-s, s]]), abs=1e-14)


def test_diagonal_input():
    dec = eigh_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(dec.values, [1.0, 2.0, 3.0])
    assert np.array_equal(dec.columns(dec.n), np.eye(3)[:, [1, 2, 0]])


def test_identity_has_degenerate_spectrum():
    dec = eigh_symmetric(np.eye(6))
    assert np.array_equal(dec.values, np.ones(6))
    check_decomposition(np.eye(6), dec)


def test_random_matrices():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 8, 13, 21, 34, 40):
        for _ in range(3):
            a = rng.normal(size=(n, n))
            a = a + a.T
            dec = eigh_symmetric(a)
            check_decomposition(a, dec)
            assert dec.values == pytest.approx(
                np.linalg.eigvalsh(a), abs=1e-9 * max(1.0, np.linalg.norm(a))
            )


def test_clustered_eigenvalues():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    vals = np.array([1.0] * 4 + [2.0] * 4 + [1e4] * 4)
    a = (q * vals) @ q.T
    a = 0.5 * (a + a.T)
    dec = eigh_symmetric(a)
    check_decomposition(a, dec)
    assert dec.values == pytest.approx(np.sort(vals), rel=1e-10)


def test_deterministic():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, 9))
    a = a + a.T
    d1 = eigh_symmetric(a)
    d2 = eigh_symmetric(a)
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.columns(9), d2.columns(9))


def test_input_validation():
    with pytest.raises(ValueError, match="square"):
        eigh_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        eigh_symmetric(np.zeros(4))
    with pytest.raises(ValueError, match="1x1"):
        eigh_symmetric(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="finite"):
        eigh_symmetric([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        eigh_symmetric([[0.0, 1.0], [0.5, 0.0]])


def test_tiny_asymmetry_is_symmetrized():
    a = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
    dec = eigh_symmetric(a)
    assert dec.values == pytest.approx([0.5, 1.5], abs=1e-12)


def test_lapack_failure_is_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        eigh_symmetric([[0.0, 1.0], [1.0, 0.0]])
