"""Hand-checked and property tests for the small linear algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camreid.errors import DegenerateInputError, InvalidInputError
from camreid.linalg import svd_thin


def test_svd_diagonal_hand_case():
    # diag(3, 4) has singular values {4, 3}, sorted descending.
    w = np.array([[3.0, 0.0], [0.0, 4.0]])
    fact = svd_thin(w)
    assert np.allclose(fact.sigma, [4.0, 3.0], atol=1e-12)
    recon = fact.u @ np.diag(fact.sigma) @ fact.vt
    assert np.allclose(recon, w, atol=1e-10)


def test_svd_rank_one_hand_case():
    # Outer product of unit vectors scaled by 5: one singular value 5, rest 0.
    u = np.array([0.6, 0.8])
    v = np.array([1.0, 0.0, 0.0])
    w = 5.0 * np.outer(u, v)
    fact = svd_thin(w)
    assert fact.sigma.shape == (2,)
    assert np.allclose(fact.sigma, [5.0, 0.0], atol=1e-10)
    assert np.allclose(np.abs(fact.u[:, 0]), u, atol=1e-10)


def test_svd_matches_numpy_singular_values():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        w = rng.standard_normal((m, n))
        fact = svd_thin(w)
        ref = np.linalg.svd(w, compute_uv=False)
        assert np.allclose(fact.sigma, ref, atol=1e-8)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        w = rng.standard_normal((m, n))
        fact = svd_thin(w)
        r = min(m, n)
        assert fact.u.shape == (m, r)
        assert fact.vt.shape == (r, n)
        assert np.allclose(fact.u @ np.diag(fact.sigma) @ fact.vt, w, atol=1e-8)
        assert np.allclose(fact.u.T @ fact.u, np.eye(r), atol=1e-8)
        assert np.allclose(fact.vt @ fact.vt.T, np.eye(r), atol=1e-8)
        assert np.all(np.diff(fact.sigma) <= 1e-12)


def test_svd_rank_deficient_stays_orthonormal():
    # Duplicated rows force rank 1; completed factors must stay orthonormal.
    w = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    fact = svd_thin(w)
    assert fact.sigma[1] == 0.0
    assert np.allclose(fact.u.T @ fact.u, np.eye(2), atol=1e-10)
    assert np.allclose(fact.vt @ fact.vt.T, np.eye(2), atol=1e-10)
    assert np.allclose(fact.u @ np.diag(fact.sigma) @ fact.vt, w, atol=1e-10)


def test_svd_wide_matrix_transpose_path():
    rng = np.random.default_rng(13)
    w = rng.standard_normal((3, 10))
    fact = svd_thin(w)
    assert fact.u.shape == (3, 3)
    assert fact.vt.shape == (3, 10)
    assert np.allclose(fact.u @ np.diag(fact.sigma) @ fact.vt, w, atol=1e-9)


def test_svd_preserves_float32_dtype():
    w = np.eye(3, dtype=np.float32)
    fact = svd_thin(w)
    assert fact.u.dtype == np.float32
    assert fact.sigma.dtype == np.float32
    assert fact.vt.dtype == np.float32


def test_svd_input_validation():
    with pytest.raises(InvalidInputError):
        svd_thin(np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        svd_thin(np.ones(4))
    with pytest.raises(InvalidInputError):
        svd_thin(np.array([[1.0, np.nan]]))
