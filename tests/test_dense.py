"""Small dense kernels: factorizations, truncation, generalized Ritz."""

import numpy as np
import pytest
import scipy.linalg

from conftest import make_rng
from kroneig.dense import (
    cholesky,
    eig_sym_gen,
    qr_econ,
    qr_unless_wide,
    svd_trunc,
    svd_trunc_left,
    two_norm,
)
from kroneig.errors import BtilNotSPD, KroneigError, NotPositiveDefinite, OutOfRange


def test_qr_econ_reconstructs_and_is_economy():
    rng = make_rng(10)
    for rows, cols in [(12, 5), (5, 5), (30, 1)]:
        M = rng.standard_normal((rows, cols))
        Q, R = qr_econ(M)
        assert Q.shape == (rows, cols)
        assert R.shape == (cols, cols)
        assert np.allclose(Q @ R, M, atol=1e-12)
        assert np.allclose(Q.T @ Q, np.eye(cols), atol=1e-12)


def test_qr_econ_complex():
    rng = make_rng(11)
    M = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    Q, R = qr_econ(M)
    assert np.allclose(Q @ R, M, atol=1e-12)
    assert np.allclose(Q.conj().T @ Q, np.eye(4), atol=1e-12)


def test_svd_trunc_lossless_at_zero_tol():
    rng = make_rng(12)
    M = rng.standard_normal((10, 7))
    U, s, Vh = svd_trunc(M, tol=0.0)
    assert np.allclose(U @ np.diag(s) @ Vh, M, atol=1e-12)
    assert s.shape == (7,)
    assert np.all(np.diff(s) <= 0)


def test_svd_trunc_energy_cut():
    # Singular values 1, 1e-3, 1e-6, ...: the discarded tail must stay
    # below tol times the full spectral energy.
    svals = np.array([1.0, 1e-3, 1e-6, 1e-9])
    rng = make_rng(13)
    Q1, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    M = Q1 @ np.diag(svals) @ Q2.T
    for tol, expect_rank in [(1e-2, 1), (1e-5, 2), (1e-8, 3), (0.0, 4)]:
        U, s, Vh = svd_trunc(M, tol=tol)
        assert len(s) == expect_rank
        tail = np.linalg.norm(M - U @ np.diag(s) @ Vh)
        assert tail <= tol * np.linalg.norm(svals) + 1e-14


def test_svd_trunc_rank_cap_binds():
    rng = make_rng(14)
    M = rng.standard_normal((9, 9))
    U, s, Vh = svd_trunc(M, tol=0.0, r_max=3)
    assert len(s) == 3
    # Best rank-3 approximation error equals the fourth singular value.
    full = np.linalg.svd(M, compute_uv=False)
    err = two_norm(M - U @ np.diag(s) @ Vh)
    assert abs(err - full[3]) < 1e-10


def test_svd_trunc_zero_matrix():
    U, s, Vh = svd_trunc(np.zeros((5, 3)), tol=0.0)
    assert len(s) == 0
    assert U.shape == (5, 0) and Vh.shape == (0, 3)


def test_svd_trunc_validation():
    M = np.eye(3)
    with pytest.raises(OutOfRange):
        svd_trunc(M, tol=-1e-3)
    with pytest.raises(OutOfRange):
        svd_trunc(M, tol=0.0, r_max=0)


def _graded_matrix(rng, rows, cols, complex_, floor=1e-14):
    """rows x cols matrix with singular values graded from 1 down to floor."""
    k = min(rows, cols)

    def draw(*shape):
        M = rng.standard_normal(shape)
        return M + 1j * rng.standard_normal(shape) if complex_ else M

    Q1, _ = np.linalg.qr(draw(rows, k))
    Q2, _ = np.linalg.qr(draw(cols, k))
    return (Q1 * np.logspace(0, np.log10(floor), k)) @ Q2.conj().T


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("shape", [(9, 60), (60, 9), (9, 9)])
def test_svd_trunc_left_matches_svd_trunc(shape, complex_):
    # The left-only kernel reduces wide input by QR first; it must cut at
    # the same rank with the same singular values and left subspace, also
    # where the cut falls deep in a spectrum graded down to 1e-14.
    rng = make_rng(18)
    M = _graded_matrix(rng, *shape, complex_)
    norm = np.linalg.norm(M, 2)
    for tol in (0.0, 1e-12, 1e-3):
        for r_max in (None, 3):
            U_ref, s_ref, _ = svd_trunc(M, tol, r_max)
            U, s = svd_trunc_left(M, tol, r_max)
            assert U.shape == U_ref.shape and U.dtype == U_ref.dtype
            assert np.all(np.abs(s - s_ref) <= 1e-13 * norm)
            assert np.allclose(U.conj().T @ U, np.eye(s.size), atol=1e-12)
            # Projectors onto the kept left subspaces agree where M has
            # energy (single vectors of tiny, close values are ill-posed).
            P_diff = U @ (U.conj().T @ M) - U_ref @ (U_ref.conj().T @ M)
            assert np.linalg.norm(P_diff, 2) <= 1e-13 * norm


def test_svd_trunc_left_zero_matrix_and_validation():
    for shape in [(3, 8), (8, 3), (0, 4)]:
        U, s = svd_trunc_left(np.zeros(shape), tol=0.0)
        assert len(s) == 0 and U.shape == (shape[0], 0)
    M = np.ones((2, 5))
    with pytest.raises(OutOfRange):
        svd_trunc_left(M, tol=-1e-3)
    with pytest.raises(OutOfRange):
        svd_trunc_left(M, tol=0.0, r_max=0)


def test_qr_unless_wide():
    rng = make_rng(19)
    tall = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    lift, R = qr_unless_wide(tall)
    assert R.shape == (3, 3) and np.allclose(np.tril(R, -1), 0.0)
    assert np.allclose(lift(R), tall, atol=1e-12)
    Q = lift(np.eye(3))
    assert np.allclose(Q.conj().T @ Q, np.eye(3), atol=1e-12)
    for shape in [(4, 4), (4, 9)]:
        wide = rng.standard_normal(shape)
        lift, R = qr_unless_wide(wide)
        X = rng.standard_normal((4, 2))
        assert R is wide and lift(X) is X


def test_qr_unless_wide_lift_matches_explicit_q():
    # lift applies the kept Householder reflectors; it must agree with the
    # explicit Q of the same factorization for every dtype mix and layout.
    rng = make_rng(20)
    real = rng.standard_normal((30, 7))
    cplx = real + 1j * rng.standard_normal((30, 7))
    X_real = rng.standard_normal((7, 5))
    X_cplx = X_real + 1j * rng.standard_normal((7, 5))
    cases = [
        (real, X_cplx),
        (cplx, X_real),
        (real, np.asfortranarray(X_real)),
        (cplx, np.asfortranarray(X_cplx)),
        (real, np.asfortranarray(X_cplx)),
        (real, np.zeros((7, 0))),
        (cplx, np.zeros((7, 0))),
    ]
    for M, X in cases:
        lift, R = qr_unless_wide(M)
        Q, R_ref = scipy.linalg.qr(M, mode="economic")
        assert np.allclose(R, R_ref, rtol=0.0, atol=1e-13)
        Y = lift(X)
        assert Y.shape == (30, X.shape[1]) and Y.flags.c_contiguous
        assert Y.dtype == np.result_type(M, X)
        assert np.linalg.norm(Y - Q @ X) <= 1e-14 * np.linalg.norm(X)


def test_qr_unless_wide_lapack_info_raises(monkeypatch):
    # Valid inputs never make geqrf report info != 0 (the wrappers check
    # their arguments first), so a fake routine stands in for one that does.
    def geqrf(a, lwork, **kwargs):
        return a, np.zeros(2), np.ones(1), -1

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda names, arrays: (geqrf,))
    with pytest.raises(KroneigError, match="info=-1"):
        qr_unless_wide(np.ones((4, 2)))


def test_cholesky_lower_and_failure():
    rng = make_rng(15)
    B = rng.standard_normal((6, 6))
    G = B @ B.T + 6 * np.eye(6)
    L = cholesky(G)
    assert np.allclose(L @ L.T, G, atol=1e-10)
    assert np.allclose(L, np.tril(L))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([1.0, -1.0]))


def test_eig_sym_gen_matches_scipy_subset():
    rng = make_rng(16)
    k, want = 9, 4
    A0 = rng.standard_normal((k, k))
    A = 0.5 * (A0 + A0.T)
    Bf = rng.standard_normal((k, k))
    B = Bf @ Bf.T + k * np.eye(k)
    theta, C = eig_sym_gen(A, B, want)
    ref = scipy.linalg.eigh(A, B, eigvals_only=True)
    assert np.allclose(theta, ref[:want], atol=1e-11)
    assert np.all(np.diff(theta) >= -1e-13)
    # Eigenvector block is B-orthonormal and diagonalizes A.
    assert np.allclose(C.T @ B @ C, np.eye(want), atol=1e-10)
    assert np.allclose(C.T @ A @ C, np.diag(theta), atol=1e-9)


def test_eig_sym_gen_validation():
    A = np.diag([1.0, 2.0, 3.0])
    B = np.eye(3)
    with pytest.raises(OutOfRange):
        eig_sym_gen(A, B, 0)
    with pytest.raises(OutOfRange):
        eig_sym_gen(A, B, 4)
    with pytest.raises(BtilNotSPD):
        eig_sym_gen(A, np.diag([1.0, 1.0, -1.0]), 2)


def test_two_norm():
    rng = make_rng(17)
    M = rng.standard_normal((7, 4))
    assert abs(two_norm(M) - np.linalg.svd(M, compute_uv=False)[0]) < 1e-12
    assert two_norm(np.zeros((3, 2))) == 0.0
