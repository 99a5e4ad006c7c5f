"""Factored pairs and the eig2 two-term solver against dense desk-scale oracles."""

import copy

import numpy as np
import pytest

from conftest import make_rng, node_residual
from kroneig import sylvester
from kroneig.blr import KroneckerSumOperator
from kroneig.errors import (
    DegenerateInterval,
    DimensionMismatch,
    OutOfRange,
    SingularShiftedSolve,
    StructureMismatch,
)
from kroneig.sylvester import (
    EigenbasisPreconditioner,
    adi_shifts,
    pair_norm,
    pair_truncate,
)


def _tridiag_spd(n, scale=1.0):
    return scale * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) + np.eye(n)


def _two_term(K_hat, K_til):
    """I (x) K_hat + K_til (x) I, whose node equation is the two-term one."""
    n_hat, n_til = K_hat.shape[0], K_til.shape[0]
    return KroneckerSumOperator(((np.eye(n_til), K_hat), (K_til, np.eye(n_hat))))


def test_pair_algebra_matches_dense():
    rng = make_rng(50)
    F1 = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    G1 = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    X1 = F1 @ G1.T
    assert abs(pair_norm(F1, G1) - np.linalg.norm(X1)) < 1e-11


def test_pair_truncate_contract():
    rng = make_rng(51)
    F = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    G = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
    X = F @ G.T
    F2, G2 = pair_truncate(F, G, 1e-2)
    assert np.linalg.norm(F2 @ G2.T - X) <= 1e-2 * np.linalg.norm(X) + 1e-13
    F3, G3 = pair_truncate(F, G, 0.0, r_max=2)
    assert F3.shape[1] == 2 and G3.shape[1] == 2
    # Rank cap gives the best rank-2 approximation.
    s = np.linalg.svd(X, compute_uv=False)
    best = np.sqrt(np.sum(s[2:] ** 2))
    assert abs(np.linalg.norm(F3 @ G3.T - X) - best) < 1e-10
    with pytest.raises(DimensionMismatch):
        pair_truncate(F, G[:, :3], 0.0)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("ranks", [(9, 14), (9, 7)])
def test_pair_truncate_wide_factors(ranks, complex_):
    # Factors with at least as many columns as rows skip their QR: on one
    # side (F 6x9 wide, G 14x9 tall) and on both (F 6x9, G 7x9).
    rng = make_rng(57)
    r, n_til = ranks

    def draw(*shape):
        M = rng.standard_normal(shape)
        return M + 1j * rng.standard_normal(shape) if complex_ else M

    F, G = draw(6, r), draw(n_til, r)
    X = F @ G.T
    s = np.linalg.svd(X, compute_uv=False)
    F2, G2 = pair_truncate(F, G, 0.0)
    assert np.linalg.norm(F2 @ G2.T - X) <= 1e-12 * np.linalg.norm(X)
    F3, G3 = pair_truncate(F, G, 0.0, r_max=2)
    assert F3.shape == (6, 2) and G3.shape == (n_til, 2)
    best = np.sqrt(np.sum(s[2:] ** 2))
    assert abs(np.linalg.norm(F3 @ G3.T - X) - best) < 1e-10
    # Balanced split: F3^H F3 = G3^H G3 = diag of the kept singular values.
    assert np.allclose(F3.conj().T @ F3, np.diag(s[:2]), atol=1e-10)
    assert np.allclose(G3.conj().T @ G3, np.diag(s[:2]), atol=1e-10)
    F0, G0 = pair_truncate(0.0 * F, G, 0.0)
    assert F0.shape == (6, 0) and G0.shape == (n_til, 0)


def test_eigenbasis_rejects_non_hermitian_factor():
    # eig2 reads K through eigh, which sees one triangle only: a factor
    # that is not Hermitian would be solved as a different matrix
    rng = make_rng(53)
    K = _tridiag_spd(8)
    skew = K + np.triu(0.1 * rng.standard_normal((8, 8)), 1)
    anti = rng.standard_normal((8, 8))
    for bad in (skew, K + 0.5j * anti):
        with pytest.raises(StructureMismatch):
            EigenbasisPreconditioner(bad, K)
        with pytest.raises(StructureMismatch):
            EigenbasisPreconditioner(K, bad)
    EigenbasisPreconditioner(K + 0.5j * (anti - anti.T), K)


def test_adi_shifts_pattern_and_validation():
    shifts = adi_shifts((0.5, 40.0), (1.0, 30.0), 6)
    assert len(shifts) == 6
    ps = np.array([a for a, b in shifts])
    for a, b in shifts:
        assert b == -a
    assert np.all(ps >= 0.5) and np.all(ps <= 40.0)
    # Geometric ladder is increasing.
    assert np.all(np.diff(ps) > 0)
    with pytest.raises(OutOfRange):
        adi_shifts((1.0, 2.0), (1.0, 2.0), 0)
    with pytest.raises(DegenerateInterval):
        adi_shifts((-3.0, -1.0), (-3.0, -1.0), 4)


def test_eigenbasis_preconditioner_exact_two_term():
    rng = make_rng(56)
    K_hat, K_til = _tridiag_spd(10), _tridiag_spd(9, scale=0.8)
    F, G = rng.standard_normal((10, 1)), rng.standard_normal((9, 1))
    z = 3.0 + 1.0j
    M = EigenbasisPreconditioner(K_hat, K_til)
    Fp, Gp = M.solve_pair(z, F, G, tol=1e-13, r_max=40, rng=rng)
    assert node_residual(_two_term(K_hat, K_til), z, Fp @ Gp.T, F @ G.T) <= 1e-10


def test_eigenbasis_preconditioner_hermitian_factor():
    # A complex Hermitian K_hat (tridiagonal plus 0.5i times an
    # antisymmetric part): the forward transform takes Q^H, so the two-term
    # solve is exact on the fADI branch (a rank-2 input at a nonreal node,
    # whose pair stays below the cap) and on the dense one (a real node,
    # exact as (W, I) past the break-even)
    rng = make_rng(58)
    n = 40
    S = rng.standard_normal((n, n))
    K_hat = _tridiag_spd(n) + 0.5j * (S - S.T)
    K_til = _tridiag_spd(n, scale=0.8)
    A = _two_term(K_hat, K_til)
    M = EigenbasisPreconditioner(K_hat, K_til)
    assert np.iscomplexobj(M.Q_hat) and not np.iscomplexobj(M.Q_til)
    F = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    G = rng.standard_normal((n, 2))
    for z, fadi in ((5.0 + 10.0j, True), (-2.0, False)):
        Fp, Gp = M.solve_pair(z, F, G, tol=1e-14, r_max=40, rng=make_rng(59))
        assert (Fp.shape[1] < n) == fadi
        assert node_residual(A, z, Fp @ Gp.T, F @ G.T) <= 1e-12


def test_eigenbasis_preconditioner_pole():
    K = np.diag([1.0, 2.0])
    M = EigenbasisPreconditioner(K)
    with pytest.raises(SingularShiftedSolve):
        M.solve_pair(2.0, np.ones((2, 1)), np.ones((2, 1)), tol=1e-10, r_max=10, rng=make_rng(57))


def test_eigenbasis_preconditioner_compares_factors_without_densifying(monkeypatch):
    # Two equal banded factors share one eigenbasis; only K_hat is made
    # dense, for its eigendecomposition, not both for the comparison.
    from kroneig.factors import Banded

    band = np.diag(2.0 * np.ones(30)) - np.diag(np.ones(29), 1) - np.diag(np.ones(29), -1)
    K_hat, K_til = Banded(band), Banded(band)
    densified = []
    dense = Banded.dense
    monkeypatch.setattr(Banded, "dense", lambda self: densified.append(self) or dense(self))
    M = EigenbasisPreconditioner(K_hat, K_til)
    assert M.Q_til is M.Q_hat
    assert densified == [K_hat]


def test_eigenbasis_preconditioner_real_products_any_layout():
    # solve_pair multiplies its real eigenbases into complex factors as real
    # GEMMs on the interleaved view; Fortran-ordered and strided factors
    # must give the complex-GEMM result.
    rng = make_rng(64)
    z = 5.0 + 1.5j
    M = EigenbasisPreconditioner(_tridiag_spd(12), _tridiag_spd(11, scale=0.8))
    A = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    _, s, Vh = np.linalg.svd(A)
    G = (Vh.T * s)[:, ::2]
    F = np.asfortranarray(rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6)))
    assert not (G.flags.c_contiguous or G.flags.f_contiguous)
    Fp, Gp = M.solve_pair(z, F, G, tol=0.0, r_max=40, rng=rng)
    Qh, Qt = M.Q_hat.astype(complex), M.Q_til.astype(complex)
    D = z - M.lam_hat[:, None] - M.lam_til[None, :]
    ref = Qh @ (((Qh.T @ F) @ (Qt.T @ G).T) / D) @ Qt.T
    assert np.linalg.norm(Fp @ Gp.T - ref) <= 1e-13 * np.linalg.norm(ref)


def _eigenbasis_case(rank, n_hat=60, n_til=57):
    # K with spectrum in about [0.4, 4.6]; z = 2.5 + 6j lies over the sum
    # spectrum, where fADI reaches 1e-12 in 8 steps a column
    rng = make_rng(70)

    def K(n, scale):
        T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        return scale * T + np.diag(rng.uniform(0.0, 1.0, n))

    M = EigenbasisPreconditioner(K(n_hat, 1.0), K(n_til, 0.8))
    F = rng.standard_normal((n_hat, rank))
    G = rng.standard_normal((n_til, rank))
    return M, F, G


@pytest.mark.parametrize("rank", [1, 3])
def test_eigenbasis_fadi_branch(rank, monkeypatch):
    # A low-rank input at a nonreal node takes the fADI branch: it matches
    # the exact eigenbasis quotient, draws no random numbers and never
    # reaches the dense compression.
    M, F, G = _eigenbasis_case(rank)
    z = 2.5 + 6.0j
    tol = 1e-12

    def dense_path(*args):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(sylvester, "_compress_dense", dense_path)
    rng = make_rng(71)
    state = copy.deepcopy(rng.bit_generator.state)
    Fp, Gp = M.solve_pair(z, F, G, tol, 40, rng)
    np.testing.assert_equal(rng.bit_generator.state, state)
    D = z - M.lam_hat[:, None] - M.lam_til[None, :]
    f, g = M.Q_hat.T @ F, M.Q_til.T @ G
    ref = M.Q_hat @ ((f @ g.T) / D) @ M.Q_til.T
    assert np.linalg.norm(Fp @ Gp.T - ref) <= 1e-10 * np.linalg.norm(ref)
    # the recurrence itself stops on its residual, in the eigenbasis
    a = z / 2.0 - M.lam_hat
    b = z / 2.0 - M.lam_til
    target = tol * np.linalg.norm(f @ g.T)
    Z, Y = sylvester._diagonal_fadi(a, b, f, g, target, max_steps=60)
    X = Z @ Y.T
    R = a[:, None] * X + X * b[None, :] - f @ g.T
    assert np.linalg.norm(R) <= target


def test_eigenbasis_high_rank_takes_dense_path():
    # rank 20 at n = 57 leaves fADI one step, short of tol: the output is
    # the dense path's, random range finder (r_max + 8 <= n/2) included
    M, F, G = _eigenbasis_case(20)
    z = 2.5 + 6.0j
    Fp, Gp = M.solve_pair(z, F, G, 1e-12, 10, make_rng(72))
    D = z - M.lam_hat[:, None] - M.lam_til[None, :]
    W = sylvester._real_matmul(M.Q_hat.T, F) @ sylvester._real_matmul(M.Q_til.T, G).T / D
    Fd, Gd = sylvester._compress_dense(W, 1e-12, 10, make_rng(72))
    assert np.array_equal(Fp, sylvester._real_matmul(M.Q_hat, Fd))
    assert np.array_equal(Gp, sylvester._real_matmul(M.Q_til, Gd))


def test_eigenbasis_zero_budget_skips_fadi(monkeypatch):
    # rank 30 at n = 57 leaves fADI no step at all: solve_pair goes straight
    # to the dense path without running the fADI prelude
    M, F, G = _eigenbasis_case(30)
    z = 2.5 + 6.0j

    def fadi(*args):
        raise AssertionError("fADI run with a zero step budget")

    monkeypatch.setattr(sylvester, "_diagonal_fadi", fadi)
    Fp, Gp = M.solve_pair(z, F, G, 1e-12, 10, make_rng(74))
    D = z - M.lam_hat[:, None] - M.lam_til[None, :]
    W = sylvester._real_matmul(M.Q_hat.T, F) @ sylvester._real_matmul(M.Q_til.T, G).T / D
    Fd, Gd = sylvester._compress_dense(W, 1e-12, 10, make_rng(74))
    assert np.array_equal(Fp, sylvester._real_matmul(M.Q_hat, Fd))


def test_eigenbasis_node_next_to_spectrum():
    # Im z = 1e-3 over a point of the sum spectrum: steps can amplify rows
    # by about spread / Im z; the result is finite, from fADI or the
    # dense path, and no overflow warning escapes
    M, F, G = _eigenbasis_case(1)
    z = M.lam_hat[20] + M.lam_til[30] + 1e-3j
    Fp, Gp = M.solve_pair(z, F, G, 1e-12, 40, make_rng(73))
    assert np.all(np.isfinite(Fp)) and np.all(np.isfinite(Gp))
    assert Fp.shape[1] == Gp.shape[1] >= 1


@pytest.mark.parametrize("shape", [(20, 20), (20, 15)])
def test_compress_dense_break_even(shape):
    # A pair at r_max storing at least n1 * n2 entries: X itself, exactly;
    # one rank below the break-even: a truncated pair
    rng = make_rng(65)
    W = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n1, n2 = shape
    r_even = -(-n1 * n2 // (n1 + n2))
    F, G = sylvester._compress_dense(W, 1e-12, r_even, rng)
    assert np.array_equal(F @ G.T, W)
    F, G = sylvester._compress_dense(W, 1e-12, r_even - 1, rng)
    assert F.shape[1] == G.shape[1] <= r_even - 1
