"""Factored pairs and the eig2 two-term solver against dense desk-scale oracles."""

import copy

import numpy as np
import pytest

from conftest import make_rng, node_residual
from kroneig import sylvester
from kroneig.blr import KroneckerSumOperator
from kroneig.errors import (
    DegenerateInterval,
    OutOfRange,
    SingularShiftedSolve,
    StructureMismatch,
)
from kroneig.sylvester import (
    EigenbasisPreconditioner,
    TensorGalerkin,
    adi_shifts,
    pair_norm,
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


def _grown(F, G, cut, real):
    """A two-term family on an empty basis grown by the pair (F, G) at the
    cut; returns it and the part of F G^T its basis holds, U U^H X conj(V) V^T."""
    n_hat, n_til = F.shape[0], G.shape[0]
    family = TensorGalerkin(_tridiag_spd(n_hat), _tridiag_spd(n_til), (), F[:, :1], G[:, :1],
                            cut, real)
    cores = family.grow([(F, G)], np.zeros((0, 0, 0)))
    assert cores.shape == (0,) + family.ranks
    U, V = family.U, family.V
    return family, U @ (U.conj().T @ (F @ G.T) @ V.conj()) @ V.T


def test_grow_cut_contract():
    # The two-term pairs the contour adds are cut once, by the basis: a
    # direction is kept when it carries more than the cut of the
    # normalized solution, so the kept part of X is its truncated SVD
    rng = make_rng(51)
    F = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    G = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
    X = F @ G.T
    s = np.linalg.svd(X, compute_uv=False)
    rel = s / np.linalg.norm(X)
    for cut in (1e-2, np.sqrt(rel[1] * rel[2])):
        family, kept = _grown(F, G, cut, real=False)
        k = int(np.count_nonzero(rel > cut))
        assert family.ranks == (k, k)
        best = np.sqrt(np.sum(s[k:] ** 2))
        assert abs(np.linalg.norm(kept - X) - best) < 1e-10
    assert family.ranks == (2, 2)
    # a zero pair adds nothing and leaves the cores as they are
    family = TensorGalerkin(_tridiag_spd(12), _tridiag_spd(10), (), F[:, :1], G[:, :1], 1e-2,
                            False)
    cores = np.zeros((0, 0, 0))
    assert family.grow([(0.0 * F, G)], cores) is cores and family.ranks == (0, 0)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("ranks", [(9, 14), (9, 7)])
def test_grow_wide_pairs(ranks, complex_):
    # Factors with at least as many columns as rows skip their QR: on one
    # side (F 6x9 wide, G 14x9 tall) and on both (F 6x9, G 7x9). Real
    # pairs grow a real basis.
    rng = make_rng(57)
    r, n_til = ranks

    def draw(*shape):
        M = rng.standard_normal(shape)
        return M + 1j * rng.standard_normal(shape) if complex_ else M

    F, G = draw(6, r), draw(n_til, r)
    X = F @ G.T
    s = np.linalg.svd(X, compute_uv=False)
    family, kept = _grown(F, G, 1e-14, real=not complex_)
    assert family.ranks == (6, 6)
    assert np.iscomplexobj(family.U) == complex_
    assert np.linalg.norm(kept - X) <= 1e-12 * np.linalg.norm(X)
    rel = s / np.linalg.norm(X)
    family, kept = _grown(F, G, np.sqrt(rel[1] * rel[2]), real=not complex_)
    assert family.ranks == (2, 2)
    best = np.sqrt(np.sum(s[2:] ** 2))
    assert abs(np.linalg.norm(kept - X) - best) < 1e-10


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
    Fp, Gp = M.solve_pair(z, F, G, tol=1e-13, rng=rng)
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
        Fp, Gp = M.solve_pair(z, F, G, tol=1e-14, rng=make_rng(59))
        assert (Fp.shape[1] < n) == fadi
        assert node_residual(A, z, Fp @ Gp.T, F @ G.T) <= 1e-12


def test_eigenbasis_preconditioner_pole():
    K = np.diag([1.0, 2.0])
    M = EigenbasisPreconditioner(K)
    with pytest.raises(SingularShiftedSolve):
        M.solve_pair(2.0, np.ones((2, 1)), np.ones((2, 1)), tol=1e-10, rng=make_rng(57))


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
    Fp, Gp = M.solve_pair(z, F, G, tol=0.0, rng=rng)
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
    Fp, Gp = M.solve_pair(z, F, G, tol, rng)
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
    # and comes back uncut: the pair is the lifted stack of its steps
    assert Fp.shape[1] == Gp.shape[1] == Z.shape[1]


def _dense_path(M, z, F, G, rng):
    """solve_pair's dense path, written out: the eigenbasis quotient W
    through _compress_dense, lifted by the eigenbases."""
    D = z - M.lam_hat[:, None] - M.lam_til[None, :]
    W = sylvester._real_matmul(M.Q_hat.T, F) @ sylvester._real_matmul(M.Q_til.T, G).T / D
    Fd, Gd = sylvester._compress_dense(W, rng)
    return sylvester._real_matmul(M.Q_hat, Fd), sylvester._real_matmul(M.Q_til, Gd)


def test_eigenbasis_high_rank_takes_dense_path():
    # rank 20 at n = 190 leaves fADI four steps, short of tol: the output
    # is the dense path's, past the break-even, so from the random range
    # finder
    M, F, G = _eigenbasis_case(20, 200, 190)
    z = 2.5 + 6.0j
    Fp, Gp = M.solve_pair(z, F, G, 1e-12, make_rng(72))
    Fd, Gd = _dense_path(M, z, F, G, make_rng(72))
    assert Fp.shape[1] == sylvester._SAMPLE_RANK + 8
    assert np.array_equal(Fp, Fd) and np.array_equal(Gp, Gd)


def test_eigenbasis_zero_budget_skips_fadi(monkeypatch):
    # rank 100 at n = 190 leaves fADI no step at all: solve_pair goes
    # straight to the dense path without running the fADI prelude
    M, F, G = _eigenbasis_case(100, 200, 190)
    z = 2.5 + 6.0j

    def fadi(*args):
        raise AssertionError("fADI run with a zero step budget")

    monkeypatch.setattr(sylvester, "_diagonal_fadi", fadi)
    Fp, Gp = M.solve_pair(z, F, G, 1e-12, make_rng(74))
    Fd, Gd = _dense_path(M, z, F, G, make_rng(74))
    assert np.array_equal(Fp, Fd) and np.array_equal(Gp, Gd)


def test_eigenbasis_node_next_to_spectrum():
    # Im z = 1e-3 over a point of the sum spectrum: steps can amplify rows
    # by about spread / Im z; the result is finite, from fADI or the
    # dense path, and no overflow warning escapes
    M, F, G = _eigenbasis_case(1)
    z = M.lam_hat[20] + M.lam_til[30] + 1e-3j
    Fp, Gp = M.solve_pair(z, F, G, 1e-12, make_rng(73))
    assert np.all(np.isfinite(Fp)) and np.all(np.isfinite(Gp))
    assert Fp.shape[1] == Gp.shape[1] >= 1


@pytest.mark.parametrize("shape", [(180, 180), (270, 135)])
def test_compress_dense_break_even(shape):
    # A pair of the sampling rank storing at least n1 * n2 entries: X
    # itself, exactly. One row past the break-even: the range finder's
    # uncut pair (Q, (Q^H X)^T), Q orthonormal with the oversampled width
    rng = make_rng(65)
    n1, n2 = shape
    assert sylvester._SAMPLE_RANK * (n1 + n2) == n1 * n2
    W = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    F, G = sylvester._compress_dense(W, rng)
    assert np.array_equal(F @ G.T, W)
    W = rng.standard_normal((n1 + 1, n2)) + 1j * rng.standard_normal((n1 + 1, n2))
    Q, G = sylvester._compress_dense(W, rng)
    assert Q.shape == (n1 + 1, sylvester._SAMPLE_RANK + 8)
    assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-13)
    assert np.allclose(Q @ G.T, Q @ (Q.conj().T @ W), atol=1e-12)
