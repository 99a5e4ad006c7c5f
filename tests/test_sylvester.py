"""Factored-pair Sylvester solvers against dense desk-scale oracles."""

import copy

import numpy as np
import pytest

from conftest import make_rng
from kroneig import sylvester
from kroneig.errors import (
    Breakdown,
    DegenerateInterval,
    DimensionMismatch,
    OutOfRange,
    SingularShiftedSolve,
)
from kroneig.sylvester import (
    EigenbasisPreconditioner,
    MultitermSylvester,
    adi_shifts,
    bicgstab_multiterm,
    pair_inner,
    pair_norm,
    pair_truncate,
)


def _tridiag_spd(n, scale=1.0):
    return scale * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) + np.eye(n)


def _problem(rng, n_hat=10, n_til=9, z=6.0 + 2.0j, coupling=0.15, rank=1):
    K_hat = _tridiag_spd(n_hat)
    K_til = _tridiag_spd(n_til, scale=0.8)
    cl = np.diag(coupling * rng.standard_normal(n_hat))
    cr = np.diag(coupling * rng.standard_normal(n_til))
    F = rng.standard_normal((n_hat, rank))
    G = rng.standard_normal((n_til, rank))
    return MultitermSylvester(K_hat, K_til, ((cr.T, cl),), F, G, z=z)


def _dense_operator(p):
    return (
        np.kron(np.eye(p.n_til), p.Acoef)
        + np.kron(p.Bcoef, np.eye(p.n_hat))
        - np.kron(p.couplings[0][0].dense(), p.couplings[0][1].dense())
    )


def test_pair_algebra_matches_dense():
    rng = make_rng(50)
    F1 = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    G1 = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    F2 = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    G2 = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    X1 = F1 @ G1.T
    X2 = F2 @ G2.T
    ref = np.sum(X1.conj() * X2)
    assert abs(pair_inner(F1, G1, F2, G2) - ref) < 1e-11
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


def test_apply_pair_matches_dense():
    rng = make_rng(52)
    p = _problem(rng, rank=2)
    X = p.F @ p.G.T
    Fo, Go = p.apply_pair(p.F, p.G)
    til_c, hat_c = p.couplings[0]
    ref = p.Acoef @ X + X @ p.Bcoef.T - hat_c.dense() @ X @ til_c.dense().T
    assert np.allclose(Fo @ Go.T, ref, atol=1e-12)


def test_real_symmetric_parts_round_trip():
    rng = make_rng(53)
    p = _problem(rng)
    K_hat, K_til = p.real_symmetric_parts()
    assert np.allclose((p.z / 2.0) * np.eye(p.n_hat) - K_hat, p.Acoef, atol=1e-13)
    assert np.allclose((p.z / 2.0) * np.eye(p.n_til) - K_til, p.Bcoef, atol=1e-13)


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
    p = _problem(rng, coupling=0.0, z=3.0 + 1.0j)
    M = EigenbasisPreconditioner.from_problem(p)
    Fp, Gp = M.solve_pair(p, p.F, p.G, tol=1e-13, r_max=40, rng=rng)
    X = Fp @ Gp.T
    R = p.Acoef @ X + X @ p.Bcoef.T - p.F @ p.G.T
    assert np.linalg.norm(R) <= 1e-10 * np.linalg.norm(p.F @ p.G.T)


def test_eigenbasis_preconditioner_pole():
    rng = make_rng(57)
    K = np.diag([1.0, 2.0])
    M = EigenbasisPreconditioner(K)
    p = MultitermSylvester(
        K, K, ((np.zeros((2, 2)), np.zeros((2, 2))),), np.ones((2, 1)), np.ones((2, 1)), z=2.0
    )
    with pytest.raises(SingularShiftedSolve):
        M.solve_pair(p, p.F, p.G, tol=1e-10, r_max=10, rng=rng)


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
    p = _problem(rng, n_hat=12, n_til=11, z=5.0 + 1.5j)
    M = EigenbasisPreconditioner.from_problem(p)
    A = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    _, s, Vh = np.linalg.svd(A)
    G = (Vh.T * s)[:, ::2]
    F = np.asfortranarray(rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6)))
    assert not (G.flags.c_contiguous or G.flags.f_contiguous)
    Fp, Gp = M.solve_pair(p, F, G, tol=0.0, r_max=40, rng=rng)
    Qh, Qt = M.Q_hat.astype(complex), M.Q_til.astype(complex)
    D = p.z - M.lam_hat[:, None] - M.lam_til[None, :]
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


def _eigenbasis_problem(M, F, G, z):
    # solve_pair reads only z from the problem; its eigenbases hold K
    n_hat, n_til = F.shape[0], G.shape[0]
    return MultitermSylvester(
        np.eye(n_hat), np.eye(n_til), ((np.eye(n_til), np.eye(n_hat)),), F, G, z=z
    )


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
    Fp, Gp = M.solve_pair(_eigenbasis_problem(M, F, G, z), F, G, tol, 40, rng)
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
    Fp, Gp = M.solve_pair(_eigenbasis_problem(M, F, G, z), F, G, 1e-12, 10, make_rng(72))
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
    Fp, Gp = M.solve_pair(_eigenbasis_problem(M, F, G, z), F, G, 1e-12, 10, make_rng(74))
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
    Fp, Gp = M.solve_pair(_eigenbasis_problem(M, F, G, z), F, G, 1e-12, 40, make_rng(73))
    assert np.all(np.isfinite(Fp)) and np.all(np.isfinite(Gp))
    assert Fp.shape[1] == Gp.shape[1] >= 1


@pytest.mark.parametrize(
    "precond, z",
    [("eig2", 6.0 + 2.0j), ("eig2", -1.0), (None, 6.0 + 2.0j)],
    ids=["eig2", "eig2-real-shift", "None"],
)
def test_bicgstab_matches_dense(precond, z):
    rng = make_rng(59)
    p = _problem(rng, z=z)
    sol = bicgstab_multiterm(p, precond=precond, tol=1e-9, max_iter=300, rank_cap=60)
    assert sol.converged
    assert sol.achieved_residual <= 1e-9
    L = _dense_operator(p)
    b = (p.F @ p.G.T).reshape(-1, order="F")
    # The reported residual is decided from QR factors of the factored
    # residual, so the dense recomputation matches it to roundoff.
    xs = (sol.Xhat @ sol.Xtil.T).reshape(-1, order="F")
    dres = np.linalg.norm(L @ xs - b) / np.linalg.norm(b)
    assert abs(dres - sol.achieved_residual) <= 1e-13
    assert dres <= 1e-9
    x = np.linalg.solve(L, b)
    X = x.reshape((p.n_hat, p.n_til), order="F")
    err = np.linalg.norm(sol.Xhat @ sol.Xtil.T - X) / np.linalg.norm(X)
    assert err <= 1e-6


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


def test_bicgstab_dense_and_pair_regimes_agree(monkeypatch):
    # rank cap 40 at 20 x 18 is past the break-even, so the recursion blocks
    # are dense matrices; forcing the rule off keeps them as pairs. Both
    # solve the same problem to a true residual, with x capped in rank.
    rng = make_rng(66)
    p = _problem(rng, n_hat=20, n_til=18, rank=2)
    B = p.F @ p.G.T
    calls = []

    def counted(*args):
        calls[-1] += 1
        return pair_truncate(*args)

    monkeypatch.setattr(sylvester, "pair_truncate", counted)
    sols = []
    for dense in (True, False):
        monkeypatch.setattr(sylvester, "_pair_fills_matrix", lambda *args: dense)
        calls.append(0)
        sol = bicgstab_multiterm(p, tol=1e-11, max_iter=200, rank_cap=40)
        assert sol.converged and sol.achieved_residual <= 1e-11
        assert sol.rank <= 40
        X = sol.Xhat @ sol.Xtil.T
        til_c, hat_c = p.couplings[0]
        R = p.Acoef @ X + X @ p.Bcoef.T - hat_c.dense() @ X @ til_c.dense().T - B
        assert abs(np.linalg.norm(R) / np.linalg.norm(B) - sol.achieved_residual) <= 1e-13
        sols.append(X)
    assert np.linalg.norm(sols[0] - sols[1]) <= 1e-8 * np.linalg.norm(sols[1])
    # only the iterate is truncated in the dense regime
    assert calls[0] < calls[1]


class _ZeroPrecond:
    """Preconditioner mapping every pair to zero, so alpha's denominator vanishes."""

    def __init__(self):
        self.calls = 0

    def solve_pair(self, problem, F, G, tol, r_max, rng):
        self.calls += 1
        return 0 * F, 0 * G


@pytest.mark.parametrize("n, rank_cap", [(12, 90), (40, 8)])
def test_bicgstab_restarts_once_then_breaks_down(n, rank_cap):
    # cap 90 at n=12 keeps the recursion blocks dense, cap 8 at n=40 keeps
    # them as pairs; either way one restart, then a typed Breakdown
    rng = make_rng(67)
    p = _problem(rng, n_hat=n, n_til=n)
    precond = _ZeroPrecond()
    with pytest.raises(Breakdown, match="alpha denominator underflow"):
        bicgstab_multiterm(p, precond=precond, tol=1e-8, rank_cap=rank_cap)
    assert precond.calls == 2


def test_bicgstab_rank_cap():
    rng = make_rng(60)
    p = _problem(rng, n_hat=14, n_til=13, rank=2)
    # The cap binds; convergence to tol is not guaranteed under it, the
    # rank limit is.
    sol = bicgstab_multiterm(p, tol=1e-7, max_iter=200, rank_cap=8)
    assert sol.rank <= 8
    x = (sol.Xhat @ sol.Xtil.T).reshape(-1, order="F")
    b = (p.F @ p.G.T).reshape(-1, order="F")
    assert np.linalg.norm(_dense_operator(p) @ x - b) <= 0.1 * np.linalg.norm(b)
    with pytest.raises(OutOfRange):
        bicgstab_multiterm(p, rank_cap=1)
    # the translated-ladder ADI node preconditioner is gone
    with pytest.raises(OutOfRange):
        bicgstab_multiterm(p, precond="adi")


def test_bicgstab_max_iter_flagged():
    rng = make_rng(61)
    p = _problem(rng)
    sol = bicgstab_multiterm(p, precond=None, tol=1e-14, max_iter=2, rank_cap=60)
    assert not sol.converged
    assert sol.achieved_residual > 0.0


@pytest.mark.parametrize(
    "shape, kwargs",
    [
        ((40, 35), dict(tol=1e-10, rank_cap=90)),
        ((10, 9), dict(tol=1e-10, rank_cap=60)),
        ((40, 35), dict(tol=1e-14, rank_cap=30, max_iter=3)),
        # rank cap 8: the residual stacks (25 columns) are tall, and checks
        # every 2 iterations fail and go on with the recompressed pair
        ((40, 35), dict(tol=1e-14, rank_cap=8, max_iter=12, replace_every=2)),
    ],
)
def test_bicgstab_achieved_residual_is_true(shape, kwargs):
    # The reported residual is decided from QR factors of the factored
    # residual; it must match the dense recomputation to roundoff, which a
    # Gram-based norm (noise near sqrt(eps) relative) cannot.
    rng = make_rng(63)
    p = _problem(rng, n_hat=shape[0], n_til=shape[1])
    sol = bicgstab_multiterm(p, **kwargs)
    assert sol.converged == (kwargs["tol"] == 1e-10)
    X = sol.Xhat @ sol.Xtil.T
    B = p.F @ p.G.T
    til_c, hat_c = p.couplings[0]
    R = p.Acoef @ X + X @ p.Bcoef.T - hat_c.dense() @ X @ til_c.dense().T - B
    dense = np.linalg.norm(R) / np.linalg.norm(B)
    assert abs(sol.achieved_residual - dense) <= 1e-13


def test_multiterm_validation():
    rng = make_rng(62)
    with pytest.raises(DimensionMismatch):
        MultitermSylvester(
            np.eye(4),
            np.eye(3),
            ((np.eye(3), np.eye(4)),),
            rng.standard_normal((4, 2)),
            rng.standard_normal((3, 1)),
        )
    with pytest.raises(DimensionMismatch):
        MultitermSylvester(
            np.eye(4),
            np.eye(3),
            ((np.eye(3), np.eye(3)),),
            rng.standard_normal((4, 1)),
            rng.standard_normal((3, 1)),
        )
