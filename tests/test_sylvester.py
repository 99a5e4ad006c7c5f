"""Factored-pair Sylvester solvers against dense desk-scale oracles."""

import numpy as np
import pytest
import scipy.linalg

from conftest import make_rng
from kroneig.errors import (
    Breakdown,
    DegenerateInterval,
    DimensionMismatch,
    OutOfRange,
    SingularShiftedSolve,
)
from kroneig.problems import gershgorin_interval
from kroneig.sylvester import (
    AdiPreconditioner,
    EigenbasisPreconditioner,
    MultitermSylvester,
    adi_shifts,
    adi_solve,
    bicgstab_multiterm,
    multiterm_residual,
    pair_inner,
    pair_norm,
    pair_truncate,
    translated_adi_shifts,
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
    return MultitermSylvester(
        (z / 2.0) * np.eye(n_hat) - K_hat,
        (z / 2.0) * np.eye(n_til) - K_til,
        cl,
        cr,
        F,
        G,
        z=z,
    )


def _dense_operator(p):
    return (
        np.kron(np.eye(p.n_til), p.Acoef)
        + np.kron(p.Bcoef, np.eye(p.n_hat))
        - np.kron(p.coupling_right.T, p.coupling_left)
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
    ref = p.Acoef @ X + X @ p.Bcoef.T - p.coupling_left @ X @ p.coupling_right
    assert np.allclose(Fo @ Go.T, ref, atol=1e-12)


def test_real_symmetric_parts_round_trip():
    rng = make_rng(53)
    p = _problem(rng)
    K_hat, K_til = p.real_symmetric_parts()
    assert np.allclose((p.z / 2.0) * np.eye(p.n_hat) - K_hat, p.Acoef, atol=1e-13)
    assert np.allclose((p.z / 2.0) * np.eye(p.n_til) - K_til, p.Bcoef, atol=1e-13)


def test_multiterm_residual_definition():
    rng = make_rng(54)
    p = _problem(rng, rank=2)
    from kroneig.sylvester import FactoredSolution

    zero = FactoredSolution(
        np.zeros((p.n_hat, 0)), np.zeros((p.n_til, 0)), 1.0, 0
    )
    assert multiterm_residual(p, zero) == 1.0
    Xh = rng.standard_normal((p.n_hat, 3))
    Xt = rng.standard_normal((p.n_til, 3))
    sol = FactoredSolution(Xh, Xt, 0.0, 1)
    L = _dense_operator(p)
    x = (Xh @ Xt.T).reshape(-1, order="F")
    b = (p.F @ p.G.T).reshape(-1, order="F")
    ref = np.linalg.norm(L @ x - b) / np.linalg.norm(b)
    assert abs(multiterm_residual(p, sol) - ref) < 1e-10 * max(ref, 1.0)


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


def test_translated_adi_shifts():
    z = 1.5 + 0.5j
    shifts = translated_adi_shifts((0.5, 10.0), 5, z)
    assert len(shifts) == 5
    base = adi_shifts((0.5, 10.0), (0.5, 10.0), 5)
    for (a, b), (p, _) in zip(shifts, base):
        assert abs(a - (z / 2.0 - p)) < 1e-14
        assert abs(b + a) < 1e-14


def test_adi_solve_lyapunov_converges():
    rng = make_rng(55)
    n = 50
    K = _tridiag_spd(n, scale=float(n + 1) ** 2 / 20.0)
    F = rng.standard_normal((n, 1))
    G = rng.standard_normal((n, 1))
    interval = gershgorin_interval(K)
    shifts = adi_shifts(interval, interval, 11)
    sol = adi_solve(K, K, F, G, shifts, tol=1e-5, max_iter=55)
    assert sol.converged
    assert sol.iterations <= 55
    assert sol.achieved_residual <= 1e-5
    X = sol.Xhat @ sol.Xtil.T
    ref = scipy.linalg.solve_sylvester(K, K.T, F @ G.T)
    assert np.linalg.norm(X - ref) <= 1e-4 * np.linalg.norm(ref)


def test_adi_solve_singular_shift():
    n = 4
    Ac = np.eye(n)
    F = np.ones((n, 1))
    with pytest.raises(SingularShiftedSolve):
        adi_solve(Ac, Ac, F, F, [(0.5, 1.0)])


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
        1.0 * np.eye(2) - K,
        1.0 * np.eye(2) - K,
        np.zeros((2, 2)),
        np.zeros((2, 2)),
        np.ones((2, 1)),
        np.ones((2, 1)),
        z=2.0,
    )
    with pytest.raises(SingularShiftedSolve):
        M.solve_pair(p, p.F, p.G, tol=1e-10, r_max=10, rng=rng)


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


def test_adi_preconditioner_reduces_two_term_residual():
    rng = make_rng(58)
    # z well below the sum spectrum: the translated real ladder is sound.
    p = _problem(rng, coupling=0.0, z=-2.0)
    K_hat, _ = p.real_symmetric_parts()
    M = AdiPreconditioner(gershgorin_interval(K_hat), iterations=20)
    Fp, Gp = M.solve_pair(p, p.F, p.G, tol=1e-9, r_max=60, rng=rng)
    X = Fp @ Gp.T
    R = p.Acoef @ X + X @ p.Bcoef.T - p.F @ p.G.T
    assert np.linalg.norm(R) <= 1e-3 * np.linalg.norm(p.F @ p.G.T)


@pytest.mark.parametrize("precond", ["eig2", "adi", None])
def test_bicgstab_matches_dense(precond):
    rng = make_rng(59)
    z = -1.0 if precond == "adi" else 6.0 + 2.0j
    p = _problem(rng, z=z)
    sol = bicgstab_multiterm(p, precond=precond, tol=1e-9, max_iter=300, rank_cap=60)
    assert sol.converged
    assert sol.achieved_residual <= 1e-9
    L = _dense_operator(p)
    b = (p.F @ p.G.T).reshape(-1, order="F")
    # Densely recomputed residual confirms the factored measurement. The
    # Gram route has a cancellation noise floor near sqrt(eps) * ||b||, so
    # agreement is asserted at that level, not at the reported value.
    xs = (sol.Xhat @ sol.Xtil.T).reshape(-1, order="F")
    dres = np.linalg.norm(L @ xs - b) / np.linalg.norm(b)
    assert dres <= 1e-7
    x = np.linalg.solve(L, b)
    X = x.reshape((p.n_hat, p.n_til), order="F")
    err = np.linalg.norm(sol.Xhat @ sol.Xtil.T - X) / np.linalg.norm(X)
    assert err <= 1e-6


def test_bicgstab_rank_cap():
    rng = make_rng(60)
    p = _problem(rng, n_hat=14, n_til=13, rank=2)
    # The cap binds; convergence to tol is not guaranteed under it, the
    # rank limit is.
    sol = bicgstab_multiterm(p, tol=1e-7, max_iter=200, rank_cap=8)
    assert sol.rank <= 8
    assert multiterm_residual(p, sol) <= 0.1
    with pytest.raises(OutOfRange):
        bicgstab_multiterm(p, rank_cap=1)


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
    R = p.Acoef @ X + X @ p.Bcoef.T - p.coupling_left @ X @ p.coupling_right - B
    dense = np.linalg.norm(R) / np.linalg.norm(B)
    assert abs(sol.achieved_residual - dense) <= 1e-13


def test_multiterm_validation():
    rng = make_rng(62)
    with pytest.raises(DimensionMismatch):
        MultitermSylvester(
            np.eye(4),
            np.eye(3),
            np.eye(4),
            np.eye(3),
            rng.standard_normal((4, 2)),
            rng.standard_normal((3, 1)),
        )
    with pytest.raises(DimensionMismatch):
        MultitermSylvester(
            np.eye(4),
            np.eye(3),
            np.eye(3),
            np.eye(3),
            rng.standard_normal((4, 1)),
            rng.standard_normal((3, 1)),
        )
