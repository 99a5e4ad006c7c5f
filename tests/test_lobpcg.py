"""Low-rank LOBPCG: dense mirrors, closed-form targets, histories."""

import numpy as np
import pytest

from conftest import (
    dense_fadi_apply,
    dense_lobpcg_mirror,
    kron_dense,
    make_rng,
    random_block,
)
from kroneig.blr import (
    BlockLowRank,
    KroneckerSumOperator,
    block_inner,
    from_khatri_rao,
    rayleigh_ritz_3block,
    to_dense,
)
from kroneig.errors import DimensionMismatch, OutOfRange, StructureMismatch
from kroneig.lobpcg import (
    AdiBlockPreconditioner,
    LobpcgConfig,
    lobpcg_lowrank,
    precond_apply,
)
from kroneig.problems import (
    gershgorin_interval,
    laplacian_1d_eigenvalues,
    make_spec,
    schrodinger_kron,
)
from kroneig.sketch import draw_khatri_rao
from kroneig.sylvester import adi_shifts


def _structured_operator(rng, n_hat, n_til, coupling=0.0):
    """I (x) K_hat + K_til (x) I (+ diagonal coupling), SPD overall."""
    def spd(n, scale):
        M = rng.standard_normal((n, n))
        return scale * (M @ M.T) / n + 2.0 * np.eye(n)

    K_hat = spd(n_hat, 1.0)
    K_til = spd(n_til, 0.7)
    terms = [(np.eye(n_til), K_hat), (K_til, np.eye(n_hat))]
    if coupling:
        terms.append(
            (
                np.diag(coupling * rng.uniform(-1.0, 1.0, size=n_til)),
                np.diag(rng.uniform(-1.0, 1.0, size=n_hat)),
            )
        )
    return KroneckerSumOperator(tuple(terms))


def test_config_validation():
    with pytest.raises(OutOfRange):
        LobpcgConfig(k=5, ell=4)
    with pytest.raises(OutOfRange):
        LobpcgConfig(k=2, ell=4, trunc_eps=-1.0)
    with pytest.raises(OutOfRange):
        LobpcgConfig(k=2, ell=4, r_max=0)
    with pytest.raises(OutOfRange):
        LobpcgConfig(k=2, ell=4, conv_scale="relative")


def test_input_validation():
    rng = make_rng(80)
    A = _structured_operator(rng, 6, 6)
    X0 = random_block(rng, 6, 6, 4, 2, 2)
    with pytest.raises(DimensionMismatch):
        lobpcg_lowrank(A, LobpcgConfig(k=2, ell=3), X0)
    with pytest.raises(DimensionMismatch):
        lobpcg_lowrank(A, LobpcgConfig(k=2, ell=4), random_block(rng, 5, 6, 4, 2, 2))
    # No separable identity terms and no explicit preconditioner operator.
    bad = KroneckerSumOperator(((np.eye(6) * 2.0, np.eye(6) * 3.0),))
    with pytest.raises(StructureMismatch):
        lobpcg_lowrank(bad, LobpcgConfig(k=2, ell=4), X0)


def test_adi_block_preconditioner_matches_dense_fadi():
    rng = make_rng(81)
    A = _structured_operator(rng, 9, 8)
    K_hat = A.terms[0][1]
    K_til = A.terms[1][0]
    pre = AdiBlockPreconditioner(A, iterations=6, trunc_eps=0.0, r_max=None)
    W = random_block(rng, 9, 8, 3, 2, 2)
    out = precond_apply(pre, W)
    D = to_dense(W)
    shifts = adi_shifts(gershgorin_interval(K_hat), gershgorin_interval(K_til), 6)
    for j in range(3):
        C = D[:, j].reshape((9, 8), order="F")
        ref = dense_fadi_apply(K_hat, K_til, shifts, C)
        got = to_dense(out)[:, j].reshape((9, 8), order="F")
        assert np.linalg.norm(got - ref) < 1e-10 * max(np.linalg.norm(ref), 1.0)
    assert precond_apply(None, W) is W


def test_adi_block_preconditioner_streamed_truncation():
    # Each partial sum is truncated at trunc_eps as the steps come in, so
    # the error against the exact fADI output stays within m truncations
    # of the largest partial sum, each with the 2 * eps slack of the
    # truncation tests.
    rng = make_rng(83)
    n_hat, n_til, ell, m, eps = 14, 12, 3, 6, 1e-3
    A = _structured_operator(rng, n_hat, n_til)
    K_hat = A.terms[0][1]
    K_til = A.terms[1][0]
    W = random_block(rng, n_hat, n_til, ell, 3, 3)
    D = to_dense(W)
    shifts = adi_shifts(gershgorin_interval(K_hat), gershgorin_interval(K_til), m)

    def partial(k):
        cols = [
            dense_fadi_apply(
                K_hat, K_til, shifts[:k], D[:, j].reshape((n_hat, n_til), order="F")
            ).reshape(-1, order="F")
            for j in range(ell)
        ]
        return np.stack(cols, axis=1)

    largest = max(np.linalg.norm(partial(k)) for k in range(1, m + 1))
    pre = AdiBlockPreconditioner(A, iterations=m, trunc_eps=eps, r_max=None)
    out = pre.apply_block(W)
    err = np.linalg.norm(to_dense(out) - partial(m))
    assert 0.0 < err <= m * 2.0 * eps * largest
    assert out.orthonormal
    capped = AdiBlockPreconditioner(A, iterations=m, trunc_eps=eps, r_max=3).apply_block(W)
    assert max(out.r_hat, out.r_til) > 3
    assert capped.orthonormal and max(capped.r_hat, capped.r_til) <= 3


def test_adi_preconditioner_inverts_two_term():
    rng = make_rng(82)
    A = _structured_operator(rng, 10, 10)
    K_hat = A.terms[0][1]
    K_til = A.terms[1][0]
    pre = AdiBlockPreconditioner(A, iterations=20, trunc_eps=0.0, r_max=None)
    W = random_block(rng, 10, 10, 2, 2, 2)
    out = to_dense(precond_apply(pre, W))
    M = kron_dense(KroneckerSumOperator(A.terms[:2]))
    # 20 geometric shifts drive the two-term inverse below 1e-4.
    err = np.linalg.norm(M @ out - to_dense(W)) / np.linalg.norm(to_dense(W))
    assert err < 1e-4
    with pytest.raises(OutOfRange):
        AdiBlockPreconditioner(A, iterations=0, trunc_eps=0.0, r_max=None)


def test_rayleigh_ritz_3block_matches_dense():
    rng = make_rng(83)
    A = _structured_operator(rng, 7, 7, coupling=0.2)
    Ad = kron_dense(A)
    import scipy.linalg

    from kroneig.blr import orthonormalize_svd

    S1 = orthonormalize_svd(random_block(rng, 7, 7, 3, 2, 2))
    S2 = orthonormalize_svd(random_block(rng, 7, 7, 2, 2, 2))
    C1, C2, C3, theta = rayleigh_ritz_3block(S1, S2, None, A)
    S = np.hstack([to_dense(S1), to_dense(S2)])
    H = S.T @ Ad @ S
    G = S.T @ S
    ref = scipy.linalg.eigh(
        0.5 * (H + H.T), 0.5 * (G + G.T), subset_by_index=[0, 2],
        eigvals_only=True,
    )
    assert np.allclose(theta, ref, atol=1e-10)
    assert C3.shape == (0, 3)
    # Combined eigenvector block diagonalizes the projected pencil.
    C = np.vstack([C1, C2])
    assert np.allclose(C.T @ G @ C, np.eye(3), atol=1e-9)
    assert np.allclose(C.T @ H @ C, np.diag(theta), atol=1e-8)


def test_lobpcg_tracks_dense_mirror():
    # With truncation disabled the low-rank iteration is the dense LOBPCG
    # in different clothes; Ritz values must agree step for step.
    spec = make_spec("sum-of-squares", 12)
    A = schrodinger_kron(spec)
    K_hat = A.terms[0][1]
    K_til = A.terms[1][0]
    sk = draw_khatri_rao(12, 12, 5, seed=7)
    X0 = from_khatri_rao(sk)
    cfg = LobpcgConfig(
        k=3, ell=5, trunc_eps=0.0, r_max=None, max_iter=7, conv_tol=0.0,
        adi_iterations=8, seed=7,
    )
    res = lobpcg_lowrank(A, cfg, X0)
    hist = res.diagnostics["ritz_history"]
    assert len(hist) == 7
    shifts = adi_shifts(gershgorin_interval(K_hat), gershgorin_interval(K_til), 8)
    dense_hist = dense_lobpcg_mirror(
        kron_dense(A), K_hat, K_til, shifts, to_dense(X0), 5, updates=6
    )
    for i, theta_d in enumerate(dense_hist):
        assert np.max(np.abs(np.asarray(hist[i + 1]) - theta_d)) < 1e-9


def test_lobpcg_zero_potential_closed_form():
    spec = make_spec("zero", 40)
    A = schrodinger_kron(spec)
    mu = laplacian_1d_eigenvalues(spec)
    sums = np.sort((mu[:, None] + mu[None, :]).ravel())
    sk = draw_khatri_rao(40, 40, 6, seed=0)
    cfg = LobpcgConfig(
        k=4, ell=6, trunc_eps=1e-9, r_max=60, max_iter=150, conv_tol=1e-6, seed=0
    )
    res = lobpcg_lowrank(A, cfg, from_khatri_rao(sk))
    assert res.diagnostics["converged"]
    assert np.max(np.abs(res.ritz_values - sums[:4])) < 1e-8
    assert np.all(res.inside_flags)


def test_lobpcg_random_operator_vs_dense():
    rng = make_rng(84)
    A = _structured_operator(rng, 15, 15, coupling=0.3)
    lam = np.sort(np.linalg.eigvalsh(kron_dense(A)))
    X0 = random_block(rng, 15, 15, 6, 6, 6)
    cfg = LobpcgConfig(
        k=3, ell=6, trunc_eps=1e-10, r_max=80, max_iter=300, conv_tol=1e-9, seed=1
    )
    res = lobpcg_lowrank(A, cfg, X0)
    assert res.diagnostics["converged"]
    assert np.max(np.abs(res.ritz_values[:3] - lam[:3])) < 1e-8
    # Ritz block is orthonormal up to the truncation budget.
    G = block_inner(res.ritz_vectors, res.ritz_vectors)
    assert np.max(np.abs(G - np.eye(3))) < 5e-7


def test_lobpcg_shift_bookkeeping():
    # Indefinite operator: shift makes it SPD internally, reported values
    # must come back unshifted.
    spec = make_spec("gaussian-well", 14)
    A = schrodinger_kron(spec)
    Ad = kron_dense(A)
    lam = np.sort(np.linalg.eigvalsh(Ad))
    assert lam[0] < 0  # the well pulls states below zero
    sigma = -lam[0] + 1.0
    sk = draw_khatri_rao(14, 14, 5, seed=3)
    cfg = LobpcgConfig(
        k=2, ell=5, trunc_eps=1e-10, r_max=70, max_iter=250, conv_tol=1e-8,
        shift=sigma, seed=0,
    )
    res = lobpcg_lowrank(A, cfg, from_khatri_rao(sk))
    assert res.diagnostics["converged"]
    assert np.max(np.abs(res.ritz_values - lam[:2])) < 1e-7


def test_lobpcg_histories_consistent():
    rng = make_rng(85)
    A = _structured_operator(rng, 10, 10, coupling=0.2)
    X0 = random_block(rng, 10, 10, 4, 4, 4)
    cfg = LobpcgConfig(
        k=2, ell=4, trunc_eps=1e-8, r_max=40, max_iter=25, conv_tol=1e-9, seed=2
    )
    res = lobpcg_lowrank(A, cfg, X0)
    d = res.diagnostics
    iters = d["iterations"]
    assert len(d["residual_history"]) == iters
    assert len(d["ritz_history"]) == iters
    assert len(d["rank_history"]) == iters
    for entry in d["rank_history"]:
        assert set(entry) == {"x_pre", "x", "r", "p"}
        assert entry["x"] <= entry["x_pre"]
        assert max(entry.values()) <= 40
    # Residual history rows follow the Ritz rows one to one.
    assert all(len(row) == 4 for row in d["residual_history"])
    # r_max honored on the returned vectors too.
    assert max(res.ritz_vectors.r_hat, res.ritz_vectors.r_til) <= 40


def test_lobpcg_anorm_scaling():
    rng = make_rng(86)
    A = _structured_operator(rng, 8, 8)
    X0 = random_block(rng, 8, 8, 3, 3, 3)
    cfg = LobpcgConfig(
        k=1, ell=3, trunc_eps=1e-9, r_max=30, max_iter=40, conv_tol=1e-8,
        conv_scale="anorm", seed=3,
    )
    res = lobpcg_lowrank(A, cfg, X0)
    d = res.diagnostics
    norm = np.linalg.norm(kron_dense(A), 2)
    assert d["scale"] == pytest.approx(norm, rel=0.05)
    assert d["threshold"] == pytest.approx(1e-8 * d["scale"])


def test_lobpcg_unconverged_returns_best():
    rng = make_rng(87)
    A = _structured_operator(rng, 9, 9, coupling=0.2)
    X0 = random_block(rng, 9, 9, 3, 3, 3)
    cfg = LobpcgConfig(
        k=2, ell=3, trunc_eps=1e-9, r_max=30, max_iter=3, conv_tol=1e-12, seed=4
    )
    res = lobpcg_lowrank(A, cfg, X0)
    assert not res.diagnostics["converged"]
    assert not np.any(res.inside_flags)
    # Returned triple is self-consistent: residuals match the vectors.
    Ad = kron_dense(A)
    X = to_dense(res.ritz_vectors)
    R = Ad @ X - X @ np.diag(res.ritz_values)
    assert np.allclose(np.linalg.norm(R, axis=0), res.residual_norms, rtol=1e-6)


def test_lobpcg_truncation_does_not_floor_residual():
    # Desk-scale copy of the rank-adaptive benchmark: at trunc_eps=1e-7 a
    # fixed-eps cut of X floors the residuals near 1e-5; the X cut must
    # tighten with the residual so the 1e-6 target is reached.
    n = 40
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    X0 = from_khatri_rao(draw_khatri_rao(n, n, 6, seed=0))
    cfg = LobpcgConfig(
        k=4, ell=6, trunc_eps=1e-7, r_max=50, max_iter=100, conv_tol=1e-6, seed=0
    )
    res = lobpcg_lowrank(A, cfg, X0)
    assert res.diagnostics["converged"]
    assert res.diagnostics["iterations"] <= 100
    assert np.max(res.residual_norms) <= 1e-6
