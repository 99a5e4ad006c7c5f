"""Low-rank LOBPCG: dense mirrors, closed-form targets, histories."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    dense_fadi_apply,
    dense_lobpcg_mirror,
    kron_dense,
    make_rng,
    random_block,
)
import kroneig.blr
import kroneig.lobpcg
from kroneig.blr import (
    BlockLowRank,
    KroneckerSumOperator,
    add,
    block_inner,
    column_norms,
    from_khatri_rao,
    orthonormalize_svd,
    rayleigh_ritz_3block,
    residual_block,
    right_multiply,
    to_dense,
)
from kroneig.errors import DimensionMismatch, OutOfRange, StructureMismatch
from kroneig.lobpcg import (
    AdiBlockPreconditioner,
    LobpcgConfig,
    lobpcg_lowrank,
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
    # settings that would run to the cap for nothing, return the start or
    # fail only once the solve has begun; conv_tol=0 stays legal
    with pytest.raises(OutOfRange):
        LobpcgConfig(k=2, ell=4, max_iter=0)
    with pytest.raises(OutOfRange):
        LobpcgConfig(k=2, ell=4, conv_tol=-1.0)
    with pytest.raises(OutOfRange):
        LobpcgConfig(k=2, ell=4, adi_iterations=0)
    assert LobpcgConfig(k=2, ell=4, conv_tol=0.0).conv_tol == 0.0


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
    out = pre.apply_block(W)
    D = to_dense(W)
    shifts = adi_shifts(gershgorin_interval(K_hat), gershgorin_interval(K_til), 6)
    for j in range(3):
        C = D[:, j].reshape((9, 8), order="F")
        ref = dense_fadi_apply(K_hat, K_til, shifts, C)
        got = to_dense(out)[:, j].reshape((9, 8), order="F")
        assert np.linalg.norm(got - ref) < 1e-10 * max(np.linalg.norm(ref), 1.0)


def test_adi_block_preconditioner_cuts_sum_once():
    # Without a rank cap nothing is sketched: the held chain is cut once at
    # trunc_eps, so the error against the exact fADI output is one
    # truncation's, well inside m truncations of the largest partial sum,
    # each with the 2 * eps slack of the truncation tests. A cap binds.
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


def _dense_fadi_sum(A, W, m):
    """Exact m-step fADI output of every column of W, as (ell, n_hat, n_til)."""
    K_hat = A.terms[0][1]
    K_til = A.terms[1][0]
    shifts = adi_shifts(gershgorin_interval(K_hat), gershgorin_interval(K_til), m)
    D = to_dense(W)
    return np.stack([
        dense_fadi_apply(K_hat, K_til, shifts, D[:, j].reshape((W.n_hat, W.n_til), order="F"))
        for j in range(W.ell)
    ])


def test_adi_block_preconditioner_sketched_cut(monkeypatch):
    # With a rank cap whose sketch (2 r_max columns) is narrower than both
    # the chain (8 steps of rank 4 or 6) and the grid, the sum's ranges come
    # from a Khatri-Rao sketch. Cut at the cap, the result is as close to
    # the exact fADI sum as the best HOSVD cut of that sum at the cap (the
    # ratio read 1.000 on 20 seeds); with eps binding (ranks 9-14 under a
    # cap of 15), the error stays within the truncation's 2 eps slack
    # (worst 0.89 eps on 20 seeds).
    sketched = []
    sketch_ranges = AdiBlockPreconditioner._sketch_ranges

    def counting(self, W, steps, width):
        sketched.append(width)
        return sketch_ranges(self, W, steps, width)

    monkeypatch.setattr(AdiBlockPreconditioner, "_sketch_ranges", counting)
    for n, r_max, eps, ell, rank in ((70, 8, 0.0, 3, 4), (80, 15, 3e-2, 4, 6)):
        spec = schrodinger_kron(make_spec("sum-of-squares", n))
        A = KroneckerSumOperator(tuple((np.asarray(t), np.asarray(h)) for t, h in spec.terms))
        pre = AdiBlockPreconditioner(A, iterations=8, trunc_eps=eps, r_max=r_max)
        for seed in range(3):
            W = random_block(make_rng(100 + seed), n, n, ell, rank, rank)
            exact = _dense_fadi_sum(A, W, 8)
            sketched.clear()
            out = pre.apply_block(W)
            assert sketched == [2 * r_max]
            assert out.orthonormal and max(out.r_hat, out.r_til) <= r_max
            got = to_dense(out).T.reshape(ell, n, n).transpose(0, 2, 1)
            err = np.linalg.norm(got - exact)
            if eps == 0.0:
                hat = np.linalg.svd(np.concatenate(list(exact), axis=1))[0][:, :r_max]
                til = np.linalg.svd(np.concatenate([M.T for M in exact], axis=1))[0][:, :r_max]
                hosvd = hat @ (hat.T @ exact @ til) @ til.T
                assert err <= 1.1 * np.linalg.norm(hosvd - exact)
            else:
                assert max(out.r_hat, out.r_til) < r_max
                assert err <= 2.0 * eps * np.linalg.norm(exact)


def test_adi_block_preconditioner_is_deterministic():
    # the sketch's test matrices come from fixed keys: one block, one result
    n = 120
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    pre = AdiBlockPreconditioner(A, iterations=8, trunc_eps=1e-7, r_max=20)
    W = random_block(make_rng(88), n, n, 4, 8, 8)
    first, second = pre.apply_block(W), pre.apply_block(W)
    for a, b in zip((first.U, first.V, first.sigma), (second.U, second.V, second.sigma)):
        assert np.array_equal(a, b)


def test_adi_preconditioner_inverts_two_term():
    rng = make_rng(82)
    A = _structured_operator(rng, 10, 10)
    K_hat = A.terms[0][1]
    K_til = A.terms[1][0]
    pre = AdiBlockPreconditioner(A, iterations=20, trunc_eps=0.0, r_max=None)
    W = random_block(rng, 10, 10, 2, 2, 2)
    out = to_dense(pre.apply_block(W))
    M = kron_dense(KroneckerSumOperator(A.terms[:2]))
    # 20 geometric shifts drive the two-term inverse below 1e-4.
    err = np.linalg.norm(M @ out - to_dense(W)) / np.linalg.norm(to_dense(W))
    assert err < 1e-4
    with pytest.raises(OutOfRange):
        AdiBlockPreconditioner(A, iterations=0, trunc_eps=0.0, r_max=None)


def test_rayleigh_ritz_3block_matches_dense():
    # Ritz values on the span of the stacked blocks, against a dense
    # orthonormal basis of that span: for independent blocks, and for an
    # S2 with a zero column plus an S3 that repeats a column of S1, whose
    # Gram is singular. The dependent directions are dropped, not raised
    # on, and the coefficients are G-orthonormal on the kept ones.
    rng = make_rng(83)
    A = _structured_operator(rng, 7, 7, coupling=0.2)
    Ad = kron_dense(A)
    S1 = orthonormalize_svd(random_block(rng, 7, 7, 3, 2, 2))
    S2 = orthonormalize_svd(random_block(rng, 7, 7, 2, 2, 2))
    S2_zero = right_multiply(random_block(rng, 7, 7, 2, 2, 2), np.diag([1.0, 0.0]))
    # S3 = [random column, S1's first column]
    repeat = np.zeros((3, 2))
    repeat[0, 1] = 1.0
    S3_repeat = add(
        right_multiply(random_block(rng, 7, 7, 2, 3, 2), np.diag([1.0, 0.0])),
        right_multiply(S1, repeat),
    )
    for blocks, rank in (((S1, S2, None), 5), ((S1, S2_zero, S3_repeat), 5)):
        S = np.hstack([to_dense(B) for B in blocks if B is not None])
        assert np.linalg.matrix_rank(S) == rank
        Q = scipy.linalg.orth(S)
        ref = scipy.linalg.eigh(Q.T @ Ad @ Q, subset_by_index=[0, 2], eigvals_only=True)
        C1, C2, C3, theta = rayleigh_ritz_3block(*blocks, A)
        assert np.allclose(theta, ref, rtol=0.0, atol=1e-10)
        C = np.vstack([C1, C2, C3])
        assert C.shape == (S.shape[1], 3)
        assert np.allclose(C.T @ (S.T @ S) @ C, np.eye(3), atol=1e-9)
        assert np.allclose(C.T @ (S.T @ Ad @ S) @ C, np.diag(theta), atol=1e-8)


def test_lobpcg_tracks_dense_mirror():
    # With truncation disabled the low-rank iteration is the dense LOBPCG
    # in different clothes; Ritz values must agree step for step. Of the
    # sketch seeds 0..19 at n=15, only 7 and 8 give a near-singular
    # three-block Gram (cond 4.5e9 at seed 7); Rayleigh-Ritz on the span
    # orthonormalized from the cores keeps rounding from being amplified
    # by that conditioning, so they track the mirror to 5e-10.
    for n, seed, updates, bound in ((12, 7, 6, 1e-9), (15, 7, 10, 5e-10), (15, 8, 10, 5e-10)):
        A = schrodinger_kron(make_spec("sum-of-squares", n))
        K_hat = A.terms[0][1]
        K_til = A.terms[1][0]
        X0 = from_khatri_rao(draw_khatri_rao(n, n, 5, seed=seed))
        cfg = LobpcgConfig(
            k=3, ell=5, trunc_eps=0.0, r_max=None, max_iter=updates + 1, conv_tol=0.0,
            adi_iterations=8, seed=seed,
        )
        hist = lobpcg_lowrank(A, cfg, X0).diagnostics["ritz_history"]
        assert len(hist) == updates + 1
        shifts = adi_shifts(gershgorin_interval(K_hat), gershgorin_interval(K_til), 8)
        dense_hist = dense_lobpcg_mirror(
            kron_dense(A), K_hat, K_til, shifts, to_dense(X0), 5, updates=updates
        )
        for i, theta_d in enumerate(dense_hist):
            assert np.max(np.abs(np.asarray(hist[i + 1]) - theta_d)) < bound, (n, seed)


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


def test_lobpcg_norm_bound():
    # ||A|| enters only LOBPCG's X cut. It is read from the factors: the sum
    # over terms of b(til) b(hat), b(M) = sqrt(||M||_1 ||M||_inf), an upper
    # bound of ||A||_2 for dense and banded factors alike (+29% on the
    # random dense factors here, +1.7% on the Schrodinger operator). A zero
    # operator gives 1. The convergence threshold is conv_tol itself.
    rng = make_rng(86)
    dense = _structured_operator(rng, 8, 8, coupling=0.3)
    banded = schrodinger_kron(make_spec("sum-of-squares", 12))
    for A in (dense, banded):
        norm = np.linalg.norm(kron_dense(A), 2)
        assert norm <= kroneig.lobpcg._norm_bound(A) <= 1.5 * norm
    zero = KroneckerSumOperator(((np.zeros((3, 3)), np.eye(3)),))
    assert kroneig.lobpcg._norm_bound(zero) == 1.0
    X0 = random_block(rng, 8, 8, 3, 3, 3)
    cfg = LobpcgConfig(k=1, ell=3, trunc_eps=1e-9, r_max=30, max_iter=40, conv_tol=1e-8, seed=3)
    res = lobpcg_lowrank(dense, cfg, X0)
    assert res.diagnostics["converged"] and res.diagnostics["threshold"] == 1e-8
    assert np.all(res.residual_norms <= 1e-8)


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


def test_lobpcg_reports_block_residuals_with_one_qr_per_side(monkeypatch):
    # The reported residuals are column_norms of the residual block of the
    # returned pairs. Each residual has rank 3r on the Schrodinger operator,
    # and its two bases are QR-factored once: its norms and its cut share
    # that factorization.
    residuals = []
    factored = []

    def recording_residual(A, W, theta):
        R = residual_block(A, W, theta)
        residuals.append((R, W))
        return R

    def counting(qr):
        def wrapper(M, *args, **kwargs):
            factored.append(M)
            return qr(M, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(kroneig.lobpcg, "residual_block", recording_residual)
    monkeypatch.setattr(kroneig.blr, "qr_unless_wide", counting(kroneig.blr.qr_unless_wide))
    monkeypatch.setattr(np.linalg, "qr", counting(np.linalg.qr))
    n = 24
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    cfg = LobpcgConfig(
        k=2, ell=4, trunc_eps=1e-7, r_max=30, max_iter=60, conv_tol=1e-6, seed=0
    )
    res = lobpcg_lowrank(A, cfg, from_khatri_rao(draw_khatri_rao(n, n, 4, seed=5)))
    monkeypatch.undo()
    assert res.diagnostics["converged"]
    assert len(residuals) == res.diagnostics["iterations"]
    for R, W in residuals:
        assert (R.r_hat, R.r_til) == (3 * W.r_hat, 3 * W.r_til)
        for basis in (R.U, R.V):
            assert sum(1 for M in factored if M is basis) == 1
    check = column_norms(residual_block(A, res.ritz_vectors, res.ritz_values))
    assert np.allclose(check, res.residual_norms, rtol=1e-12, atol=0.0)


def test_lobpcg_allocates_nothing_of_n_squared_entries():
    # Every block stays low-rank, and ||A|| comes from the factors: one
    # update at n = 2000 peaks far below the 8 n^2 bytes of one dense
    # length-n^2 complex vector (a real one, as a power method on A needs,
    # is half that)
    n = 2000
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    X0 = from_khatri_rao(draw_khatri_rao(n, n, 6, seed=0))
    cfg = LobpcgConfig(k=4, ell=6, trunc_eps=1e-7, r_max=50, max_iter=1, conv_tol=1e-6)
    tracemalloc.start()
    try:
        lobpcg_lowrank(A, cfg, X0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_lobpcg_singular_gram_drops_dependent_directions(monkeypatch):
    # At update 3 the preconditioner returns a block in span(X), so R
    # depends on X and the three-block Gram is singular. Rayleigh-Ritz
    # drops those directions, and the run still converges to the values of
    # the run left alone, with true residuals.
    n = 40
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    X0 = from_khatri_rao(draw_khatri_rao(n, n, 6, seed=0))
    cfg = LobpcgConfig(k=4, ell=6, trunc_eps=1e-9, r_max=40, max_iter=100, conv_tol=1e-6)
    plain = lobpcg_lowrank(A, cfg, X0)

    rng = make_rng(85)
    apply_block = AdiBlockPreconditioner.apply_block
    iterates, stacks = [], []

    def recording_residual(A, W, theta):
        iterates.append(W)
        return residual_block(A, W, theta)

    def in_span_of_x(self, W):
        if len(iterates) == 3:
            X = iterates[-1]
            return right_multiply(X, rng.standard_normal((X.ell, W.ell)))
        return apply_block(self, W)

    def recording_rr(S1, S2, S3, A):
        if len(iterates) == 3:
            stacks.append(np.hstack([to_dense(S) for S in (S1, S2, S3)]))
        return rayleigh_ritz_3block(S1, S2, S3, A)

    monkeypatch.setattr(kroneig.lobpcg, "residual_block", recording_residual)
    monkeypatch.setattr(AdiBlockPreconditioner, "apply_block", in_span_of_x)
    monkeypatch.setattr(kroneig.lobpcg, "rayleigh_ritz_3block", recording_rr)
    res = lobpcg_lowrank(A, cfg, X0)
    monkeypatch.undo()
    (S,) = stacks
    s = np.linalg.svd(S, compute_uv=False)
    assert S.shape[1] == 18 and np.sum(s > 1e-12 * s[0]) == 12
    for run in (plain, res):
        assert run.diagnostics["converged"]
    assert np.allclose(res.ritz_values, plain.ritz_values, rtol=0.0, atol=1e-8)
    X = to_dense(res.ritz_vectors)
    true = np.linalg.norm(kron_dense(A) @ X - X * res.ritz_values, axis=0)
    assert np.allclose(res.residual_norms, true, rtol=1e-6, atol=1e-12)
    assert np.all(true <= 1e-6)
