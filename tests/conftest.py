"""Shared builders for the test suite.

All randomness goes through counter-based Philox streams so every test is
reproducible in isolation and under any execution order.
"""

import numpy as np

from kroneig.blr import BlockLowRank, KroneckerSumOperator


def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_block(rng, n_hat, n_til, ell, r_hat, r_til, complex_=False):
    def draw(*shape):
        M = rng.standard_normal(shape)
        if complex_:
            M = M + 1j * rng.standard_normal(shape)
        return M

    return BlockLowRank(
        draw(n_hat, r_hat), draw(n_til, r_til), draw(ell, r_hat, r_til)
    )


def random_sym_kron_operator(rng, n_hat, n_til, terms=2, spd_shift=0.0):
    """Kronecker-sum operator with symmetric factors; optionally made
    positive definite by adding a multiple of the identity."""
    pairs = []
    for _ in range(terms):
        T = rng.standard_normal((n_til, n_til))
        H = rng.standard_normal((n_hat, n_hat))
        pairs.append((0.5 * (T + T.T), 0.5 * (H + H.T)))
    if spd_shift:
        pairs.append((spd_shift * np.eye(n_til), np.eye(n_hat)))
    return KroneckerSumOperator(tuple(pairs))


def kron_dense(A):
    """Dense matrix of a KroneckerSumOperator (desk scale only)."""
    return sum(np.kron(til, hat) for til, hat in A.terms)


def node_residual(A, z, X, B):
    """Relative residual of X in the node equation (z I - A) vec(X) = vec(B).

    A vec(X) is vec(sum hat X til^T) over A's terms, on their dense
    matrices: the matricized ``problems.assemble_dense``, which at n = 64
    would be a 4096 x 4096 array.
    """
    AX = sum(hat.dense() @ X @ til.dense().T for til, hat in A.terms)
    return np.linalg.norm(z * X - AX - B) / np.linalg.norm(B)


def sparse_node_solution(A, z, F, G):
    """X with (z I - A) vec(X) = vec(F G^T), by sparse direct elimination."""
    import scipy.sparse
    import scipy.sparse.linalg

    from kroneig.problems import assemble_sparse

    L = z * scipy.sparse.identity(A.n, format="csc") - assemble_sparse(A).astype(complex)
    x = scipy.sparse.linalg.spsolve(L, (F @ G.T).reshape(-1, order="F"))
    return x.reshape((A.n_hat, A.n_til), order="F")


# ---------------------------------------------------------------------------
# random instances for the filtered-subspace angle bound


def bound_instance(rng, family, weighted, n_til=7, n_hat=8, k=3, ell=6, q=16):
    """One synthetic spectral instance for the angle-bound inequality.

    Returns (B, U, Uperp, lam_in, lam_perp, filt, Omega, j, u, Z): the
    orthonormal data lives in B^{1/2}-scaled coordinates, while (u, Z) are
    mapped back to the original geometry for tan_angle_B.
    """
    from kroneig.contour import filter_eval, trapezoid_circle
    from kroneig.sketch import draw_khatri_rao, gaussian, khatri_rao_dense

    n = n_til * n_hat
    filt = trapezoid_circle(0.0, 1.0, q)
    lam_in = rng.uniform(-0.6, 0.6, size=k)
    lam_perp = np.concatenate(
        [
            rng.uniform(1.4, 4.0, size=(n - k) // 2),
            -rng.uniform(1.4, 4.0, size=n - k - (n - k) // 2),
        ]
    )
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    U, Uperp = Q[:, :k], Q[:, k:]
    if family == "gaussian":
        Omega = gaussian(n, ell, seed=int(rng.integers(1 << 31)))
    else:
        Omega = khatri_rao_dense(
            draw_khatri_rao(n_til, n_hat, ell, seed=int(rng.integers(1 << 31)))
        )
    rho_in = filter_eval(filt, lam_in)
    rho_perp = filter_eval(filt, lam_perp)
    Z_scaled = U @ (rho_in[:, None] * (U.conj().T @ Omega)) + Uperp @ (
        rho_perp[:, None] * (Uperp.conj().T @ Omega)
    )
    if weighted:
        S = rng.standard_normal((n, n))
        B = S @ S.T / n + 0.5 * np.eye(n)
        lamB, QB = np.linalg.eigh(B)
        B_isqrt = QB @ np.diag(1.0 / np.sqrt(lamB)) @ QB.T
    else:
        B, B_isqrt = None, np.eye(n)
    j = int(rng.integers(k))
    u = B_isqrt @ U[:, j]
    Z = B_isqrt @ Z_scaled
    return B, U, Uperp, lam_in, lam_perp, filt, Omega, j, u, Z


# ---------------------------------------------------------------------------
# dense mirror of the low-rank LOBPCG iteration (truncation disabled)


def dense_fadi_apply(K_hat, K_til, shifts, C):
    """Dense factored-ADI map for K_hat X + X K_til^T = C, fixed shifts."""
    import scipy.linalg

    n_hat, n_til = K_hat.shape[0], K_til.shape[0]
    F = C.copy()
    G = np.eye(n_til)
    X = np.zeros((n_hat, n_til))
    for alpha, beta in shifts:
        Z = scipy.linalg.solve(K_hat - beta * np.eye(n_hat), F)
        Y = -scipy.linalg.solve(K_til + alpha * np.eye(n_til), G)
        c = beta - alpha
        X = X + c * Z @ Y.T
        F = F + c * Z
        G = G - c * Y
    return X


def dense_lobpcg_mirror(Ad, K_hat, K_til, shifts, X0d, ell, updates):
    """Dense replay of the truncation-free low-rank iteration.

    Returns the list of Ritz vectors theta after each of ``updates``
    updates, aligned with ritz_history[1:] of the low-rank solver.
    """
    import scipy.linalg

    n_hat, n_til = K_hat.shape[0], K_til.shape[0]

    def orth(M):
        G = M.T @ M
        L = np.linalg.cholesky(0.5 * (G + G.T))
        return scipy.linalg.solve_triangular(L, M.T, lower=True).T

    def precond(R):
        out = np.empty_like(R)
        for j in range(R.shape[1]):
            C = R[:, j].reshape((n_hat, n_til), order="F")
            out[:, j] = dense_fadi_apply(K_hat, K_til, shifts, C).reshape(
                -1, order="F"
            )
        return out

    def rr(blocks):
        S = np.hstack(blocks)
        H = S.T @ Ad @ S
        G = S.T @ S
        theta, C = scipy.linalg.eigh(
            0.5 * (H + H.T), 0.5 * (G + G.T), subset_by_index=[0, ell - 1]
        )
        return theta, C

    X = orth(X0d)
    theta, C = rr([X])
    X = X @ C
    P = None
    history = []
    for _ in range(updates):
        R = orth(precond(Ad @ X - X * theta))
        if P is not None:
            P = orth(P)
            blocks = [X, R, P]
        else:
            blocks = [X, R]
        theta, C = rr(blocks)
        C1 = C[:ell]
        C2 = C[ell : ell + R.shape[1]]
        Pnew = R @ C2
        if P is not None:
            Pnew = Pnew + P @ C[ell + R.shape[1] :]
        X = X @ C1 + Pnew
        P = Pnew
        history.append(theta.copy())
    return history
