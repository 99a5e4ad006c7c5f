"""Low-rank solvers for shifted two- and three-term Sylvester equations.

The three-term ("multiterm") equation solved here is

    Acoef X + X Bcoef^T - Cl X Cr = F G^T,

the matricized form of one shifted Kronecker-structured linear system: for a
quadrature node z the coefficients are Acoef = Bcoef = (z/2) I - K and the
coupling factors Cl, Cr are the two potential diagonals. Everything is
carried in factored pairs: a rank-r matrix is a pair (F, G) of n_hat x r
and n_til x r blocks with X = F @ G.T. The transpose is PLAIN, also for
complex data; wherever an adjoint is meant the conjugation is written out.

The BiCGstab iteration is preconditioned by "eig2" (default), which
inverts the two-term part in the eigenbasis of K: one symmetric
eigendecomposition per coefficient matrix, shared across nodes/columns when
the caller constructs the preconditioner once. It is sound at every node of
a contour, including nodes whose real part falls inside the sum-spectrum of
the operator. At a nonreal node it solves a low-rank input to the
requested tolerance by factored ADI (``fadi_steps``, the library's one
fADI recurrence) and draws no random numbers. ``precond=None`` runs
unpreconditioned; any object with a ``solve_pair`` method can stand in for
eig2.

BiCGstab recursion residuals drift away from true residuals once iterates
are truncated, so the solver recomputes the true factored residual
periodically and at every claimed convergence; the reported residual is
always a true one. Whether it converged is decided from the triangular
factors of the unrecompressed residual stack, ||Rf Rg^T||_F; the stack is
recompressed only when the iteration goes on with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .dense import qr_unless_wide, svd_trunc
from .errors import (
    Breakdown,
    DegenerateInterval,
    DimensionMismatch,
    OutOfRange,
    SingularShiftedSolve,
    StructureMismatch,
)

__all__ = [
    "MultitermSylvester",
    "FactoredSolution",
    "pair_inner",
    "pair_norm",
    "pair_truncate",
    "adi_shifts",
    "fadi_steps",
    "EigenbasisPreconditioner",
    "bicgstab_multiterm",
]

# ---------------------------------------------------------------------------
# factored-pair algebra


def pair_inner(F1, G1, F2, G2):
    """Frobenius inner product <F1 G1^T, F2 G2^T> without materialization.

    trace((F1 G1^T)^H F2 G2^T) = sum_{ij} (F1^H F2)_{ij} (G1^H G2)_{ij}.
    """
    return np.sum((F1.conj().T @ F2) * (G1.conj().T @ G2))


def pair_norm(F, G):
    """Frobenius norm of F G^T via Gram matrices."""
    return math.sqrt(max(pair_inner(F, G, F, G).real, 0.0))


def pair_truncate(F, G, tol, r_max=None):
    """Recompress a factored pair: QR both factors, SVD the small core.

    Returns (F2, G2) with F2 G2^T close to F G^T, the discarded tail
    bounded by tol relative to the Frobenius norm, rank capped at r_max.
    A factor with at least as many columns as rows skips its QR and enters
    the core whole (``qr_unless_wide``); the result is the same truncation.
    The square-root-balanced split keeps both factors equally conditioned.
    """
    if F.shape[1] != G.shape[1]:
        raise DimensionMismatch("pair_truncate: factor ranks differ")
    if F.shape[1] == 0:
        return F, G
    lift_f, Rf = qr_unless_wide(F)
    lift_g, Rg = qr_unless_wide(G)
    U, s, Vh = svd_trunc(Rf @ Rg.T, tol, r_max)
    sq = np.sqrt(s)
    # X = Qf U diag(s) Vh Qg^T, so the right factor is Qg (Vh^T * sqrt(s)):
    # a plain transpose of Vh (conjugating here would conjugate X itself)
    return lift_f(U * sq), lift_g(Vh.T * sq)


def _fast_mul(M):
    """Matrix-times-block closure with sparse/diagonal fast paths."""
    M = np.asarray(M)
    n = M.shape[0]
    nz = np.count_nonzero(M)
    offdiag = nz - np.count_nonzero(np.diag(M))
    if offdiag == 0:
        d = np.diag(M).copy()
        return lambda B: d[:, None] * B
    if nz < 0.1 * n * n:
        S = scipy.sparse.csr_matrix(M)
        return lambda B: S @ B
    return lambda B: M @ B


def _shifted_solver(M):
    """Factor M once and return a solve closure; banded when M is banded."""
    M = np.asarray(M)
    n = M.shape[0]
    rows, cols = np.nonzero(M)
    bw = int(np.max(np.abs(rows - cols))) if rows.size else 0
    try:
        if bw <= 2 and n > 8:
            ab = np.zeros((2 * bw + 1, n), dtype=M.dtype)
            for d in range(-bw, bw + 1):
                diag = np.diagonal(M, d)
                ab[bw - d, max(d, 0) : max(d, 0) + diag.size] = diag

            def solve(B):
                try:
                    return scipy.linalg.solve_banded((bw, bw), ab, B)
                except scipy.linalg.LinAlgError as exc:
                    raise SingularShiftedSolve(str(exc)) from exc

            return solve
        # getrf itself, not lu_factor: lu_factor reports an exactly zero
        # pivot (info > 0) as a LinAlgWarning before returning the factors
        (getrf,) = scipy.linalg.get_lapack_funcs(("getrf",), (M,))
        lu, piv, info = getrf(np.asarray_chkfinite(M))
        if info != 0:
            raise SingularShiftedSolve("shifted matrix is exactly singular")
        return lambda B: scipy.linalg.lu_solve((lu, piv), B)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularShiftedSolve(str(exc)) from exc


# ---------------------------------------------------------------------------
# problem container


@dataclass
class MultitermSylvester:
    """One shifted three-term Sylvester problem in factored form.

    Encodes ``Acoef X + X Bcoef^T - coupling_left X coupling_right = F G^T``
    with X of shape (n_hat, n_til); ``z`` records the originating spectral
    shift (Acoef = Bcoef = (z/2) I - K for contour nodes) and drives the
    preconditioners.
    """

    Acoef: np.ndarray
    Bcoef: np.ndarray
    coupling_left: np.ndarray
    coupling_right: np.ndarray
    F: np.ndarray
    G: np.ndarray
    z: complex = 0.0

    def __post_init__(self):
        n_hat, n_til = self.Acoef.shape[0], self.Bcoef.shape[0]
        if self.F.shape[0] != n_hat or self.G.shape[0] != n_til:
            raise DimensionMismatch("MultitermSylvester: rhs factors do not fit")
        if self.F.shape[1] != self.G.shape[1] or self.F.shape[1] < 1:
            raise DimensionMismatch("MultitermSylvester: rhs rank must be >= 1")
        if self.coupling_left.shape[0] != n_hat or self.coupling_right.shape[0] != n_til:
            raise DimensionMismatch("MultitermSylvester: coupling sizes do not fit")
        self._mul_a = _fast_mul(self.Acoef)
        self._mul_b = _fast_mul(self.Bcoef)
        self._mul_cl = _fast_mul(self.coupling_left)
        self._mul_crt = _fast_mul(np.asarray(self.coupling_right).T)

    @property
    def n_hat(self):
        return self.Acoef.shape[0]

    @property
    def n_til(self):
        return self.Bcoef.shape[0]

    def apply_pair(self, F, G):
        """Factored image (Fo, Go) with Fo Go^T = L(F G^T); rank triples."""
        Fo = np.hstack([self._mul_a(F), F, -self._mul_cl(F)])
        Go = np.hstack([G, self._mul_b(G), self._mul_crt(G)])
        return Fo, Go

    def real_symmetric_parts(self):
        """Recover (K_hat, K_til) from Acoef = (z/2) I - K_hat etc.

        Raises StructureMismatch when the coefficients are not of that form
        with real symmetric K.
        """
        out = []
        for M in (self.Acoef, self.Bcoef):
            K = (self.z / 2.0) * np.eye(M.shape[0]) - M
            if np.iscomplexobj(K):
                scale = max(np.max(np.abs(K.real)), 1.0)
                if np.max(np.abs(K.imag)) > 1e-12 * scale:
                    raise StructureMismatch("coefficient is not (z/2) I - K with real K")
                K = np.real(K)
            if not np.allclose(K, K.T, rtol=1e-12, atol=1e-12):
                raise StructureMismatch("coefficient is not symmetric")
            out.append(K)
        return out[0], out[1]


@dataclass
class FactoredSolution:
    """Low-rank solution X = Xhat @ Xtil.T with solver bookkeeping.

    The pair uses the plain-transpose convention; conjugate Xtil to read the
    solution in adjoint form. ``achieved_residual`` is always a true
    (recomputed) relative residual, never the recursion's estimate.
    """

    Xhat: np.ndarray
    Xtil: np.ndarray
    achieved_residual: float
    iterations: int
    converged: bool = True

    @property
    def rank(self):
        return self.Xhat.shape[1]


# ---------------------------------------------------------------------------
# factored ADI


def adi_shifts(interval_a, interval_b, count):
    """Shift pairs for Ac X + X Bc^T = F G^T with SPD-like coefficients.

    ``lobpcg.AdiBlockPreconditioner`` runs ``fadi_steps`` with them.

    Both intervals must be positive (they usually come from Gershgorin
    bounds; a lower bound touching 0 is floored at 1e-8 times the upper).
    Returns ``count`` pairs (alpha_j, beta_j) = (p_j, -p_j) with p_j the
    geometric midpoints of the combined interval; the antisymmetric pattern
    makes the recipe invariant under swapping the two intervals.
    """
    if count < 1:
        raise OutOfRange("adi_shifts: count must be >= 1")
    lo = min(interval_a[0], interval_b[0])
    hi = max(interval_a[1], interval_b[1])
    if hi <= 0 or hi < lo:
        raise DegenerateInterval(f"adi_shifts: bad intervals {interval_a}, {interval_b}")
    lo = max(lo, 1e-8 * hi)
    t = (np.arange(count) + 0.5) / count
    p = lo * (hi / lo) ** t
    return [(p_j, -p_j) for p_j in p]


def fadi_steps(F, G, shifts, solve_hat, solve_til):
    """Factored ADI for A X + X B^T = F G^T (Benner, Li & Truhar 2009).

    Step k yields (Z, Y, gap) with Z = (A - beta_k I)^{-1} F_k =
    ``solve_hat(k, F_k)``, Y = -(B + alpha_k I)^{-1} G_k =
    ``-solve_til(k, G_k)`` and gap = beta_k - alpha_k; X_m = sum gap Z Y^T.
    The residual of X_m keeps the input rank, F_m G_m^T, with F_0 = F,
    F_{k+1} = F_k + gap Z = (A - alpha_k I)(A - beta_k I)^{-1} F_k, and
    G_0 = G, G_{k+1} = G_k - gap Y = (B + alpha_k I)^{-1}(B + beta_k I) G_k.
    """
    for k, (alpha, beta) in enumerate(shifts):
        Z = solve_hat(k, F)
        Y = -solve_til(k, G)
        gap = beta - alpha
        yield Z, Y, gap
        F = F + gap * Z
        G = G - gap * Y


def _diagonal_fadi(a, b, f, g, target, max_steps):
    """fADI for diag(a) X + X diag(b) = f g^T with greedy shifts.

    Step k takes alpha_k = a_i and beta_k = -b_j at the largest rows i of
    F_k and j of G_k, which it zeroes; every other row is scaled, so the
    row norms track ||F_k||_F ||G_k||_F >= ||F_k G_k^T||_F exactly at O(n)
    a step, before any factor is touched. Returns the stacked pair (Z, Y),
    X = Z Y^T, at the first step whose bound is at most target, or None
    when that takes more than max_steps. The row norms are renormalized
    every step and the bound kept as a logarithm, so amplifying steps
    cannot overflow.
    """
    phi, gam = np.linalg.norm(f, axis=1), np.linalg.norm(g, axis=1)
    log_target = math.log(target) if target > 0 else -math.inf
    log_bound, shifts = 0.0, []
    while phi.any() and gam.any():
        s_phi, s_gam = np.linalg.norm(phi), np.linalg.norm(gam)
        log_bound += math.log(s_phi) + math.log(s_gam)
        if log_bound <= log_target:
            break
        if len(shifts) == max_steps:
            return None
        alpha, beta = a[np.argmax(phi)], -b[np.argmax(gam)]
        # every denominator is some a_i + b_j, nonzero for disjoint spectra
        phi = phi / s_phi * np.abs(a - alpha) / np.abs(a - beta)
        gam = gam / s_gam * np.abs(b + beta) / np.abs(b + alpha)
        shifts.append((alpha, beta))

    def solve_hat(k, F):
        return F / (a - shifts[k][1])[:, None]

    def solve_til(k, G):
        return G / (b + shifts[k][0])[:, None]

    steps = list(fadi_steps(f, g, shifts, solve_hat, solve_til))
    Zs = np.hstack([f[:, :0]] + [gap * Z for Z, _, gap in steps])
    Ys = np.hstack([g[:, :0]] + [Y for _, Y, _ in steps])
    return Zs, Ys


# ---------------------------------------------------------------------------
# preconditioners for the multiterm BiCGstab


def _compress_dense(X, tol, r_max, rng):
    """Split a dense matrix into a balanced low-rank pair.

    A randomized range finder with r_max + 8 columns when they fill at most
    half of the smaller side, an exact truncated SVD otherwise.
    """
    m = r_max + 8
    if m <= min(X.shape) / 2:
        # the exact SVD of the projected core is fine for preconditioning
        Y = X @ rng.standard_normal((X.shape[1], m))
        Q, _ = np.linalg.qr(Y, mode="reduced")
        U, s, Vh = svd_trunc(Q.conj().T @ X, tol, r_max)
        U = Q @ U
    else:
        U, s, Vh = svd_trunc(X, tol, r_max)
    sq = np.sqrt(s)
    return U * sq, Vh.T * sq


def _real_matmul(Q, X):
    """Q @ X, as one real GEMM when Q is real and X complex.

    A complex X enters as its interleaved real view (C-ordered, so each row
    holds re, im, re, im, ...): a real Q acts on rows alone, so the product
    of that view is the view of the product, at half the flops of casting
    Q to complex.
    """
    if np.iscomplexobj(Q) or not np.iscomplexobj(X):
        return Q @ X
    X = np.ascontiguousarray(X, dtype=np.complex128)
    return (Q @ X.view(np.float64)).view(np.complex128)


class EigenbasisPreconditioner:
    """Inverse of the two-term part via eigendecompositions of K.

    For Acoef = (z/2) I - K_hat and Bcoef = (z/2) I - K_til the map
    X -> Acoef X + X Bcoef^T is diagonal in the eigenbases: with K = Q L Q^T
    the inverse is Q_hat ((Q_hat^T C Q_til) / D) Q_til^T, D_ij = z -
    lambda_hat_i - lambda_til_j. At a nonreal z, ``solve_pair`` runs fADI on
    the diagonal spectra z/2 - lambda until its residual is at most
    tol ||F G^T||_F, if that fits its rank budget, and recompresses the
    result; otherwise it compresses the dense quotient. Build once per K
    pair and share across nodes and columns; ``solve_pair`` is pure and
    thread-safe.
    """

    def __init__(self, K_hat, K_til=None):
        self.lam_hat, self.Q_hat = scipy.linalg.eigh(np.asarray(K_hat))
        if K_til is None or K_til is K_hat or np.array_equal(K_til, K_hat):
            self.lam_til, self.Q_til = self.lam_hat, self.Q_hat
        else:
            self.lam_til, self.Q_til = scipy.linalg.eigh(np.asarray(K_til))

    @classmethod
    def from_problem(cls, problem):
        K_hat, K_til = problem.real_symmetric_parts()
        return cls(K_hat, K_til)

    def solve_pair(self, problem, F, G, tol, r_max, rng):
        z = problem.z
        f = _real_matmul(self.Q_hat.T, F)
        g = _real_matmul(self.Q_til.T, G)
        pair = None
        if np.imag(z) != 0:
            # fADI stacks s = r_in * steps columns: at most half the smaller
            # side, and only while their O(n s^2) recompression costs less
            # than the dense path's O(n^2 (r_max + 8))
            n = min(f.shape[0], g.shape[0])
            stack_max = min(n / 2, math.sqrt(n * (r_max + 8) / 2))
            budget = int(stack_max // max(f.shape[1], 1))
            a, b = z / 2.0 - self.lam_hat, z / 2.0 - self.lam_til
            pair = _diagonal_fadi(a, b, f, g, tol * pair_norm(f, g), budget)
        if pair is not None:
            Fp, Gp = pair_truncate(*pair, tol, r_max)
        else:
            D = z - self.lam_hat[:, None] - self.lam_til[None, :]
            # the eigenvalues are real, so only a real z can make D_ij vanish
            if np.imag(z) == 0 and np.min(np.abs(D)) == 0.0:
                raise SingularShiftedSolve("eigenbasis preconditioner: z hits the sum spectrum")
            Fp, Gp = _compress_dense(f @ g.T / D, tol, r_max, rng)
        return _real_matmul(self.Q_hat, Fp), _real_matmul(self.Q_til, Gp)


class _IdentityPreconditioner:
    def solve_pair(self, problem, F, G, tol, r_max, rng):
        return F, G


def _make_precond(precond, problem):
    if precond is None:
        return _IdentityPreconditioner()
    if precond == "eig2":
        return EigenbasisPreconditioner.from_problem(problem)
    if hasattr(precond, "solve_pair"):
        return precond
    raise OutOfRange(f"bicgstab_multiterm: unknown preconditioner {precond!r}")


# ---------------------------------------------------------------------------
# truncated BiCGstab on factored pairs


def bicgstab_multiterm(
    problem,
    precond="eig2",
    tol=1e-6,
    max_iter=200,
    rank_cap=90,
    trunc_tol=None,
    replace_every=10,
    seed=0,
):
    """Preconditioned BiCGstab on factored pairs with rank truncation.

    Every recombination is recompressed to ``trunc_tol`` (default
    0.1 * tol) and ``rank_cap``. Because truncation makes the recursion
    residual drift, the true factored residual is recomputed every
    ``replace_every`` iterations and at every claimed convergence; the
    returned ``achieved_residual`` is always a true one. On a rho/omega
    breakdown the iteration restarts once from the current iterate with a
    fresh random shadow pair before raising Breakdown. Reaching max_iter
    returns the best iterate flagged ``converged=False``.
    """
    if rank_cap < problem.F.shape[1]:
        raise OutOfRange("bicgstab_multiterm: rank_cap below rhs rank")
    trunc_tol = 0.1 * tol if trunc_tol is None else trunc_tol
    M = _make_precond(precond, problem)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    dtype = complex if any(
        np.iscomplexobj(a)
        for a in (problem.Acoef, problem.Bcoef, problem.F, problem.G, np.asarray(problem.z))
    ) else float
    bF = problem.F.astype(dtype)
    bG = problem.G.astype(dtype)
    bnorm = pair_norm(bF, bG)
    n_hat, n_til = problem.n_hat, problem.n_til
    xF = np.zeros((n_hat, 0), dtype=dtype)
    xG = np.zeros((n_til, 0), dtype=dtype)
    if bnorm == 0.0:
        return FactoredSolution(xF, xG, 0.0, 0, converged=True)

    def true_residual(xF, xG):
        """Relative norm of b - L(x), decided from triangular factors.

        The factors of b - L(x) are stacked unrecompressed and QR'd,
        Qf Rf and Qg Rg, so the norm is ||Rf Rg^T||_F: Householder QR keeps
        it accurate to eps times the stacks' norms, which a Gram-based norm
        cannot. Returns
        ``(rel, keep)``; ``keep()`` recompresses the pair tightly for an
        iteration that goes on with it, so a converged check pays no SVD.
        """
        if xF.shape[1] == 0:
            return 1.0, lambda: (bF, bG)
        lF, lG = problem.apply_pair(xF, xG)
        rF = np.hstack([bF, lF])
        rG = np.hstack([bG, -lG])
        _, Rf = qr_unless_wide(rF)
        _, Rg = qr_unless_wide(rG)
        rel = float(np.linalg.norm(Rf @ Rg.T)) / bnorm
        return rel, lambda: pair_truncate(rF, rG, 1e-16, 4 * rank_cap)

    rF, rG = bF.copy(), bG.copy()
    r0F, r0G = rF, rG
    rho = alpha = omega = 1.0 + 0j if dtype is complex else 1.0
    vF = vG = pF = pG = None
    restarted = False
    best = (xF, xG, 1.0)
    tiny = 1e-290
    it = 0
    fresh = True  # p-direction must be rebuilt from r

    while it < max_iter:
        it += 1
        rho_new = pair_inner(r0F, r0G, rF, rG)
        if abs(rho_new) < tiny or (not fresh and (abs(rho) < tiny or abs(omega) < tiny)):
            # shadow direction collapsed: restart once from the current
            # iterate with a random rank-1 shadow pair
            if restarted:
                raise Breakdown(f"bicgstab_multiterm: rho/omega underflow at iteration {it}")
            restarted = True
            rF, rG = true_residual(xF, xG)[1]()
            r0F = rng.standard_normal((n_hat, 1)).astype(dtype)
            r0G = rng.standard_normal((n_til, 1)).astype(dtype)
            fresh = True
            rho_new = pair_inner(r0F, r0G, rF, rG)
            if abs(rho_new) < tiny:
                raise Breakdown("bicgstab_multiterm: restart shadow also degenerate")
        if fresh:
            pF, pG = rF, rG
            fresh = False
        else:
            beta = (rho_new / rho) * (alpha / omega)
            pF = np.hstack([rF, beta * pF, -beta * omega * vF])
            pG = np.hstack([rG, pG, vG])
            pF, pG = pair_truncate(pF, pG, trunc_tol, rank_cap)
        rho = rho_new
        phF, phG = M.solve_pair(problem, pF, pG, trunc_tol, rank_cap, rng)
        vF, vG = problem.apply_pair(phF, phG)
        vF, vG = pair_truncate(vF, vG, trunc_tol, rank_cap)
        denom = pair_inner(r0F, r0G, vF, vG)
        if abs(denom) < tiny:
            if restarted:
                raise Breakdown("bicgstab_multiterm: alpha denominator underflow")
            restarted = True
            rF, rG = true_residual(xF, xG)[1]()
            r0F = rng.standard_normal((n_hat, 1)).astype(dtype)
            r0G = rng.standard_normal((n_til, 1)).astype(dtype)
            fresh = True
            continue
        alpha = rho / denom
        sF = np.hstack([rF, -alpha * vF])
        sG = np.hstack([rG, vG])
        sF, sG = pair_truncate(sF, sG, trunc_tol, rank_cap)
        if pair_norm(sF, sG) / bnorm <= tol:
            # half-step exit: t would vanish and poison omega
            xF = np.hstack([xF, alpha * phF])
            xG = np.hstack([xG, phG])
            xF, xG = pair_truncate(xF, xG, trunc_tol, rank_cap)
            rel, keep = true_residual(xF, xG)
            if rel <= tol:
                return FactoredSolution(xF, xG, rel, it, converged=True)
            if rel < best[2]:
                best = (xF, xG, rel)
            rF, rG = keep()
            fresh = True
            continue
        shF, shG = M.solve_pair(problem, sF, sG, trunc_tol, rank_cap, rng)
        tF, tG = problem.apply_pair(shF, shG)
        tF, tG = pair_truncate(tF, tG, trunc_tol, rank_cap)
        tt = pair_inner(tF, tG, tF, tG)
        if abs(tt) < tiny:
            raise Breakdown("bicgstab_multiterm: t vanished")
        omega = pair_inner(tF, tG, sF, sG) / tt
        xF = np.hstack([xF, alpha * phF, omega * shF])
        xG = np.hstack([xG, phG, shG])
        xF, xG = pair_truncate(xF, xG, trunc_tol, rank_cap)
        rF = np.hstack([sF, -omega * tF])
        rG = np.hstack([sG, tG])
        rF, rG = pair_truncate(rF, rG, trunc_tol, rank_cap)
        claimed = pair_norm(rF, rG) / bnorm
        if claimed <= tol or it % replace_every == 0:
            rel, keep = true_residual(xF, xG)
            if rel <= tol:
                return FactoredSolution(xF, xG, rel, it, converged=True)
            if rel < best[2]:
                best = (xF, xG, rel)
            rF, rG = keep()

    rel_now, _ = true_residual(xF, xG)
    if rel_now > best[2]:
        xF, xG, rel_now = best
    return FactoredSolution(xF, xG, rel_now, max_iter, converged=False)
