"""Low-rank solvers for shifted two- and three-term Sylvester equations.

The three-term ("multiterm") equation solved here is

    ((z/2) I - K_hat) X + X ((z/2) I - K_til)^T - hat_c X til_c^T = F G^T,

the matricized form of one shifted Kronecker-structured linear system
(z I - A) x = vec(F G^T) with A = I (x) K_hat + K_til (x) I + til_c (x)
hat_c (``MultitermSylvester`` takes any number of coupling terms); for the
Schrodinger problems K is tridiagonal and the coupling factors are the
two potential diagonals. The problem holds the typed
factors (``factors``) and the shift z and applies (z/2) X - K X on the
fly, so it never forms an n x n coefficient. Everything is carried in
factored pairs: a rank-r matrix is a pair (F, G) of n_hat x r and n_til x
r blocks with X = F @ G.T. The transpose is PLAIN, also for complex data;
wherever an adjoint is meant the conjugation is written out.

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

A pair is only worth its factors while it is smaller than the matrix. When
a pair at the rank cap would store at least as many entries as the
n_hat x n_til matrix (``_pair_fills_matrix``), BiCGstab carries its
recursion blocks and eig2 its dense output as exact matrices X, in the pair
form (X, I): one product F @ G.T replaces each QR and SVD. The iterate x
stays a truncated pair of rank at most the cap.

A family of node equations that differ only in the shift and in which
right-hand side column they take is solved on one shared tensor basis by
``TensorGalerkin``: the basis grows from two-term solves (the eig2 solves
of the right-hand sides, then of the coupling images of cells that miss
their tolerance) and from solutions found otherwise (the contour's
BiCGstab fallback cells), each cell is a small projected equation, and its
residual is a true full-space one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dense import qr_unless_wide, svd_trunc
from .errors import (
    Breakdown,
    DegenerateInterval,
    DimensionMismatch,
    OutOfRange,
    SingularShiftedSolve,
    StructureMismatch,
)
from .factors import as_factor

__all__ = [
    "MultitermSylvester",
    "FactoredSolution",
    "pair_inner",
    "pair_norm",
    "pair_truncate",
    "adi_shifts",
    "fadi_steps",
    "EigenbasisPreconditioner",
    "TensorGalerkin",
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


# ---------------------------------------------------------------------------
# problem container


@dataclass
class MultitermSylvester:
    """One shifted three-term Sylvester problem in factored form.

    Encodes ``((z/2) I - K_hat) X + X ((z/2) I - K_til)^T - sum hat_c X
    til_c^T = F G^T`` with X of shape (n_hat, n_til), summed over the
    (til_c, hat_c) pairs in ``couplings``. K_hat, K_til and the coupling
    factors are typed factors (raw arrays are classified once, here); ``z``
    is the spectral shift and drives the preconditioners. ``Acoef`` and
    ``Bcoef`` are dense n x n views for oracles only.
    """

    K_hat: object
    K_til: object
    couplings: tuple
    F: np.ndarray
    G: np.ndarray
    z: complex = 0.0

    def __post_init__(self):
        self.K_hat, self.K_til = as_factor(self.K_hat), as_factor(self.K_til)
        self.couplings = tuple((as_factor(t), as_factor(h)) for t, h in self.couplings)
        n_hat, n_til = self.n_hat, self.n_til
        if self.F.shape[0] != n_hat or self.G.shape[0] != n_til:
            raise DimensionMismatch("MultitermSylvester: rhs factors do not fit")
        if self.F.shape[1] != self.G.shape[1] or self.F.shape[1] < 1:
            raise DimensionMismatch("MultitermSylvester: rhs rank must be >= 1")
        for til, hat in self.couplings:
            if hat.shape[0] != n_hat or til.shape[0] != n_til:
                raise DimensionMismatch("MultitermSylvester: coupling sizes do not fit")

    @property
    def n_hat(self):
        return self.K_hat.shape[0]

    @property
    def n_til(self):
        return self.K_til.shape[0]

    @property
    def Acoef(self):
        return (self.z / 2.0) * np.eye(self.n_hat) - self.K_hat.dense()

    @property
    def Bcoef(self):
        return (self.z / 2.0) * np.eye(self.n_til) - self.K_til.dense()

    def apply_pair(self, F, G):
        """Factored image (Fo, Go) with Fo Go^T = L(F G^T); the rank grows
        (2 + len(couplings))-fold."""
        h = self.z / 2.0
        Fo, Go = [h * F - self.K_hat @ F, F], [G, h * G - self.K_til @ G]
        for til, hat in self.couplings:
            Fo.append(-(hat @ F))
            Go.append(til @ G)
        return np.hstack(Fo), np.hstack(Go)

    def real_symmetric_parts(self):
        """(K_hat, K_til) as dense real symmetric arrays.

        Raises StructureMismatch when either is not real symmetric.
        """
        out = []
        for K in (self.K_hat.dense(), self.K_til.dense()):
            if np.iscomplexobj(K):
                scale = max(np.max(np.abs(K.real)), 1.0)
                if np.max(np.abs(K.imag)) > 1e-12 * scale:
                    raise StructureMismatch("K is not real")
                K = np.real(K)
            if not np.allclose(K, K.T, rtol=1e-12, atol=1e-12):
                raise StructureMismatch("K is not symmetric")
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


def _pair_fills_matrix(r_max, n1, n2):
    """True when an n1 x n2 pair of rank r_max stores at least n1 * n2 entries."""
    return r_max * (n1 + n2) >= n1 * n2


def _compress_dense(X, tol, r_max, rng):
    """Split a dense matrix into a balanced low-rank pair.

    When a pair of rank r_max would be no smaller than X, returns X itself
    as the exact pair (X, I). Otherwise a randomized range finder with
    r_max + 8 columns, followed by the exact SVD of the projected core
    (fine for preconditioning).
    """
    if _pair_fills_matrix(r_max, *X.shape):
        return X, np.eye(X.shape[1], dtype=X.dtype)
    Y = X @ rng.standard_normal((X.shape[1], r_max + 8))
    Q, _ = np.linalg.qr(Y, mode="reduced")
    U, s, Vh = svd_trunc(Q.conj().T @ X, tol, r_max)
    U = Q @ U
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
    result; otherwise it forms the dense quotient and passes it through
    ``_compress_dense``. Its output has rank at most r_max, except when a
    pair of rank r_max cannot be smaller than the matrix
    (``_pair_fills_matrix``): the dense quotient then comes back exactly
    as (W, I), of rank n_til, and the caller truncates. Build once per K
    pair and share across nodes and columns; ``solve_pair`` is pure and
    thread-safe.
    """

    def __init__(self, K_hat, K_til=None):
        K_hat = as_factor(K_hat)
        self.lam_hat, self.Q_hat = scipy.linalg.eigh(np.asarray(K_hat))
        if K_til is None or K_til is K_hat or as_factor(K_til).equals(K_hat):
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
        # fADI stacks s = r_in * steps columns: at most half the smaller
        # side, and only while their O(n s^2) recompression costs less
        # than the dense path's O(n^2 (r_max + 8))
        n = min(f.shape[0], g.shape[0])
        stack_max = min(n / 2, math.sqrt(n * (r_max + 8) / 2))
        budget = int(stack_max // max(f.shape[1], 1))
        if np.imag(z) != 0 and budget >= 1:
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
# Galerkin solves of a node-equation family on a shared tensor basis

# iteration cap of the projected GMRES: its Krylov basis holds one r x r
# array per step, and a cell that needs more steps falls back anyway
_GMRES_MAX_ITER = 50


def _gmres(apply, b, target, max_iter):
    """Unrestarted GMRES from zero on arrays of any shape.

    Stops once the residual norm is at most ``target`` (absolute) or after
    max_iter steps. Returns (x, steps).
    """
    beta = float(np.linalg.norm(b))
    if beta <= target:
        return np.zeros_like(b), 0
    basis = [b / beta]
    H = np.zeros((max_iter + 1, max_iter), dtype=complex)
    rhs = np.zeros(max_iter + 1, dtype=complex)
    rhs[0] = beta
    for k in range(max_iter):
        w = apply(basis[k])
        for i in range(k + 1):  # modified Gram-Schmidt
            H[i, k] = np.vdot(basis[i], w)
            w = w - H[i, k] * basis[i]
        H[k + 1, k] = np.linalg.norm(w)
        y = np.linalg.lstsq(H[: k + 2, : k + 1], rhs[: k + 2], rcond=None)[0]
        if np.linalg.norm(H[: k + 2, : k + 1] @ y - rhs[: k + 2]) <= target or H[k + 1, k] == 0:
            break
        basis.append(w / H[k + 1, k])
    return sum(c * q for c, q in zip(y, basis)), k + 1


class TensorGalerkin:
    """Galerkin solves of a family of node equations on one tensor basis.

    The family is L_z(X) = ((z/2) I - K_hat) X + X ((z/2) I - K_til)^T -
    sum hat_c X til_c^T = F[:, j] G[:, j]^T over shifts z and right-hand
    side columns j, the node equations of one contour. Its solutions lie
    close to one tensor space: X ~ U Y V^T with orthonormal U (n_hat x r_hat)
    and V (n_til x r_til) (Simoncini, SIAM Review 2016; Kressner & Tobler,
    SIMAX 2011). The basis grows three ways: ``grow`` adds given pairs
    (the contour's two-term seed solves), ``enrich`` adds the two-term
    solves of the coupling images of cells that miss their tolerance until
    they reach it, and ``extend`` adds solutions found otherwise (BiCGstab
    fallbacks) and accumulates them. A cell projects to the r_hat x r_til
    equation

        (z/2 - U^H K_hat U) Y + Y (z/2 - V^H K_til V)^T
            - sum (U^H hat_c U) Y (V^H til_c V)^T = (U^H F_j)(V^H G_j)^T,

    solved by GMRES right-preconditioned with the two-term part. The bases
    are kept in the eigenbases of U^H K_hat U and V^H K_til V, where that
    part is the elementwise division by z - lam_hat_i - lam_til_j, so the
    eigendecompositions are paid once per basis, not per shift.

    ``solve`` returns the true relative residual of U Y V^T in full space:
    b - L(U Y V^T) = P M Q^T with P = [F, U, K_hat U, hat_c U], Q = [G, V,
    K_til V, til_c V] and a small core M holding Y and -z Y. P and Q are
    triangularized once per basis, so the norm is ||Rp M Rq^T||_F, as
    accurate as the triangular-factor residual of ``bicgstab_multiterm``.

    With ``real`` set (real factors and right-hand sides) U and V are real
    and span [X, conj X] of every added solution, so the conjugate node's
    solution conj(U Y V^T) = U conj(Y) V^T lies in the same space, and the
    projected products with a complex Y run as real GEMMs. A basis
    direction is kept when it carries more than ``cut`` of a normalized
    added solution.
    """

    def __init__(self, K_hat, K_til, couplings, F, G, cut, real):
        self.K_hat, self.K_til = as_factor(K_hat), as_factor(K_til)
        self.couplings = tuple((as_factor(t), as_factor(h)) for t, h in couplings)
        self.F, self.G = F, G
        self.cut = cut
        self.real = real
        dtype = float if real else complex
        self.U = np.zeros((F.shape[0], 0), dtype=dtype)
        self.V = np.zeros((G.shape[0], 0), dtype=dtype)
        self.lam_hat = self.lam_til = np.zeros(0)
        self.bnorm = np.linalg.norm(F, axis=0) * np.linalg.norm(G, axis=0)

    @property
    def ranks(self):
        return self.U.shape[1], self.V.shape[1]

    def _grow(self, B, W):
        """B extended by the directions of W's remainder above the cut."""
        if self.real:
            W = np.hstack([W.real, W.imag])

        def orthogonalize(W):  # Gram-Schmidt twice keeps W orthogonal to B
            for _ in range(2):
                W = W - B @ (B.conj().T @ W)
            return W

        Q, s, _ = np.linalg.svd(orthogonalize(W), full_matrices=False)
        # directions kept near the cut are mostly rounding along B: clean them
        Q = np.linalg.qr(orthogonalize(Q[:, s > self.cut]))[0]
        return np.hstack([B, Q])

    def _add(self, U, V, Xhat, Xtil):
        """U and V extended until they hold X = Xhat Xtil^T up to the cut."""
        lift_h, Rh = qr_unless_wide(Xhat)
        lift_t, Rt = qr_unless_wide(Xtil)
        core = Rh @ Rt.T
        scale = np.linalg.norm(core)
        if scale == 0.0:
            return U, V
        # X / ||X|| = (Qh C)(Qt)^T: Qh C carries X's column space with its
        # singular values, Qt C^T the row space with the same
        return self._grow(U, lift_h(core / scale)), self._grow(V, lift_t(core.T / scale))

    def _rebase(self, U, V, cores):
        """Take the bases U, V (holding the current ones as leading columns)
        in the eigenbases of their projected K; returns cores (m, r_hat,
        r_til) on the old bases carried onto the new ones."""
        lam_h, Ph = scipy.linalg.eigh(_hermitian(U.conj().T @ (self.K_hat @ U)))
        lam_t, Pt = scipy.linalg.eigh(_hermitian(V.conj().T @ (self.K_til @ V)))
        self.U, self.V = U @ Ph, V @ Pt
        self.lam_hat, self.lam_til = lam_h, lam_t
        self._project()
        # appended directions extend the cores by zeros, and
        # U_old Y V_old^T = U (Ph^H Y conj(Pt)) V^T
        cores = np.pad(cores, ((0, 0), (0, Ph.shape[0] - cores.shape[1]),
                               (0, Pt.shape[0] - cores.shape[2])))
        return Ph.conj().T @ cores @ Pt.conj()

    def accumulate(self, sigma, j, w, Y):
        """sigma[j] += w Y, in place. With real bases the real part is
        added: U Re(w Y) V^T is w X plus the conjugate node's conj(w X), halved."""
        sigma[j] += (w * Y).real if self.real else w * Y

    def extend(self, solutions, sigma):
        """Add weighted solutions to the basis and to the cores sigma.

        ``solutions`` yields (j, w, Xhat, Xtil) and is consumed one at a
        time: X = Xhat Xtil^T extends the basis, which then holds it up to
        the cut, and its core is accumulated into sigma[j] with weight w.
        ``sigma`` (ell, r_hat, r_til) holds cores on the current bases;
        returns them on the new bases.
        """
        U, V = self.U, self.V
        for j, w, Xhat, Xtil in solutions:
            U, V = self._add(U, V, Xhat, Xtil)
            sigma = np.pad(sigma, ((0, 0), (0, U.shape[1] - sigma.shape[1]),
                                   (0, V.shape[1] - sigma.shape[2])))
            self.accumulate(sigma, j, w, (U.conj().T @ Xhat) @ (V.conj().T @ Xtil).T)
        return self._rebase(U, V, sigma)

    def grow(self, pairs, cores=None):
        """Add the pairs (Xhat, Xtil) to the basis, accumulating nothing.

        ``cores`` (m, r_hat, r_til), cores on the current bases, come back
        on the new ones.
        """
        U, V = self.U, self.V
        for Xhat, Xtil in pairs:
            U, V = self._add(U, V, Xhat, Xtil)
        if cores is None:
            cores = np.zeros((0, *self.ranks))
        return self._rebase(U, V, cores)

    def enrich(self, cells, two_term, tol, pmap=map):
        """Galerkin solutions of the cells (z, j), the basis grown until they
        reach tol.

        Round by round every pending cell is solved on the basis; each cell
        above tol passes the coupling image of its solution, sum hat_c (U Y)
        (til_c V)^T as a pair, to ``two_term(z, j, Fc, Gc)``, which returns a
        pair approximating the two-term solve of it (None adds nothing).
        With the seed L2^-1(F_j G_j^T) and U Y V^T already in the basis,
        that is the preconditioned residual's new direction, a tensor-Krylov
        step (Kressner & Tobler, SIMAX 2011). The pairs grow the basis in
        cell order. The loop ends when no cell is left, when a round adds
        no direction or when it fails to halve the worst residual.
        ``pmap(fn, items)`` maps the per-cell work of a round.

        Returns (results, rounds): results[k] = (Y, residual, steps) of cell
        k, with Y on the final basis or None for a cell left above tol, and
        the number of rounds that grew the basis.
        """
        results = [None] * len(cells)
        pending, kept, cores = list(range(len(cells))), [], np.zeros((0, *self.ranks))
        worst_before, rounds = math.inf, 0

        def solve(k):
            return self.solve(*cells[k], tol)

        def direction(k):
            z, j = cells[k]
            return None if misses[k] is None else two_term(z, j, *self._coupling_image(misses[k]))

        while True:
            misses = {}
            for k, (Y, residual, steps) in zip(pending, pmap(solve, pending)):
                results[k] = (None, residual, steps)
                if residual <= tol:
                    kept.append(k)
                    cores = np.concatenate([cores, Y[None]])
                else:
                    misses[k] = Y
            worst = max((results[k][1] for k in misses), default=0.0)
            if not misses or not self.couplings or not worst < 0.5 * worst_before:
                break
            pairs = [pair for pair in pmap(direction, list(misses)) if pair is not None]
            before = self.ranks
            cores = self.grow(pairs, cores)
            if self.ranks == before:
                break
            rounds += 1
            pending, worst_before = list(misses), worst
        for k, Y in zip(kept, cores):
            results[k] = (Y,) + results[k][1:]
        return results, rounds

    def _coupling_image(self, Y):
        """Pair (hat_c U Y, til_c V), stacked over the couplings."""
        return (np.hstack([_real_matmul(hU, Y) for hU in self.hat_U]), np.hstack(self.til_V))

    def _project(self):
        U, V = self.U, self.V
        self.hat_U = [h @ U for _, h in self.couplings]
        self.til_V = [t @ V for t, _ in self.couplings]
        self.H = [U.conj().T @ hU for hU in self.hat_U]
        self.T = [V.conj().T @ tV for tV in self.til_V]
        self.f = U.conj().T @ self.F
        self.g = V.conj().T @ self.G
        ell = self.F.shape[1]
        Rp = qr_unless_wide(np.hstack([self.F, U, self.K_hat @ U] + self.hat_U))[1]
        Rq = qr_unless_wide(np.hstack([self.G, V, self.K_til @ V] + self.til_V))[1]
        self.Rp_rhs, self.Rq_rhs = Rp[:, :ell], Rq[:, :ell]
        self.Rp_blocks = np.split(Rp[:, ell:], 2 + len(self.hat_U), axis=1)
        self.Rq_blocks = np.split(Rq[:, ell:], 2 + len(self.til_V), axis=1)

    def residual(self, z, j, Y):
        """True relative residual ||F_j G_j^T - L_z(U Y V^T)||_F / ||F_j G_j^T||_F."""
        pU, pKU, *pH = self.Rp_blocks
        qV, qKV, *qT = self.Rq_blocks
        left = np.hstack([_real_matmul(p, Y) for p in [pU, pKU] + pH])
        right = np.hstack([qKV - z * qV, qV] + qT)
        R = np.outer(self.Rp_rhs[:, j], self.Rq_rhs[:, j]) + left @ right.T
        return float(np.linalg.norm(R)) / self.bnorm[j]

    def solve(self, z, j, tol):
        """Galerkin solution of cell (z, j): (Y, true relative residual, steps).

        GMRES stops at a projected residual of tol / 100 relative to the
        right-hand side, so that its own error leaves the cell well inside
        tol; the returned residual is measured in full space.
        A basis of rank 0, or a shift on the projected two-term spectrum,
        gives Y = None and residual inf.
        """
        if self.bnorm[j] == 0.0:
            return np.zeros(self.ranks, dtype=complex), 0.0, 0
        D = z - self.lam_hat[:, None] - self.lam_til[None, :]
        if D.size == 0 or not np.all(D):
            return None, math.inf, 0
        B = np.outer(self.f[:, j], self.g[:, j])

        def apply(W):
            Y = W / D
            # H Y T^T as (T (H Y)^T)^T: real GEMMs when H and T are real
            return W - sum(_real_matmul(T, _real_matmul(H, Y).T).T for H, T in zip(self.H, self.T))

        W, steps = _gmres(apply, B, 0.01 * tol * self.bnorm[j], _GMRES_MAX_ITER)
        Y = W / D
        return Y, self.residual(z, j, Y), steps


def _hermitian(M):
    return 0.5 * (M + M.conj().T)


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
    0.1 * tol) and ``rank_cap``. When a pair at ``rank_cap`` would store at
    least n_hat * n_til entries, the recursion blocks (p, v, s, t, r) are
    kept as exact matrices (X, I) instead; the iterate x is truncated either
    way, so the returned rank is at most ``rank_cap``. Because truncation
    makes the recursion residual drift, the true factored residual is
    recomputed every ``replace_every`` iterations and at every claimed
    convergence; the returned ``achieved_residual`` is always a true one.
    On a rho/omega breakdown the iteration restarts once from the current
    iterate with a fresh random shadow pair before raising Breakdown.
    Reaching max_iter returns the best iterate flagged ``converged=False``.
    """
    if rank_cap < problem.F.shape[1]:
        raise OutOfRange("bicgstab_multiterm: rank_cap below rhs rank")
    trunc_tol = 0.1 * tol if trunc_tol is None else trunc_tol
    M = _make_precond(precond, problem)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    dtype = complex if any(
        np.iscomplexobj(a)
        for a in (problem.K_hat, problem.K_til, problem.F, problem.G, np.asarray(problem.z))
    ) else float
    bF = problem.F.astype(dtype)
    bG = problem.G.astype(dtype)
    bnorm = pair_norm(bF, bG)
    n_hat, n_til = problem.n_hat, problem.n_til
    xF = np.zeros((n_hat, 0), dtype=dtype)
    xG = np.zeros((n_til, 0), dtype=dtype)
    if bnorm == 0.0:
        return FactoredSolution(xF, xG, 0.0, 0, converged=True)
    dense = _pair_fills_matrix(rank_cap, n_hat, n_til)
    eye = np.eye(n_til, dtype=dtype) if dense else None

    def recompress(F, G, tol=trunc_tol, r_max=rank_cap):
        """A recursion block: the exact (F G^T, I) when pairs cannot be smaller."""
        return (F @ G.T, eye) if dense else pair_truncate(F, G, tol, r_max)

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
        return rel, lambda: recompress(rF, rG, 1e-16, 4 * rank_cap)

    def restart(message):
        """Restart once from the current iterate with a random rank-1 shadow pair."""
        nonlocal restarted
        if restarted:
            raise Breakdown(message)
        restarted = True
        rF, rG = true_residual(xF, xG)[1]()
        r0F = rng.standard_normal((n_hat, 1)).astype(dtype)
        r0G = rng.standard_normal((n_til, 1)).astype(dtype)
        return rF, rG, r0F, r0G

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
            # shadow direction collapsed
            rF, rG, r0F, r0G = restart(
                f"bicgstab_multiterm: rho/omega underflow at iteration {it}"
            )
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
            pF, pG = recompress(pF, pG)
        rho = rho_new
        phF, phG = M.solve_pair(problem, pF, pG, trunc_tol, rank_cap, rng)
        vF, vG = problem.apply_pair(phF, phG)
        vF, vG = recompress(vF, vG)
        denom = pair_inner(r0F, r0G, vF, vG)
        if abs(denom) < tiny:
            rF, rG, r0F, r0G = restart("bicgstab_multiterm: alpha denominator underflow")
            fresh = True
            continue
        alpha = rho / denom
        sF = np.hstack([rF, -alpha * vF])
        sG = np.hstack([rG, vG])
        sF, sG = recompress(sF, sG)
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
        tF, tG = recompress(tF, tG)
        tt = pair_inner(tF, tG, tF, tG)
        if abs(tt) < tiny:
            raise Breakdown("bicgstab_multiterm: t vanished")
        omega = pair_inner(tF, tG, sF, sG) / tt
        xF = np.hstack([xF, alpha * phF, omega * shF])
        xG = np.hstack([xG, phG, shG])
        xF, xG = pair_truncate(xF, xG, trunc_tol, rank_cap)
        rF = np.hstack([sF, -omega * tF])
        rG = np.hstack([sG, tG])
        rF, rG = recompress(rF, rG)
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
