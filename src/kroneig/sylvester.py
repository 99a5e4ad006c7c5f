"""Low-rank solvers for shifted two- and three-term Sylvester equations.

The three-term node equation solved here is

    ((z/2) I - K_hat) X + X ((z/2) I - K_til)^T - sum hat_c X til_c^T = F G^T,

the matricized form of one shifted Kronecker-structured linear system
(z I - A) x = vec(F G^T) with A = I (x) K_hat + K_til (x) I + sum til_c
(x) hat_c; for the Schrodinger problems K is tridiagonal and the coupling
factors are the two potential diagonals. The factors stay typed
(``factors``), so no n x n coefficient is formed. Low-rank matrices are
carried in factored pairs: a rank-r matrix is a pair (F, G) of n_hat x r
and n_til x r blocks with X = F @ G.T. The transpose is PLAIN, also for
complex data; wherever an adjoint is meant the conjugation is written out.

The two-term solver is "eig2", which inverts the two-term part on the
spectra of the Hermitian K. It holds the eigenvalues of each coefficient
matrix (a banded K's from its band, in O(n) memory), shared across nodes
and columns when the caller constructs it once. It is sound at every node
of a contour, including nodes whose real part falls inside the
sum-spectrum of the operator. At a nonreal node it solves low-rank inputs
to the requested tolerance by factored ADI (``fadi_steps``, the library's
one fADI recurrence) on the band-LU factors of K, with shifts chosen
greedily on the two spectra, one block of inputs at a time; an input that
needs more steps than its budget, and every input at a real node, goes
through the dense eigenbasis quotient, whose range is sampled with one
Gaussian test matrix drawn from a fixed key, so the solver's results
depend on no seed. The eigenbases and that matrix are formed on the first
such solve, so a run whose solves all fit fADI holds no n x n array. The
two-term solutions come back uncut; their one consumer,
``TensorGalerkin``, keeps the directions above its basis cut.

A family of node equations that differ only in the shift and in which
right-hand side column they take is solved on one shared tensor basis by
``TensorGalerkin``: each cell is a small projected equation, its residual
is a true full-space one, and a cell that misses its tolerance grows the
basis by two-term solves (the eig2 solves of its right-hand side, one
block per shift, and of its solution's coupling image). The family owns
the node-solve policy: it is built from the operator, the right-hand
sides and the node tolerance, and derives the split, the eig2 solver and
the basis cut itself. The contour and ``sylvester-bench`` build it that
way and solve every node with it.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import scipy.linalg

from .dense import qr_unless_wide
from .errors import (
    DegenerateInterval,
    KroneigError,
    OutOfRange,
    SingularShiftedSolve,
    StructureMismatch,
)
from .factors import Identity, as_factor
from .sketch import gaussian

__all__ = [
    "pair_norm",
    "adi_shifts",
    "fadi_steps",
    "EigenbasisPreconditioner",
    "TensorGalerkin",
]

# ---------------------------------------------------------------------------
# factored-pair algebra


def pair_norm(F, G):
    """Frobenius norm of F G^T via Gram matrices, without materialization:
    ||F G^T||_F^2 = sum_{ij} (F^H F)_{ij} (G^H G)_{ij}."""
    return math.sqrt(max(np.sum((F.conj().T @ F) * (G.conj().T @ G)).real, 0.0))


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


def _greedy_shifts(a, b):
    """fADI shifts for diag(a) X + X diag(b)^T, greedy on the spectra alone.

    Step k takes alpha_k = a_i and beta_k = -b_j where the rational factors
    the earlier steps left on the residual, phi_i = prod |a_i - alpha| /
    |a_i - beta| and gam_j = prod |b_j + beta| / |b_j + alpha|, are
    largest (uniform weights: a discrete minimax bound), and zeroes them.
    The factors are renormalized every step, so amplifying steps cannot
    overflow. Yields pairs (alpha, beta) without end.
    """
    phi, gam = np.ones(a.size), np.ones(b.size)
    while True:
        alpha, beta = a[np.argmax(phi)], -b[np.argmax(gam)]
        yield alpha, beta
        # every denominator is some a_i + b_j, nonzero for disjoint spectra
        phi = phi * np.abs(a - alpha) / np.abs(a - beta)
        gam = gam * np.abs(b + beta) / np.abs(b + alpha)
        phi, gam = phi / (phi.max() or 1.0), gam / (gam.max() or 1.0)


# ---------------------------------------------------------------------------
# the eigenbasis ("eig2") two-term solver


# columns of eig2's one Gaussian test matrix (90 plus 8 oversampling): the
# dense quotient comes back as a pair of at most this rank
_SAMPLE_WIDTH = 98


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
    """Inverse of the two-term part on the spectra of K, fADI first.

    For Acoef = (z/2) I - K_hat and Bcoef = (z/2) I - K_til the map
    X -> Acoef X + X Bcoef^T has the eigenvalues D_ij = z - lambda_hat_i -
    lambda_til_j, lambda the spectra of the Hermitian K; they are all this
    solver holds when it is built (the factor's ``eigvalsh``: a banded K in
    its band, in O(n) memory). ``solve_pairs`` solves a block of low-rank
    inputs F G^T at one shift z. At a nonreal z it runs one fADI
    (``fadi_steps``) on the whole block: its shifts are greedy on the two
    spectra (``_greedy_shifts``), so they depend on z alone, and step k
    solves with K's band LU at z/2 - beta_k and at z/2 + alpha_k
    (``shifted_solver``), factored once for the block. fADI acts column by
    column, so an input's pair is its columns of every step up to its own
    stop: the first step whose residual F_k G_k^T, of the input's rank, is
    at most tol ||F G^T||_F. An input that needs more steps than its stack
    budget, and every input at a real z, takes the dense path instead: the
    eigenbasis quotient X = Q_hat ((Q_hat^H F)(Q_til^H G)^T / D) Q_til^T,
    returned as the range-finder pair (Q, (Q^H X)^T), Q from the QR of
    X Omega (Halko, Martinsson & Tropp, SIAM Review 2011). The eigenbases
    (the factors' ``eigh``) and the test matrix Omega (n_til x min(n_til,
    _SAMPLE_WIDTH), drawn from a fixed Philox key) are formed once, on the
    first dense-path solve (``dense_basis``), so a solver whose inputs all
    fit fADI holds no n x n array, and the dense pair is exact wherever
    Omega is square. Nothing is truncated here: the caller keeps what it
    needs. Build once per K pair and share across nodes and columns; the
    solves are thread-safe, and ``paths`` counts them by the path that
    answered. A factor that is not Hermitian raises StructureMismatch.
    """

    def __init__(self, K_hat, K_til=None):
        self.K_hat = as_factor(K_hat)
        self.K_til = self.K_hat if K_til is None else as_factor(K_til)
        self.lam_hat = self.K_hat.eigvalsh()
        if self.K_til.equals(self.K_hat):
            self.K_til, self.lam_til = self.K_hat, self.lam_hat
        else:
            self.lam_til = self.K_til.eigvalsh()
        # fADI stacks s = r_in * steps columns: at most half the smaller
        # side, and only while the O(n s^2) QR the caller takes of them
        # costs less than the dense path's O(n^2 w), w the width of Omega
        n = min(self.lam_hat.size, self.lam_til.size)
        self._stack_max = min(n / 2, math.sqrt(n * min(self.lam_til.size, _SAMPLE_WIDTH) / 2))
        self.paths = {"fadi": 0, "dense": 0}
        self._basis = None
        self._lock = threading.Lock()

    def dense_basis(self):
        """(Q_hat, Q_til, Omega) of the dense path, formed on the first call."""
        with self._lock:
            if self._basis is None:
                Q_hat = self.K_hat.eigh()[1]
                Q_til = Q_hat if self.K_til is self.K_hat else self.K_til.eigh()[1]
                n_til = self.lam_til.size
                self._basis = Q_hat, Q_til, gaussian(n_til, min(n_til, _SAMPLE_WIDTH), seed=0)
            return self._basis

    def solve_pair(self, z, F, G, tol):
        """Pair (Fp, Gp) with Fp Gp^T ~ the two-term solve of F G^T at shift z."""
        (result,) = self.solve_pairs(z, [(F, G)], tol)
        if isinstance(result, KroneigError):
            raise result
        return result

    def solve_pairs(self, z, pairs, tol):
        """The two-term solves of the inputs F G^T, given as pairs (F, G),
        at shift z: per input the pair (Fp, Gp) with Fp Gp^T ~ its solve, or
        the KroneigError that stopped it."""
        # no step at a real z, which may lie on the sum spectrum
        budgets = [int(self._stack_max // max(F.shape[1], 1)) if np.imag(z) else 0
                   for F, _ in pairs]
        try:
            results = self._fadi(z, pairs, budgets, tol)
        except KroneigError as exc:
            results = [exc] * len(pairs)
        dense = [k for k, result in enumerate(results) if result is None]
        for k in dense:
            try:
                results[k] = self._dense_pair(z, *pairs[k])
            except KroneigError as exc:
                results[k] = exc
        with self._lock:
            self.paths["fadi"] += len(pairs) - len(dense)
            self.paths["dense"] += len(dense)
        return results

    def _fadi(self, z, pairs, budgets, tol):
        """One fADI on the stacked inputs: per input the stack of its steps
        at its stop, or None when that takes more steps than its budget
        (an input of budget 0 stops only if it is already solved)."""
        F, G = np.hstack([F for F, _ in pairs]), np.hstack([G for _, G in pairs])
        edges = np.cumsum([0] + [Fi.shape[1] for Fi, _ in pairs])
        cols = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        targets = [tol * pair_norm(Fi, Gi) for Fi, Gi in pairs]
        stops = [None] * len(pairs)

        def settled(k, F, G):
            # pair_norm of every input at once, from the Gram diagonal blocks
            P = ((F.conj().T @ F) * (G.conj().T @ G)).real
            for i, c in enumerate(cols):
                if stops[i] is None and k <= budgets[i]:
                    if math.sqrt(max(P[c, c].sum(), 0.0)) <= targets[i]:
                        stops[i] = k
            return all(stop is not None or k >= budget for stop, budget in zip(stops, budgets))

        solvers = [None, None]  # the band LUs of the current step only

        def shifts():
            for alpha, beta in _greedy_shifts(z / 2.0 - self.lam_hat, z / 2.0 - self.lam_til):
                solvers[:] = (self.K_hat.shifted_solver(z / 2.0 - beta),
                              self.K_til.shifted_solver(z / 2.0 + alpha))
                yield alpha, beta

        # each input's own columns of its steps, copied out so that a step
        # is freed once taken and an input that stopped takes no more
        Zs, Ys = [[Fi[:, :0]] for Fi, _ in pairs], [[Gi[:, :0]] for _, Gi in pairs]
        if not settled(0, F, G):
            # Acoef - beta I = -(K_hat - (z/2 - beta) I), Bcoef + alpha I likewise
            steps = fadi_steps(F, G, shifts(), lambda k, X: -solvers[0](X),
                               lambda k, X: -solvers[1](X))
            for k, (Z, Y, gap) in enumerate(steps, 1):
                for i, c in enumerate(cols):
                    if stops[i] is None:
                        Zs[i].append(gap * Z[:, c])
                        Ys[i].append(Y[:, c].copy())
                F, G = F + gap * Z, G - gap * Y
                if settled(k, F, G):
                    break
        results = []
        for i, stop in enumerate(stops):
            Zi, Yi = Zs[i], Ys[i]
            Zs[i] = Ys[i] = None  # one input's steps held twice at a time
            results.append(None if stop is None else (np.hstack(Zi), np.hstack(Yi)))
        return results

    def _dense_pair(self, z, F, G):
        """The range-finder pair of the eigenbasis quotient."""
        D = z - self.lam_hat[:, None] - self.lam_til[None, :]
        # the eigenvalues are real, so only a real z can make D_ij vanish
        if np.imag(z) == 0 and np.min(np.abs(D)) == 0.0:
            raise SingularShiftedSolve("eigenbasis preconditioner: z hits the sum spectrum")
        Q_hat, Q_til, omega = self.dense_basis()
        X = _real_matmul(Q_hat.conj().T, F) @ _real_matmul(Q_til.conj().T, G).T / D
        Q = np.linalg.qr(X @ omega)[0]
        return _real_matmul(Q_hat, Q), _real_matmul(Q_til, (Q.conj().T @ X).T)


# ---------------------------------------------------------------------------
# Galerkin solves of a node-equation family on a shared tensor basis

# basis cut of a node family, relative to its node tolerance, and the
# tolerance of the two-term solves that grow the basis: at tol 1e-10 a cut
# at 1e-13 carried every held-out cell, 1e-11 did not
_CUT = 1e-3

# iteration cap of the projected GMRES: its Krylov basis holds one r x r
# array per step, and a cell that needs more steps enriches the basis instead
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
    hat_c X til_c^T = F[:, j] G[:, j]^T over shifts z and right-hand side
    columns j, the node equations of one contour for the operator A = I (x)
    K_hat + K_til (x) I + til_c (x) hat_c. Everything else is derived here,
    once: the split is read from ``A.split`` (a side without identity terms
    is the zero diagonal; more than one coupling raises StructureMismatch),
    the eig2 two-term solver is built (``eig2``, whose ``paths`` counts the
    family's two-term solves by path), the basis cut is _CUT tol, and
    ``real`` is set when A's factors, F and G are all real. Its solutions
    lie close to one tensor space: X ~ U Y V^T with orthonormal U (n_hat x
    r_hat) and V (n_til x r_til) (Simoncini, SIAM Review 2016; Kressner &
    Tobler, SIMAX 2011). ``enrich`` grows the basis from an empty one by
    two-term solves: of the right-hand side of each cell that misses tol,
    and of its solution's coupling image, until the cells reach it; ``grow``
    adds given pairs. A cell projects to the r_hat x r_til equation

        (z/2 - U^H K_hat U) Y + Y (z/2 - V^H K_til V)^T
            - (U^H hat_c U) Y (V^H til_c V)^T = (U^H F_j)(V^H G_j)^T,

    solved by GMRES right-preconditioned with the two-term part. The bases
    are kept in the eigenbases of U^H K_hat U and V^H K_til V, where that
    part is the elementwise division by z - lam_hat_i - lam_til_j, so the
    eigendecompositions are paid once per basis, not per shift.

    ``solve`` returns the true relative residual of U Y V^T in full space,
    split on the bases and their orthogonal complements: b - L(U Y V^T) has
    a projected part U rho V^T and three parts that leave U, V or both,
    whose cores are read off the rows past r_hat of the Householder R of
    [U, F, K_hat U, hat_c U] and past r_til of that of [V, G, K_til V,
    til_c V] (see ``residual``). Both are taken once per basis; Householder
    QR keeps the norm accurate to eps times the stacks' norms, which a
    Gram-based norm cannot. A whole-space basis leaves no complement, and
    its residual is the projected one.

    With ``real`` set U and V are real and span [X, conj X] of every added
    solution, so the conjugate node's solution conj(U Y V^T) = U conj(Y)
    V^T lies in the same space, and the projected products with a complex
    Y run as real GEMMs. A basis direction is kept when it carries more
    than ``cut`` of a normalized added solution. ``sigma`` (ell, r_hat,
    r_til) holds the accumulated cores on the current bases, one per
    column, and is carried through every basis change.
    """

    def __init__(self, A, F, G, tol):
        K_hat, K_til, couplings = A.split
        if len(couplings) > 1:
            raise StructureMismatch(
                f"node family needs at most one non-separable term, found {len(couplings)}"
            )
        self.K_hat = 0.0 * Identity(A.n_hat) if K_hat is None else K_hat
        self.K_til = 0.0 * Identity(A.n_til) if K_til is None else K_til
        self.coupling = couplings[0] if couplings else None
        self.eig2 = EigenbasisPreconditioner(self.K_hat, self.K_til)
        self.F, self.G = F, G
        self.tol = tol
        self.cut = _CUT * tol
        self.real = not any(np.iscomplexobj(M) for M in (F, G) + sum(A.terms, ()))
        dtype = float if self.real else complex
        self.U = np.zeros((F.shape[0], 0), dtype=dtype)
        self.V = np.zeros((G.shape[0], 0), dtype=dtype)
        self.sigma = np.zeros((F.shape[1], 0, 0), dtype=dtype)
        self.lam_hat = self.lam_til = np.zeros(0)
        self.bnorm = np.linalg.norm(F, axis=0) * np.linalg.norm(G, axis=0)

    @property
    def ranks(self):
        return self.U.shape[1], self.V.shape[1]

    def _grow(self, B, W, cut):
        """B extended by the directions of W's remainder above the cut."""
        if self.real:
            W = np.hstack([W.real, W.imag])

        def orthogonalize(W):  # Gram-Schmidt twice keeps W orthogonal to B
            for _ in range(2):
                W = W - B @ (B.conj().T @ W)
            return W

        Q, s, _ = np.linalg.svd(orthogonalize(W), full_matrices=False)
        # directions kept near the cut are mostly rounding along B: clean them
        Q = np.linalg.qr(orthogonalize(Q[:, s > cut]))[0]
        return np.hstack([B, Q])

    def _add(self, U, V, Xhat, Xtil, cut):
        """U and V extended until they hold X = Xhat Xtil^T up to the cut."""
        lift_h, Rh = qr_unless_wide(Xhat)
        lift_t, Rt = qr_unless_wide(Xtil)
        core = Rh @ Rt.T
        scale = np.linalg.norm(core)
        if scale == 0.0:
            return U, V
        # X / ||X|| = (Qh C)(Qt)^T: Qh C carries X's column space with its
        # singular values, Qt C^T the row space with the same
        return self._grow(U, lift_h(core / scale), cut), self._grow(V, lift_t(core.T / scale), cut)

    def _rebase(self, U, V):
        """Take the bases U, V (holding the current ones as leading columns)
        in the eigenbases of their projected K, with sigma carried along."""
        lam_h, Ph = scipy.linalg.eigh(_hermitian(U.conj().T @ (self.K_hat @ U)))
        lam_t, Pt = scipy.linalg.eigh(_hermitian(V.conj().T @ (self.K_til @ V)))
        self.U, self.V = U @ Ph, V @ Pt
        self.lam_hat, self.lam_til = lam_h, lam_t
        self._project()
        # appended directions extend the cores by zeros, and
        # U_old Y V_old^T = U (Ph^H Y conj(Pt)) V^T
        sigma = np.pad(self.sigma, ((0, 0), (0, Ph.shape[0] - self.sigma.shape[1]),
                                    (0, Pt.shape[0] - self.sigma.shape[2])))
        self.sigma = Ph.conj().T @ sigma @ Pt.conj()

    def accumulate(self, j, w, Y):
        """sigma[j] += w Y, in place. With real bases the real part is
        added: U Re(w Y) V^T is w X plus the conjugate node's conj(w X), halved."""
        self.sigma[j] += (w * Y).real if self.real else w * Y

    def grow(self, pairs, cut=None):
        """Add the pairs (Xhat, Xtil) to the basis, in order, keeping the
        directions above ``cut`` (default: the family's); a basis that
        gains no direction, and its sigma, are left as they are."""
        U, V = self.U, self.V
        for Xhat, Xtil in pairs:
            U, V = self._add(U, V, Xhat, Xtil, self.cut if cut is None else cut)
        if (U.shape[1], V.shape[1]) != self.ranks:
            self._rebase(U, V)

    def enrich(self, cells, pmap=map):
        """Solve the cells (z, j, w) on the basis, grown until they reach
        tol, and accumulate w Y into sigma[j].

        Round by round every pending cell is solved on the basis. A cell
        above tol grows it by eig2 two-term solves, to _CUT tol and uncut:
        of its own right-hand side F_j G_j^T once and of the coupling image
        of its solution, hat_c (U Y) (til_c V)^T, every round. With
        L2^-1(F_j G_j^T) and U Y V^T in the basis, the latter is the
        preconditioned residual's new direction, a tensor-Krylov step
        (Kressner & Tobler, SIMAX 2011). On an empty basis every cell misses
        with Y = 0, so the first round solves the right-hand sides alone.
        The fresh right-hand sides of a round that share a shift are solved
        as one block (``solve_pairs``: one fADI, each shift factored once);
        the coupling images are solved cell by cell. The pairs grow the
        basis in cell order. A two-term solve that fails adds nothing, and
        the first KroneigError of each cell is recorded on that cell. When
        a round adds no direction or fails to halve the worst residual, one
        last round runs that keeps every direction above cut / 100; a cell
        still above tol after it is accumulated with its Galerkin solution.
        ``pmap(fn, items)`` maps the per-block and per-cell work of a
        round.

        Returns (results, rounds): results[k] = (residual, steps, misses,
        error) of cell k, the true residual of its accumulated solution,
        its GMRES steps, the rounds in which it missed tol and grew the
        basis, and the message of its first failed two-term solve or None;
        rounds is the number of rounds that grew the basis.
        """
        results = [None] * len(cells)
        enriched = [0] * len(cells)
        errors = [None] * len(cells)
        pending, solved_rhs = list(range(len(cells))), set()
        worst_before, rounds, last = math.inf, 0, False

        def solve(k):
            z, j, _ = cells[k]
            return self.solve(z, j)

        def rhs_block(ks):
            """The two-term solves of the right-hand sides of cells ks, one
            shift, as one block: cell -> pair or error."""
            js = [cells[k][1] for k in ks]
            inputs = [(self.F[:, j : j + 1], self.G[:, j : j + 1]) for j in js]
            return dict(zip(ks, self.eig2.solve_pairs(cells[ks[0]][0], inputs, _CUT * self.tol)))

        def directions(k):
            found = [rhs[k]] if k in rhs else []
            if self.coupling is not None and misses[k].any():
                Fs, Gs = self._coupling_image(misses[k])
                try:
                    found.append(self.eig2.solve_pair(cells[k][0], Fs, Gs, _CUT * self.tol))
                except KroneigError as exc:
                    found.append(exc)
            pairs = []
            for pair in found:
                if isinstance(pair, KroneigError):
                    errors[k] = errors[k] or str(pair)
                else:
                    pairs.append(pair)
            return pairs

        while True:
            misses = {}
            for k, (Y, residual, steps) in zip(pending, pmap(solve, pending)):
                results[k] = (residual, steps, enriched[k])
                if residual <= self.tol:
                    self.accumulate(cells[k][1], cells[k][2], Y)
                else:
                    misses[k] = Y
            if not misses or last:
                break
            worst = max(results[k][0] for k in misses)
            last = not worst < 0.5 * worst_before
            blocks = {}
            for k in misses:
                if k not in solved_rhs:
                    blocks.setdefault(cells[k][0], []).append(k)
            rhs = {k: pair for block in pmap(rhs_block, list(blocks.values()))
                   for k, pair in block.items()}
            pairs = [pair for found in pmap(directions, list(misses)) for pair in found]
            solved_rhs.update(misses)
            before = self.ranks
            self.grow(pairs, self.cut / 100 if last else None)
            if self.ranks == before and not last:
                last = True
                self.grow(pairs, self.cut / 100)
            if self.ranks == before:
                break
            rounds += 1
            for k in misses:
                enriched[k] += 1
            pending, worst_before = list(misses), worst
        for k, Y in misses.items():
            self.accumulate(cells[k][1], cells[k][2], Y)
        return [(*result, error) for result, error in zip(results, errors)], rounds

    def _coupling_image(self, Y):
        """Pair (hat_c U Y, til_c V)."""
        return _real_matmul(self.hat_U, Y), self.til_V

    def _project(self):
        U, V = self.U, self.V
        self.hat_U = self.til_V = self.H = self.T = None
        P, Q = [U, self.F, self.K_hat @ U], [V, self.G, self.K_til @ V]
        if self.coupling is not None:
            til_c, hat_c = self.coupling
            self.hat_U, self.til_V = hat_c @ U, til_c @ V
            self.H, self.T = U.conj().T @ self.hat_U, V.conj().T @ self.til_V
            P.append(self.hat_U)
            Q.append(self.til_V)
        self.f = U.conj().T @ self.F
        self.g = V.conj().T @ self.G
        # rows past r of the R factor of [U, F, K U, c U]: the coordinates of
        # [F, K U, c U] on an orthonormal basis of their part orthogonal to U
        r_hat, r_til = self.ranks
        self.Rp_perp = np.linalg.qr(np.hstack(P), mode="r")[r_hat:, r_hat:]
        self.Rq_perp = np.linalg.qr(np.hstack(Q), mode="r")[r_til:, r_til:]

    def residual(self, z, j, Y):
        """True relative residual ||F_j G_j^T - L_z(U Y V^T)||_F / ||F_j G_j^T||_F.

        With Qp an orthonormal basis of the part of [F, K_hat U, hat_c U]
        orthogonal to U, Rp_perp = [cF, cK, cH] its coordinates, and Qq,
        Rq_perp = [dG, dK, dT] likewise, the residual is U rho V^T + U C2
        Qq^T + Qp C3 V^T + Qp C4 Qq^T. The pieces are mutually orthogonal,
        so its norm is that of the four cores: the projected residual rho =
        f_j g_j^T - D o Y + H Y T^T, C2 = f_j dG_j^T + Y dK^T + H Y dT^T,
        C3 = cF_j g_j^T + cK Y + cH Y T^T and C4 = cF_j dG_j^T + cH Y dT^T.
        """
        ell, (r_hat, r_til) = self.F.shape[1], self.ranks
        f, g, cF, dG = self.f[:, j], self.g[:, j], self.Rp_perp[:, j], self.Rq_perp[:, j]
        cU, dV = self.Rp_perp[:, ell:], self.Rq_perp[:, ell:]
        D = z - self.lam_hat[:, None] - self.lam_til[None, :]
        rho, C4 = np.outer(f, g) - D * Y, np.outer(cF, dG)
        # C2 = f_j dG_j^T + [Y, H Y] [dK, dT]^T, C3 = cF_j g_j^T + [cK, cH] [Y; Y T^T]
        Yq = Yp = Y
        if self.H is not None:
            HY, YT = _real_matmul(self.H, Y), _real_matmul(self.T, Y.T).T
            rho = rho + _real_matmul(self.H, YT)
            cHY = _real_matmul(cU[:, r_hat:], Y)
            C4 = C4 + _real_matmul(dV[:, r_til:], cHY.T).T
            Yq, Yp = np.hstack([Y, HY]), np.vstack([Y, YT])
        C2 = np.outer(f, dG) + _real_matmul(dV, Yq.T).T
        C3 = np.outer(cF, g) + _real_matmul(cU, Yp)
        return math.hypot(*map(np.linalg.norm, (rho, C2, C3, C4))) / float(self.bnorm[j])

    def solve(self, z, j):
        """Galerkin solution of cell (z, j): (Y, true relative residual, steps).

        GMRES stops at a projected residual of tol / 100 relative to the
        right-hand side, so that its own error leaves the cell well inside
        tol; the returned residual is measured in full space.
        A basis of rank 0, or a shift on the projected two-term spectrum,
        gives Y = 0, whose residual is 1.
        """
        if self.bnorm[j] == 0.0:
            return np.zeros(self.ranks, dtype=complex), 0.0, 0
        D = z - self.lam_hat[:, None] - self.lam_til[None, :]
        if D.size == 0 or not np.all(D):
            return np.zeros(self.ranks, dtype=complex), 1.0, 0
        B = np.outer(self.f[:, j], self.g[:, j])

        def apply(W):
            if self.H is None:
                return W
            # H Y T^T as (T (H Y)^T)^T: real GEMMs when H and T are real
            return W - _real_matmul(self.T, _real_matmul(self.H, W / D).T).T

        W, steps = _gmres(apply, B, 0.01 * self.tol * self.bnorm[j], _GMRES_MAX_ITER)
        Y = W / D
        return Y, self.residual(z, j, Y), steps


def _hermitian(M):
    return 0.5 * (M + M.conj().T)
