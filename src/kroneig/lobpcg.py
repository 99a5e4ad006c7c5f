"""Locally optimal block preconditioned CG with low-rank truncation.

The iterate blocks X (current approximations), R (preconditioned
residuals) and P (search directions) are block low-rank; every update is
followed by a truncation with hard cap r_max, so the per-column ranks stay
bounded while the iteration converges toward the smallest eigenpairs of a
symmetric Kronecker-sum operator. R, P and the preconditioner output are
cut at the fixed relative tolerance trunc_eps. For X, trunc_eps is only a
ceiling: the tolerance tightens with the current residual to
min(trunc_eps, max_res / ||A||_bd), since a fixed cut re-injects an error
of about trunc_eps * ||A|| into the residual every update and so floors it
there (residual-driven truncation after Kressner & Tobler, 2011). The
bound ||A||_bd is read from the factors (``_norm_bound``).

The preconditioner inverts a two-term Kronecker sum M = I (x) K_hat' +
K_til' (x) I approximately by factored ADI. Because every column of a
block shares the same bases, one ADI chain on each basis serves all
columns at once: the hat-side chain transforms U, the tilde-side chain
transforms V, and each step's block reuses the per-column cores scaled by
its shift gap. The sum of the steps is cut once, never as partial sums: a
randomized range finder (Halko, Martinsson & Tropp, 2011; Minster, Saibaba
& Kilmer, 2020 for Tucker data) sketches each side of the sum with a
Khatri-Rao test matrix in one pass over the steps, a second pass projects
every step onto the two sketched ranges, and one truncation cuts the
projected cores. The chain of steps is never held, unless the sketch would
be no narrower than it or the grid; then the chain is cut exactly. The
shifted solves are factored once at construction and reused every
iteration.

Orthonormalization, the three-block Rayleigh-Ritz step and the residual
block are ``blr``'s, shared with the contour solver. The residual keeps
the rank of A X (3r on the Schrodinger operators: the shift lands on the
bases A's identity terms already put there), its bases are QR-factored
once per iteration (``blr.fold_bases``) for both its norms and its cut,
and Rayleigh-Ritz projects one operator term at a time, then solves a
standard eigenproblem on the span of [X R P] orthonormalized from the
blocks' cores: a dependent direction is dropped there, so a singular
Gram needs no fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blr import (
    BlockLowRank,
    EigenResult,
    add,
    column_norms,
    fold_bases,
    orthonormalize_svd,
    rayleigh_ritz_3block,
    residual_block,
    right_multiply,
    truncate,
)
from .dense import qr_unless_wide
from .errors import DimensionMismatch, OutOfRange, StructureMismatch
from .problems import gershgorin_interval, shift_operator
from .sketch import draw_khatri_rao
from .sylvester import adi_shifts, fadi_steps

__all__ = [
    "LobpcgConfig",
    "AdiBlockPreconditioner",
    "lobpcg_lowrank",
]

# width of the preconditioner's range sketch, in multiples of the rank cap:
# r_max + 10 columns cost LOBPCG iterations at n=300, r_max + 30 at n=2000
_SKETCH_WIDTH = 2


@dataclass(frozen=True)
class LobpcgConfig:
    """Eigensolver settings.

    k wanted pairs out of an ell-column block (k <= ell); r_max caps every
    block truncation. trunc_eps is the relative tolerance of the R, P and
    preconditioner truncations and the ceiling of the X truncation, whose
    tolerance tightens with the residual (trunc_eps=0 with r_max=None
    disables truncation for reference runs). A pair has converged when its
    residual norm is at most conv_tol. shift sigma is added to the operator
    internally (A + sigma I) when A is indefinite and subtracted from the
    reported values. The preconditioner inverts the separable part of the
    (shifted) operator, in adi_iterations >= 1 steps. max_iter >= 1 and
    conv_tol >= 0 (conv_tol=0 runs all max_iter iterations, as a comparison
    against a dense iteration does). ``seed`` feeds nothing: past the
    starting block the only random numbers are the preconditioner's sketch
    test matrices, drawn from fixed keys, and the field stays only because
    the benchmark's workload definitions pass it.
    """

    k: int
    ell: int
    trunc_eps: float = 1e-7
    r_max: int = 50
    max_iter: int = 200
    conv_tol: float = 1e-7
    adi_iterations: int = 8
    shift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= self.ell:
            raise OutOfRange(f"LobpcgConfig: need 1 <= k={self.k} <= ell={self.ell}")
        if self.trunc_eps < 0:
            raise OutOfRange("LobpcgConfig: trunc_eps must be >= 0")
        if self.r_max is not None and self.r_max < 1:
            raise OutOfRange("LobpcgConfig: r_max must be >= 1")
        if self.max_iter < 1:
            raise OutOfRange("LobpcgConfig: max_iter must be >= 1")
        if self.conv_tol < 0:
            raise OutOfRange("LobpcgConfig: conv_tol must be >= 0")
        if self.adi_iterations < 1:
            raise OutOfRange("LobpcgConfig: adi_iterations must be >= 1")


class AdiBlockPreconditioner:
    """Columnwise approximate inverse of M = I (x) K_hat + K_til (x) I.

    M is the separable part of ``A.split``; coupling terms of A are
    ignored. ``apply_block`` runs the library's factored-ADI
    recurrence (``sylvester.fadi_steps``) for a fixed number of steps with
    geometric shifts from the Gershgorin intervals of the two (SPD)
    one-dimensional factors, whose shifted solves each factor provides,
    factored once here (band LU for a banded factor).
    Applied to a block, the two chains run on the shared bases only: step k
    contributes the columns gap_k Z_k Sigma(j) Y_k^T, the input cores
    scaled by its shift gap, and the sum over k is cut once, at trunc_eps
    and r_max. With a rank cap, p = 2 r_max, and p narrower than both the
    stacked chain and the grid, the steps run twice: the first pass adds
    each into a Khatri-Rao sketch of p columns per side (one factor over the
    ell columns, one over the grid, from fixed keys, so a block always
    maps to the same bits), whose QR gives orthonormal bases of the sum's
    two ranges; the second projects each step onto them, and the
    (ell, p, p) projected cores are truncated. Otherwise the chain is held
    and its stacked bases are QR-factored instead, which keeps every
    direction, so the cut is that of the exact sum.
    """

    def __init__(self, A, iterations, trunc_eps, r_max):
        if iterations < 1:
            raise OutOfRange("AdiBlockPreconditioner: iterations must be >= 1")
        K_hat, K_til, _ = A.split
        if K_hat is None or K_til is None:
            raise StructureMismatch(
                "preconditioner needs identity (x) K and K (x) identity terms in the operator"
            )
        self.n_hat, self.n_til = K_hat.shape[0], K_til.shape[0]
        self.trunc_eps = trunc_eps
        self.r_max = r_max
        self.shifts = adi_shifts(
            gershgorin_interval(K_hat), gershgorin_interval(K_til), iterations
        )
        # fADI step: Z = (K_hat - beta I)^{-1} F, Y = -(K_til + alpha I)^{-1} G
        self.solve_hat = [K_hat.shifted_solver(b) for _, b in self.shifts]
        self.solve_til = [K_til.shifted_solver(-a) for a, _ in self.shifts]
        # the sketch's two Khatri-Rao test matrices, per block width ell
        self._tests = {}

    def apply_block(self, W):
        if (W.n_hat, W.n_til) != (self.n_hat, self.n_til):
            raise DimensionMismatch("AdiBlockPreconditioner: block grid mismatch")
        if W.ell == 0 or W.r_hat == 0 or W.r_til == 0:
            return W

        def steps():
            return fadi_steps(
                W.U,
                np.conj(W.V),
                self.shifts,
                lambda k, F: self.solve_hat[k](F),
                lambda k, G: self.solve_til[k](G),
            )

        stacked = len(self.shifts) * min(W.r_hat, W.r_til)
        width = None if self.r_max is None else _SKETCH_WIDTH * self.r_max
        if width is not None and width < min(stacked, self.n_hat, self.n_til):
            Q_hat, Q_til = self._sketch_ranges(W, steps(), width)
            chain = steps()
        else:
            chain = list(steps())
            Q_hat = _orthonormal_basis(np.hstack([Z for Z, _, _ in chain]))
            Q_til = _orthonormal_basis(np.conj(np.hstack([Y for _, Y, _ in chain])))
        # column j of the sum is sum_k gap_k Z_k sigma(j) Y_k^T; its core on
        # the two bases is Q_hat^H (.) Q_til
        core = 0
        for Z, Y, gap in chain:
            core = core + gap * ((Q_hat.conj().T @ Z) @ W.sigma @ (Y.T @ Q_til))
        out = BlockLowRank(Q_hat, Q_til, core, orthonormal=True)
        return truncate(out, self.trunc_eps, self.r_max)

    def _sketch_ranges(self, W, steps, width):
        """Orthonormal bases of the ranges of the fADI sum's hat and tilde
        unfoldings, from one pass over its steps: the hat unfolding [M_0 ..
        M_ell-1] of the columns M_j = sum_k gap_k Z_k sigma(j) Y_k^T meets a
        Khatri-Rao test matrix whose column i is kron(a_i, w_i), a_i over the
        ell columns and w_i over the tilde grid, and the tilde unfolding
        [M_0^H .. M_ell-1^H] one over the hat grid. Sketch column i of one
        step is Z_k sum_j a_ji sigma(j) (Y_k^T w_i), taken from the (ell, r,
        p) products sigma(j) Y_k^T [w_0 ..], so no r x r x p array forms."""
        if W.ell not in self._tests:
            self._tests[W.ell] = (
                draw_khatri_rao(W.ell, self.n_til, width, seed=0, scaled=False),
                draw_khatri_rao(W.ell, self.n_hat, width, seed=1, scaled=False),
            )
        hat_test, til_test = self._tests[W.ell]
        sigma_h = np.conj(np.swapaxes(W.sigma, 1, 2))
        S_hat = S_til = 0
        for Z, Y, gap in steps:
            B = np.einsum("jrp,jp->rp", W.sigma @ (Y.T @ hat_test.hat), hat_test.tilde)
            S_hat = S_hat + gap * (Z @ B)
            B = np.einsum("jrp,jp->rp", sigma_h @ (Z.conj().T @ til_test.hat), til_test.tilde)
            S_til = S_til + gap * (np.conj(Y) @ B)
        return _orthonormal_basis(S_hat), _orthonormal_basis(S_til)


def _orthonormal_basis(M):
    """Orthonormal basis of M's column space: the reduced QR's Q, or the
    identity when M has at least as many columns as rows."""
    lift, R = qr_unless_wide(M)
    return lift(np.eye(R.shape[0]))


def _norm_bound(A):
    """Upper bound of ||A||_2 from the factors, in their storage's time:
    the sum over terms of b(til) b(hat), b(M) = sqrt(||M||_1 ||M||_inf) >=
    ||M||_2. A zero operator gives 1."""

    def b(M):
        M = abs(M.matrix)
        return math.sqrt(float(M.sum(axis=0).max()) * float(M.sum(axis=1).max()))

    return sum(b(til) * b(hat) for til, hat in A.terms) or 1.0


def lobpcg_lowrank(A, cfg, X0):
    """Smallest eigenpairs of a symmetric Kronecker-sum operator.

    Starts from the ell-column block X0, orthonormalizes, and iterates:
    preconditioned residual block, orthonormalization of R and P from
    their cores (``orthonormalize_svd``), one three-block Rayleigh-Ritz
    (which drops the dependent directions of [X R P]), then the P and X
    updates, truncating after every block recombination: R and P at
    trunc_eps, X at min(trunc_eps, max residual of the k wanted columns /
    ||A||_bd) with ||A||_bd a bound read once per run from the operator's
    factors. Stops when the k smallest pairs have residuals at most
    conv_tol, else after max_iter with the best visited state flagged
    unconverged. Reported residuals are ||A x - theta x||_2 per column in
    block low-rank arithmetic.
    """
    if X0.ell != cfg.ell:
        raise DimensionMismatch(f"lobpcg_lowrank: X0 has {X0.ell} columns, cfg.ell={cfg.ell}")
    if (X0.n_hat, X0.n_til) != (A.n_hat, A.n_til):
        raise DimensionMismatch("lobpcg_lowrank: X0 grid does not match the operator")
    Aw = shift_operator(A, cfg.shift) if cfg.shift != 0.0 else A
    precond = AdiBlockPreconditioner(Aw, cfg.adi_iterations, cfg.trunc_eps, cfg.r_max)
    anorm = _norm_bound(Aw)

    X = orthonormalize_svd(X0)
    C1, _, _, theta = rayleigh_ritz_3block(X, None, None, Aw)
    X = right_multiply(X, C1)
    P = None
    converged = False
    best = (math.inf, X, theta, None)
    res = np.full(cfg.ell, math.inf)
    it = 0
    residual_history, ritz_history, rank_history = [], [], []

    for it in range(1, cfg.max_iter + 1):
        # one QR per side serves the residual norms and the R cut
        Rraw = fold_bases(residual_block(Aw, X, theta))
        res = column_norms(Rraw)
        residual_history.append([float(r) for r in res])
        ritz_history.append([float(t - cfg.shift) for t in theta])
        worst = float(np.max(res[: cfg.k]))
        if worst < best[0]:
            best = (worst, X, theta.copy(), res.copy())
        if worst <= cfg.conv_tol:
            converged = True
            rank_history.append(_ranks(X, None, P))
            break

        R = truncate(Rraw, cfg.trunc_eps, cfg.r_max)
        R = orthonormalize_svd(precond.apply_block(R))
        if R.ell == 0:
            break
        if P is not None:
            P = orthonormalize_svd(P)
        C1, C2, C3, theta = rayleigh_ritz_3block(X, R, P, Aw)
        Pnew = right_multiply(R, C2)
        if P is not None:
            Pnew = add(Pnew, right_multiply(P, C3))
        Pnew = truncate(Pnew, cfg.trunc_eps, cfg.r_max)
        Xnew = add(right_multiply(X, C1), Pnew)
        pre_rank = max(Xnew.r_hat, Xnew.r_til)
        # a fixed relative cut re-injects ~eps*||A|| into the residual every
        # update; tighten it with the residual so it never dominates
        Xnew = truncate(Xnew, min(cfg.trunc_eps, worst / anorm), cfg.r_max)
        rank_history.append(_ranks(Xnew, R, Pnew, pre=pre_rank))
        X = Xnew
        P = Pnew

    if not converged:
        # the final update was never residual-tested; evaluate it so the
        # returned triple (X, theta, res) is consistent, then keep the best
        res = column_norms(residual_block(Aw, X, theta))
        if float(np.max(res[: cfg.k])) < best[0]:
            best = (float(np.max(res[: cfg.k])), X, theta.copy(), res.copy())
        _, X, theta, res = best
    keep = np.eye(cfg.ell)[:, : cfg.k]
    diagnostics = {
        "converged": converged,
        "iterations": it,
        "threshold": cfg.conv_tol,
        "residual_history": residual_history,
        "ritz_history": ritz_history,
        "rank_history": rank_history,
    }
    return EigenResult(
        np.asarray(theta[: cfg.k]) - cfg.shift,
        right_multiply(X, keep),
        res[: cfg.k],
        res[: cfg.k] <= cfg.conv_tol,
        diagnostics,
    )


def _ranks(X, R, P, pre=None):
    return {
        "x_pre": int(pre if pre is not None else max(X.r_hat, X.r_til)),
        "x": int(max(X.r_hat, X.r_til)),
        "r": int(max(R.r_hat, R.r_til)) if R is not None else 0,
        "p": int(max(P.r_hat, P.r_til)) if P is not None else 0,
    }
