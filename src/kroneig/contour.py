"""Rational-filter eigensolver for Kronecker-sum operators.

The filter is a quadrature discretization of the resolvent contour
integral: for nodes z_i and weights w_i on a circle, rho(lam) =
(1 / 2 pi i) sum_i w_i / (z_i - lam) approximates the indicator function
of the circle's interior, so rho(A) Omega approximately spans the
invariant subspace belonging to the enclosed eigenvalues. Each node and
sketch column make one cell, a shifted linear solve whose right-hand side
is the Khatri-Rao column; it matricizes to a three-term Sylvester
equation. The node equations of a run are one family in the shift with
the same right-hand sides, and their solutions lie close to one small
tensor basis U (x) V. That family, ``sylvester.TensorGalerkin``, owns the
node solve: built from the operator, the sketch and the node tolerance,
it derives the split, the eig2 two-term solver, the basis cut and whether
the data are real. Every node runs the same loop on its basis: the cells
are solved by Galerkin projection and their true residuals checked in
full space, and a cell that misses the node tolerance grows the basis by
the eig2 two-term solves of its right-hand side and of its solution's
coupling image. The basis starts empty, so the first node's first round is
the seed round. The filter is accumulated exactly on the shared basis,
one core per sketch column (for real data the basis is real, so a
conjugate node pair folds into one real contribution), truncated once at
assembly, and the Ritz pairs come from the Rayleigh-Ritz step shared with
LOBPCG (``blr.orthonormalize_svd``, ``blr.rayleigh_ritz_3block``,
``blr.residual_block``). The node equations keep the operator's own typed
factors, so no n x n coefficient is formed per cell.

Desk-scale evaluators quantify the subspace quality independently of the
solver: structural_bound evaluates the angle bound driven by the filter
values and the sketched-basis pseudoinverse, tan_angle_B measures the
actual angle in a B-weighted geometry.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .blr import (
    BlockLowRank,
    EigenResult,
    column_norms,
    orthonormalize_svd,
    rayleigh_ritz_3block,
    residual_block,
    right_multiply,
    truncate,
)
from .dense import cholesky, two_norm
from .errors import (
    DegenerateSubspace,
    DimensionMismatch,
    OutOfRange,
    PoleHit,
    RankDeficient,
    SizeOverflow,
)
from .sylvester import TensorGalerkin

__all__ = [
    "RationalFilter",
    "NodeSolverConfig",
    "RecompressConfig",
    "trapezoid_circle",
    "filter_eval",
    "contour_eigensolve",
    "structural_bound",
    "tan_angle_B",
]

# desk-scale ceiling for the dense bound/angle evaluators
_DESK_MAX = 2500


@dataclass(frozen=True)
class RationalFilter:
    """Quadrature nodes and weights of a rational filter on a circle.

    The filter value at lam is (1 / 2 pi i) sum_i weights[i] /
    (nodes[i] - lam); center and radius describe the contour so membership
    tests do not have to reconstruct it from the nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray
    center: float
    radius: float

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise DimensionMismatch("RationalFilter: nodes/weights must be equal-length 1-d")
        if self.nodes.size < 1:
            raise OutOfRange("RationalFilter: needs at least one node")

    @property
    def q(self):
        return self.nodes.size


def trapezoid_circle(center, radius, q):
    """Midpoint-offset trapezoidal rule on a circle.

    Node angles 2 pi (j + 1/2) / q keep every node off the real axis for
    even q (real-axis nodes sit near real spectra and make the shifted
    solves nearly singular); the weights make (1 / 2 pi i) sum w_j f(z_j)
    the trapezoidal approximation of the contour integral of f. Nodes come
    in conjugate pairs, so the filter is real on the real axis.
    """
    if q < 2:
        raise OutOfRange("trapezoid_circle: q must be >= 2")
    if radius <= 0:
        raise OutOfRange("trapezoid_circle: radius must be > 0")
    theta = 2.0 * np.pi * (np.arange(q) + 0.5) / q
    ring = np.exp(1j * theta)
    nodes = center + radius * ring
    weights = 2.0j * np.pi * radius * ring / q
    return RationalFilter(nodes, weights, float(center), float(radius))


def filter_eval(filt, lam):
    """Filter value rho(lam); lam may be a scalar or an array.

    Raises PoleHit when lam coincides with a quadrature node.
    """
    lam_arr = np.asarray(lam)
    denom = filt.nodes.reshape((-1,) + (1,) * lam_arr.ndim) - lam_arr[None]
    if np.any(denom == 0):
        raise PoleHit("filter_eval: lam coincides with a quadrature node")
    vals = np.sum(filt.weights.reshape(denom.shape[:1] + (1,) * lam_arr.ndim) / denom, axis=0)
    vals = vals / (2.0j * np.pi)
    if lam_arr.ndim == 0:
        return complex(vals)
    return vals


@dataclass(frozen=True)
class NodeSolverConfig:
    """Settings for the node solves: the node tolerance, which also sets
    the node family's basis cut and two-term tolerance
    (``sylvester.TensorGalerkin``). ``seed`` feeds nothing: the node solves
    draw no random numbers of their own (eig2's one test matrix has a
    fixed key), and the field stays only because the benchmark's workload
    definitions pass it."""

    tol: float = 1e-10
    seed: int = 0


@dataclass(frozen=True)
class RecompressConfig:
    """Assembly truncation of the filtered block: relative eps, hard rank
    cap. eps cuts all three modes: the two bases and the columns."""

    eps: float = 1e-10
    r_max: int = 90


def contour_eigensolve(A, filt, sk, solver_cfg=None, recompress=None, threads=1):
    """Filtered-subspace eigensolver: solve, accumulate, assemble, project.

    Every quadrature node i and sketch column j make one cell, the shifted
    system (z_i - A) x = sketch column j in factored form. One node family
    (``sylvester.TensorGalerkin``), built from A, the sketch and the node
    tolerance, holds the shared tensor basis and the node-solve policy; for
    real data (its ``real``) only the upper half-plane nodes are solved and
    each contributes the folded real part of its conjugate pair. The nodes
    are solved in order, each by ``TensorGalerkin.enrich``: its cells are
    Galerkin cells with a true full-space residual, and a cell that misses
    the node tolerance grows the basis by eig2 two-term solves, round by
    round, in column order. The basis starts empty, so at the first node
    every cell misses and the first round seeds it. A cell still above the
    tolerance is accumulated with its Galerkin solution, reported
    unconverged with its true residual, and its column flagged degraded. A
    two-term solve that fails is recorded under ``failures`` and adds
    nothing; ``diagnostics["basis"]["two_term_paths"]`` counts the two-term
    solves by the path that answered them, fADI or dense. The filter is
    accumulated exactly on the shared basis, one core per column (the
    family's ``sigma``), truncated once at assembly, orthonormalized from
    its cores with the column mode cut at the same eps
    (``orthonormalize_svd``), and the projected standard eigenproblem
    (``rayleigh_ritz_3block``) yields the Ritz pairs.
    """
    cfg = solver_cfg if solver_cfg is not None else NodeSolverConfig()
    rec = recompress if recompress is not None else RecompressConfig()
    if sk.n_hat != A.n_hat or sk.n_til != A.n_til:
        raise DimensionMismatch(
            f"contour_eigensolve: sketch grid ({sk.n_hat}, {sk.n_til}) "
            f"vs operator ({A.n_hat}, {A.n_til})"
        )
    ell = sk.ell
    family = TensorGalerkin(A, sk.scale * sk.hat, sk.tilde, cfg.tol)
    real = family.real
    im_floor = 1e-14 * filt.radius
    if real:
        node_ids = [i for i in range(filt.q) if filt.nodes[i].imag > -im_floor]
    else:
        node_ids = list(range(filt.q))

    def weight(i):
        """Filter weight of node i; doubled where real data folds in its conjugate."""
        c = complex(filt.weights[i] / (2.0j * np.pi))
        return 2.0 * c if real and filt.nodes[i].imag > im_floor else c

    def pmap(fn, items):
        """fn over items, in order."""
        if threads > 1 and len(items) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(fn, items))
        return list(map(fn, items))

    reports, basis_ranks, rounds = [], [], 0
    for i in node_ids:
        cells = [(complex(filt.nodes[i]), j, weight(i)) for j in range(ell)]
        results, grown = family.enrich(cells, pmap)
        if grown:
            rounds += grown
            basis_ranks.append((i, *family.ranks))
        for j, (residual, steps, enriched, error) in enumerate(results):
            reports.append({"node": i, "column": j, "rounds": enriched, "iterations": steps,
                            "residual": residual, "converged": residual <= cfg.tol})
            if error is not None:
                reports[-1]["error"] = error

    diagnostics = {
        "node_reports": reports,
        "failures": sorted((r["node"], r["column"]) for r in reports if "error" in r),
        "degraded_columns": sorted({r["column"] for r in reports if not r["converged"]}),
        "nodes_solved": node_ids,
        "conjugate_economy": real,
        "grid_size": len(node_ids) * ell,
        "basis": {"cut": family.cut, "ranks": basis_ranks, "enrichment_rounds": rounds,
                  "two_term_paths": dict(family.eig2.paths)},
    }

    if min(family.ranks) == 0:
        empty = BlockLowRank.empty(A.n_hat, A.n_til, 0, dtype=family.sigma.dtype)
        diagnostics["subspace_dim"] = 0
        return EigenResult(np.zeros(0), empty, np.zeros(0), np.zeros(0, dtype=bool), diagnostics)

    W = BlockLowRank(family.U, np.conj(family.V), family.sigma)
    diagnostics["assembled_rank_pre"] = (W.r_hat, W.r_til)
    W = truncate(W, rec.eps, rec.r_max)
    diagnostics["assembled_rank_post"] = (W.r_hat, W.r_til)

    W = orthonormalize_svd(W, rec.eps)
    diagnostics["subspace_dim"] = W.ell
    if W.ell == 0:
        return EigenResult(np.zeros(0), W, np.zeros(0), np.zeros(0, dtype=bool), diagnostics)

    C, _, _, theta = rayleigh_ritz_3block(W, None, None, A)
    Wr = right_multiply(W, C)
    res = column_norms(residual_block(A, Wr, theta))
    inside = np.abs(theta - filt.center) < filt.radius * (1.0 + 1e-8)
    diagnostics["inside_count"] = int(np.count_nonzero(inside))
    return EigenResult(theta, Wr, res, inside, diagnostics)


# ---------------------------------------------------------------------------
# desk-scale subspace-quality evaluators


def structural_bound(Bmat, U, Uperp, lam_inside, lam_perp, filt, Omega, j):
    """Angle bound for the j-th filtered direction, sharp and split form.

    U and Uperp are the wanted/unwanted blocks of a jointly orthonormal
    eigenbasis scaled by the square root of the weight matrix (so the
    weight enters only through the inputs; Bmat is accepted for signature
    symmetry with tan_angle_B and dimension checks). lam_inside/lam_perp
    are the matching eigenvalues. Returns (sharp, split):

      sharp = || rho(lam_perp) * (Uperp^H Omega) (U^H Omega)^+ e_j ||_2
                / |rho(lam_inside[j])|
      split = max|rho(lam_perp)| / |rho(lam_inside[j])|
                * ||Omega||_2 * ||(Omega^H U)^+||_2

    split >= sharp always. Raises RankDeficient when U^H Omega loses full
    row rank (then the pseudoinverse no longer selects e_j exactly).
    """
    U = np.asarray(U)
    Uperp = np.asarray(Uperp)
    Omega = np.asarray(Omega)
    n, k = U.shape
    if n > _DESK_MAX:
        raise SizeOverflow(f"structural_bound: n={n} exceeds desk scale {_DESK_MAX}")
    if Uperp.shape[0] != n or Omega.shape[0] != n:
        raise DimensionMismatch("structural_bound: row counts differ")
    if len(lam_inside) != k or len(lam_perp) != Uperp.shape[1]:
        raise DimensionMismatch("structural_bound: eigenvalue counts do not match blocks")
    if Bmat is not None and not (isinstance(Bmat, str) and Bmat == "identity"):
        if np.asarray(Bmat).shape != (n, n):
            raise DimensionMismatch("structural_bound: Bmat must be n x n")
    if not 0 <= j < k:
        raise OutOfRange(f"structural_bound: j={j} outside 0..{k - 1}")
    ell = Omega.shape[1]
    if ell < k:
        raise RankDeficient(f"structural_bound: ell={ell} < k={k}")
    UtO = U.conj().T @ Omega
    s = np.linalg.svd(UtO, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= max(UtO.shape) * np.finfo(float).eps * s[0]:
        raise RankDeficient("structural_bound: U^H Omega is numerically row rank deficient")
    rho_j = abs(filter_eval(filt, float(lam_inside[j])))
    if rho_j == 0.0:
        return math.inf, math.inf
    rho_perp = filter_eval(filt, np.asarray(lam_perp, dtype=float))
    coef = np.linalg.pinv(UtO)[:, j]
    sharp = float(np.linalg.norm(rho_perp * ((Uperp.conj().T @ Omega) @ coef)) / rho_j)
    split = float(np.max(np.abs(rho_perp)) / rho_j * two_norm(Omega) / s[-1])
    return sharp, split


def tan_angle_B(u, Z, Bmat=None):
    """Tangent of the principal angle between u and span(Z), B-weighted.

    The weighted geometry is realized through the Cholesky factor of Bmat
    (identity when Bmat is None or the "identity" tag): angles of L^H x in
    the Euclidean sense equal B-angles of x. Returns +inf when u is
    B-orthogonal to the subspace; raises DegenerateSubspace when Z is
    numerically rank deficient.
    """
    u = np.asarray(u).reshape(-1)
    Z = np.asarray(Z)
    if Z.ndim != 2 or Z.shape[0] != u.size:
        raise DimensionMismatch(f"tan_angle_B: u has {u.size} rows, Z has shape {Z.shape}")
    if np.linalg.norm(u) == 0.0:
        raise OutOfRange("tan_angle_B: u must be nonzero")
    if Bmat is None or (isinstance(Bmat, str) and Bmat == "identity"):
        ut, Zt = u, Z
    else:
        L = cholesky(np.asarray(Bmat))
        ut = L.conj().T @ u
        Zt = L.conj().T @ Z
    Q, Rz = np.linalg.qr(Zt, mode="reduced")
    d = np.abs(np.diag(Rz))
    if d.size == 0 or d.max() == 0.0 or d.min() <= max(Zt.shape) * np.finfo(float).eps * d.max():
        raise DegenerateSubspace("tan_angle_B: Z is numerically rank deficient")
    coef = Q.conj().T @ ut
    proj = float(np.linalg.norm(coef))
    perp = float(np.linalg.norm(ut - Q @ coef))
    if proj == 0.0:
        return math.inf
    return perp / proj
