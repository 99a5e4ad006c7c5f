"""Correctness checks of one solver result against the sparse reference.

evaluate() returns the wanted eigenpairs that failed and the run-level
errors. An eigenpair fails when it misses any of its checks; a run-level
error (wrong inside count, a reference that does not fit the workload,
storage or rank over its limit, no convergence) makes the run incorrect.

Per wanted eigenpair (theta, unit Ritz vector u, reference eigenvalue lam):
  * the residual r = ||A u - theta u|| is recomputed with the sparse matrix;
  * the reported residual agrees with r to RESIDUAL_AGREEMENT (relative)
    plus the rounding floor ROUNDOFF * ||A||_inf, so reported residuals
    are true residuals;
  * r meets the workload's target (absolute, or relative to ||A||_inf);
  * |theta - lam| <= r, the residual bound for symmetric matrices, and
    |theta - lam| <= the workload's eigenvalue tolerance.
"""

import numpy as np

from reference import residuals, ritz_vectors

RESIDUAL_AGREEMENT = 0.01
ROUNDOFF = 100 * np.finfo(float).eps
# rounding slack of the eigenvalue comparisons, relative to |lam|
EIG_SLACK = 1e-12


def _pair_reasons(w, theta, lam, r_rep, r_rec, anorm, pairs):
    pairs.append({"lambda": float(lam), "theta": float(theta),
                  "residual_reported": float(r_rep), "residual": float(r_rec)})
    reasons = []
    if not abs(r_rep - r_rec) <= RESIDUAL_AGREEMENT * r_rec + ROUNDOFF * anorm:
        reasons.append(f"reported residual {r_rep:.3e} vs recomputed {r_rec:.3e}")
    target = w["residual_target"] * (anorm if w["residual_relative"] else 1.0)
    if not r_rec <= target:
        reasons.append(f"residual {r_rec:.3e} above target {target:.3e}")
    err = abs(theta - lam)
    slack = EIG_SLACK * max(1.0, abs(lam))
    if not err <= r_rec + slack:
        reasons.append(f"|theta - lam| = {err:.3e} exceeds its residual bound {r_rec:.3e}")
    if not err <= w["eig_tol"]:
        reasons.append(f"|theta - lam| = {err:.3e} above tolerance {w['eig_tol']:.0e}")
    return reasons


def evaluate(w, A, ref, block, diag):
    """Check one result; returns a report dict.

    w: the workload's parameter table; A: the sparse reference matrix;
    ref: ascending reference eigenvalues; block: arrays U, V, sigma,
    ritz_values, residual_norms, inside_flags; diag: the worker's
    diagnostics. The report holds "wanted" (the number of wanted
    eigenpairs), "failed" (a wanted reference eigenvalue's label -> its
    reasons), "errors" (run-level) and "pairs" (the compared values).
    """
    theta = np.asarray(block["ritz_values"])
    res_rep = np.asarray(block["residual_norms"])
    X = ritz_vectors(block["U"], block["V"], block["sigma"])
    res_rec = residuals(A, X, theta)
    anorm = float(abs(A).sum(axis=1).max())
    errors = []
    failed = {}
    pairs = []

    if w["solver"] == "contour":
        dist = np.abs(ref - w["center"])
        if dist.max() < w["radius"]:
            errors.append("reference does not reach past the circle")
        wanted = ref[dist < w["radius"]]
        if len(wanted) != w["inside"]:
            errors.append(f"reference has {len(wanted)} eigenvalues inside, expected {w['inside']}")
        flagged = np.flatnonzero(np.asarray(block["inside_flags"]))
        if len(flagged) != w["inside"]:
            errors.append(f"{len(flagged)} Ritz values flagged inside, expected {w['inside']}")
        used = set()
        for lam in wanted:
            label = f"lambda={lam:.10g}"
            if len(flagged) == 0:
                failed[label] = ["no inside Ritz value"]
                continue
            j = int(flagged[np.argmin(np.abs(theta[flagged] - lam))])
            if j in used:
                failed[label] = ["no inside Ritz value of its own"]
                continue
            used.add(j)
            reasons = _pair_reasons(w, theta[j], lam, res_rep[j], res_rec[j], anorm, pairs)
            if reasons:
                failed[label] = reasons
        storage = (block["U"].size + block["V"].size + block["sigma"].size) / (
            A.shape[0] * max(len(theta), 1)
        )
        if "storage_max" in w and not storage < w["storage_max"]:
            errors.append(f"storage {storage:.4f} of the dense block, limit {w['storage_max']}")
    else:
        k = w["k"]
        wanted = ref[:k]
        if len(theta) != k:
            errors.append(f"{len(theta)} Ritz values returned, expected {k}")
        for i, lam in enumerate(wanted):
            label = f"lambda={lam:.10g}"
            if i >= len(theta):
                failed[label] = ["missing"]
                continue
            reasons = _pair_reasons(w, theta[i], lam, res_rep[i], res_rec[i], anorm, pairs)
            if reasons:
                failed[label] = reasons
        if not diag["converged"] or diag["iterations"] > w["max_iter"]:
            errors.append(f"not converged after {diag['iterations']} iterations")
        rank = max(block["U"].shape[1], block["V"].shape[1])
        if rank > w["r_max"]:
            errors.append(f"final X rank {rank} above the cap {w['r_max']}")
    return {"wanted": len(wanted), "failed": failed, "errors": errors, "pairs": pairs}
