"""Contour cell check off the benchmark: time, basis ranks, cell residuals.

    python3 tools/cells.py --potential mathieu --n 300 --q 32 --ell 8
        --tol 1e-10 --seeds 0 1 2 3
        (--center C --radius R | --eig-window LO HI [--radius-scale S ...])
        [--recompress-eps E] [--recompress-rmax R] [--tree DIR] [--out FILE]

Runs kroneig's contour solver once per input and reports what its node
cells reached. An input is one sketch seed and one circle. With
--center/--radius every seed uses that circle. With --eig-window LO HI
the circle comes from the operator's eigenvalues LO..HI (0-based,
ascending), computed by scipy's eigsh in shift-invert mode at
the lower Gershgorin bound of the assembled sparse operator, from a fixed
start vector: it is centered at their midpoint with radius S (lam_HI -
lam_LO) / 2 for each --radius-scale S, so S slightly above 1 puts the
window's ends just inside. --tree names the source tree whose src/ is
imported (default: this checkout), so a base revision exported elsewhere
runs the same check. BLAS is pinned to one thread.

Prints one JSON object (and writes it to --out when given) with, per
input: its seed, center and radius, the solve time in seconds, the peak
resident memory of the process so far (VmHWM, MiB; run one input per call
to attribute it), the shared basis ranks, the two-term solves by the path
that answered them (fADI or dense; null for a tree that does not count
them), the number of node cells reported above the node tolerance and the
worst reported cell residual, and the Ritz values inside the circle with
their worst residual.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb():
    """VmHWM of this process in MiB (ru_maxrss where /proc is absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def eigenvalue_window(A, lo, hi):
    """Eigenvalues lo..hi (0-based, ascending) of A by shift-invert eigsh."""
    import numpy as np
    import scipy.sparse
    import scipy.sparse.linalg

    from kroneig.problems import assemble_sparse

    M = assemble_sparse(A)
    off = abs(M - scipy.sparse.diags(M.diagonal())).sum(axis=1)
    sigma = float(np.min(M.diagonal() - np.asarray(off).ravel())) - 1.0
    v0 = np.ones(M.shape[0])
    lam = scipy.sparse.linalg.eigsh(M, k=hi + 1, sigma=sigma, v0=v0,
                                    return_eigenvectors=False)
    return np.sort(lam)[lo : hi + 1]


def check(A, center, radius, seed, args):
    """Solve one input; returns its report row."""
    import numpy as np

    from kroneig.contour import (
        NodeSolverConfig,
        RecompressConfig,
        contour_eigensolve,
        trapezoid_circle,
    )
    from kroneig.sketch import draw_khatri_rao

    sk = draw_khatri_rao(A.n_til, A.n_hat, args.ell, seed=seed)
    t0 = time.perf_counter()
    res = contour_eigensolve(
        A, trapezoid_circle(center, radius, args.q), sk,
        NodeSolverConfig(tol=args.tol),
        RecompressConfig(eps=args.recompress_eps, r_max=args.recompress_rmax),
    )
    elapsed = time.perf_counter() - t0
    d = res.diagnostics
    residuals = [r["residual"] for r in d["node_reports"]]
    inside = np.asarray(res.inside_flags)
    return {
        "seed": seed,
        "center": center,
        "radius": radius,
        "time_s": elapsed,
        "peak_rss_mb": peak_rss_mb(),
        "basis": [int(r) for r in d.get("assembled_rank_pre", (0, 0))],
        "two_term_paths": d["basis"].get("two_term_paths"),
        "cells": len(residuals),
        "cells_above_tol": int(sum(r > args.tol for r in residuals)),
        "worst_cell_residual": float(max(residuals, default=0.0)),
        "inside": sorted(float(v) for v in np.asarray(res.ritz_values)[inside]),
        "worst_inside_residual": float(np.max(np.asarray(res.residual_norms)[inside], initial=0.0)),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--potential", default="sum-of-squares")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--recompress-eps", type=float, default=1e-10)
    p.add_argument("--recompress-rmax", type=int, default=90)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--center", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--eig-window", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--radius-scale", type=float, nargs="+", default=[1.02])
    p.add_argument("--tree", default=ROOT, help="source tree to import src/ from")
    p.add_argument("--out")
    args = p.parse_args(argv)
    if (args.eig_window is None) == (args.center is None or args.radius is None):
        p.error("give either --center and --radius or --eig-window")
    if args.eig_window is not None and not 0 <= args.eig_window[0] < args.eig_window[1]:
        p.error("--eig-window needs 0 <= LO < HI")
    # before numpy loads, as the benchmark pins its workers
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "src"))
    from kroneig.problems import make_spec, schrodinger_kron

    A = schrodinger_kron(make_spec(args.potential, args.n))
    if args.eig_window is None:
        circles = [(args.center, args.radius)]
    else:
        lam = eigenvalue_window(A, *args.eig_window)
        mid, half = 0.5 * (lam[0] + lam[-1]), 0.5 * (lam[-1] - lam[0])
        circles = [(float(mid), float(s * half)) for s in args.radius_scale]
    inputs = [check(A, c, r, seed, args) for seed in args.seeds for c, r in circles]
    report = {
        "potential": args.potential,
        "n": args.n,
        "q": args.q,
        "ell": args.ell,
        "tol": args.tol,
        "recompress": [args.recompress_eps, args.recompress_rmax],
        "inputs": inputs,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
