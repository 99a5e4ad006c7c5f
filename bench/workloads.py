"""The benchmark's workloads: parameters, set-up and the solver call.

Every workload uses the sum-of-squares potential V(x, y) = (x^2 + y^2 - xy)/2
on the interior grid of [-1, 1]^2. The seed given to the benchmark drives
every random input: the Khatri-Rao starting sketch and the solvers' own
seeds (round_seed gives the seed of each solver call in a run). The check
parameters (residual targets, eigenvalue tolerances) live here too, so
that the worker and the checks read one table. min_rounds is the number
of solver calls a run makes at least.
"""

WORKLOADS = {
    # ROADMAP W1 shrunk to n=100: 120 node solves at tol 1e-10 whose
    # solution ranks reach about 60, so pair_truncate and the dense-SVD
    # branch of the eig2 preconditioner dominate.
    "contour-tight": {
        "solver": "contour",
        # a 20 s solve: two calls per run average over two inputs
        "min_rounds": 2,
        "n": 100,
        "ell": 6,
        "q": 40,
        "center": 12.606,
        "radius": 9.0,
        "tol": 1e-10,
        "recompress_eps": 1e-10,
        "recompress_rmax": 90,
        "inside": 4,
        # absolute residual target for the inside pairs
        "residual_target": 1e-6,
        "residual_relative": False,
        "eig_tol": 1e-8,
    },
    # ROADMAP W2 / criterion 07 at n=700 instead of 1000, so that a run
    # fits the benchmark's time budget while n stays above the 600 where
    # the eig2 preconditioner switches to its randomized range finder: 48
    # node solves of one BiCGstab iteration each, QR of n-row factor stacks
    # and the dense n x n node_problem rebuild.
    "contour-wide": {
        "solver": "contour",
        "min_rounds": 1,
        "n": 700,
        "ell": 6,
        "q": 16,
        "center": 12.606,
        "radius": 9.0,
        "tol": 1e-5,
        "recompress_eps": 1e-6,
        "recompress_rmax": 90,
        "inside": 4,
        # residual target relative to ||A||_inf (about 9.8e5 here): the node
        # tolerance, which bounds what the node solves guarantee. Over seeds
        # 0-10 the inside residuals ranged from 1.2e-3 to 0.32 and the
        # eigenvalue errors from 1e-8 to 9.2e-4 (seed 7).
        "residual_target": 1e-5,
        "residual_relative": True,
        "eig_tol": 1e-2,
        # criterion 07: stored entries below 1% of the dense block
        "storage_max": 0.01,
    },
    # ROADMAP W3 / criterion 09: rank-adaptive LOBPCG; blr.truncate and
    # the ADI block preconditioner dominate, sylvester is never called.
    "lobpcg-rank": {
        "solver": "lobpcg",
        "min_rounds": 1,
        "n": 300,
        "ell": 6,
        "k": 4,
        "trunc_eps": 1e-7,
        "r_max": 50,
        "conv_tol": 1e-6,
        "max_iter": 100,
        "adi_iterations": 8,
        "residual_target": 1e-6,
        "residual_relative": False,
        "eig_tol": 1e-8,
    },
}


def round_seed(seed, i):
    """Seed of a run's round i: round 0 uses the run's seed itself.

    Later rounds solve other inputs, so a run that fits several solver
    calls averages over inputs as well as over timing noise.
    """
    return seed + 100_003 * i


def setup(name, seed):
    """Build the operator and the starting sketch; return the solver call.

    The returned function takes no arguments and runs the workload's
    solver once with the library's threads=1, returning its EigenResult.
    """
    from kroneig import blr
    from kroneig.problems import make_spec, schrodinger_kron
    from kroneig.sketch import draw_khatri_rao

    w = WORKLOADS[name]
    n = w["n"]
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    sk = draw_khatri_rao(n, n, w["ell"], seed=seed)
    if w["solver"] == "contour":
        from kroneig.contour import (
            NodeSolverConfig,
            RecompressConfig,
            contour_eigensolve,
            trapezoid_circle,
        )

        filt = trapezoid_circle(w["center"], w["radius"], w["q"])
        node_cfg = NodeSolverConfig(tol=w["tol"], seed=seed)
        rec = RecompressConfig(eps=w["recompress_eps"], r_max=w["recompress_rmax"])
        return lambda: contour_eigensolve(A, filt, sk, node_cfg, rec, threads=1)

    from kroneig.lobpcg import LobpcgConfig, lobpcg_lowrank

    cfg = LobpcgConfig(
        k=w["k"],
        ell=w["ell"],
        trunc_eps=w["trunc_eps"],
        r_max=w["r_max"],
        max_iter=w["max_iter"],
        conv_tol=w["conv_tol"],
        adi_iterations=w["adi_iterations"],
        seed=seed,
    )
    X0 = blr.from_khatri_rao(sk)
    return lambda: lobpcg_lowrank(A, cfg, X0)
