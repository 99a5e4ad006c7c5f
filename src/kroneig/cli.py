"""Batch experiment harness: four subcommands emitting figure-ready CSV/JSON.

Subcommands: ose-stats | contour | lobpcg | sylvester-bench; the last
times the contour's node solver, its Galerkin family on one shared tensor
basis, at a few sampled nodes. Parameters
resolve in three layers: built-in defaults, then a plain key=value config
file ('#' starts a comment), then command-line flags. The fully resolved
config is echoed into every JSON output so a run can be reproduced from
its artifacts alone. All randomness is seeded; repeated runs are
byte-identical except for the isolated "timing" sections and timing CSV
columns.

Exit codes: 0 success, 1 solver hard failure, 2 invalid configuration.
"""

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import blr
from .contour import (
    NodeSolverConfig,
    RecompressConfig,
    _node_parts,
    contour_eigensolve,
    trapezoid_circle,
)
from .errors import ConfigError, KroneigError
from .lobpcg import LobpcgConfig, lobpcg_lowrank
from .problems import (
    POTENTIALS,
    assemble_dense,
    laplacian_1d_eigenvalues,
    make_spec,
    schrodinger_kron,
    shift_operator,
    square_operator,
)
from .sketch import SweepConfig, draw_khatri_rao, ose_trial_sweep
from .sylvester import EigenbasisPreconditioner, TensorGalerkin

SCHEMA_VERSION = 1


# Defaults follow the reference experiment settings where one exists
# (q=40, ell=6, center 12.606, radius 9, truncEps 1e-7, rMax 50, 8 ADI
# steps). Grid sizes default to a scale that runs in minutes on one core;
# the flagship scale is reached with --n.
DEFAULTS = {
    "ose-stats": {
        "n_til": 20,
        "n_hat": 20,
        "k_min": 4,
        "k_max": 20,
        "k_step": 2,
        "ell_min": 4,
        "ell_max": 40,
        "ell_step": 4,
        "trials": 1000,
        "threshold": 5.0,
        "target_prob": 0.02,
        "families": "gaussian,khatri-rao",
        "u_modes": "random,rank-one",
        "frontier": True,
        "frontier_cap_factor": 8,
        "seed": 0,
        "threads": 0,
        "out": ".",
    },
    "contour": {
        "potential": "sum-of-squares",
        "n": 300,
        "ell": 6,
        "q": 40,
        "center": 12.606,
        "radius": 9.0,
        "tol": 1e-10,
        "recompress_eps": 1e-10,
        "recompress_rmax": 90,
        "oracle": False,
        "seed": 0,
        "threads": 0,
        "out": ".",
    },
    "lobpcg": {
        "potential": "sum-of-squares",
        "n": 300,
        "k": 4,
        "ell": 6,
        "trunc_eps": 1e-7,
        "r_max": 50,
        "max_iter": 200,
        "conv_tol": 1e-7,
        "adi_iterations": 8,
        "shift": 0.0,
        "square": False,
        "reference": False,
        "reference_iter": 600,
        "seed": 0,
        "out": ".",
    },
    "sylvester-bench": {
        "potential": "sum-of-squares",
        "n_values": "300,1000",
        "tol_values": "1e-6,1e-10",
        "nodes": 4,
        "q": 40,
        "center": 12.606,
        "radius": 9.0,
        "decay_n": 300,
        "decay_tol": 1e-10,
        "decay_count": 50,
        "seed": 0,
        "out": ".",
    },
}


def _read_config_file(path):
    """Parse key=value lines; '#' comments and blank lines are skipped."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _coerce(key, text, like):
    """Coerce config-file text to the type of the default value."""
    if isinstance(like, bool):
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: expected boolean, got {text!r}")
    try:
        if isinstance(like, int):
            return int(text)
        if isinstance(like, float):
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc
    return text


def _resolve(subcommand, args):
    """Defaults <- config file <- explicit flags; rejects unknown keys."""
    resolved = dict(DEFAULTS[subcommand])
    if args.config is not None:
        for key, text in _read_config_file(args.config).items():
            if key not in resolved:
                raise ConfigError(
                    f"unknown config key {key!r} for {subcommand}; "
                    f"known: {', '.join(sorted(resolved))}"
                )
            resolved[key] = _coerce(key, text, resolved[key])
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    if "threads" in resolved:
        if resolved["threads"] < 0:
            raise ConfigError("threads must be >= 0")
        if resolved["threads"] == 0:
            resolved["threads"] = os.cpu_count() or 1
    return resolved


def _check_potential(name):
    if name not in POTENTIALS:
        raise ConfigError(f"unknown potential {name!r}; registered: {', '.join(sorted(POTENTIALS))}")


def _f17(value):
    """CSV cell: floats in repr-exact form, everything else as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_f17(cell) for cell in row])


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_payload(subcommand, cfg, timing, body):
    payload = {
        "schema": f"kroneig/{subcommand}/{SCHEMA_VERSION}",
        "config": dict(cfg),
        "timing": timing,
    }
    payload.update(body)
    return payload


def _outdir(cfg):
    path = cfg["out"]
    os.makedirs(path, exist_ok=True)
    return path


def _int_range(lo, hi, step):
    if step < 1 or hi < lo:
        raise ConfigError(f"bad range {lo}..{hi} step {step}")
    return list(range(lo, hi + 1, step))


def _csv_list(text, conv, what):
    try:
        values = [conv(part.strip()) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not values:
        raise ConfigError(f"{what}: empty list")
    return values


def cmd_ose_stats(cfg):
    families = tuple(_csv_list(cfg["families"], str, "families"))
    u_modes = tuple(_csv_list(cfg["u_modes"], str, "u_modes"))
    sweep = SweepConfig(
        n_til=cfg["n_til"],
        n_hat=cfg["n_hat"],
        k_values=tuple(_int_range(cfg["k_min"], cfg["k_max"], cfg["k_step"])),
        ell_values=tuple(_int_range(cfg["ell_min"], cfg["ell_max"], cfg["ell_step"])),
        trials=cfg["trials"],
        threshold=cfg["threshold"],
        target_prob=cfg["target_prob"],
        families=families,
        u_modes=u_modes,
        seed=cfg["seed"],
        frontier=cfg["frontier"],
        frontier_cap_factor=cfg["frontier_cap_factor"],
        threads=cfg["threads"],
    )
    t0 = time.perf_counter()
    cells, frontier = ose_trial_sweep(sweep)
    elapsed = time.perf_counter() - t0

    out = _outdir(cfg)
    cell_cols = ["family", "u_mode", "n", "k", "ell", "trials", "threshold",
                 "p_exceed", "max", "p95", "median"]
    _write_csv(
        os.path.join(out, "ose_percentiles.csv"),
        cell_cols,
        [[row[c] for c in cell_cols] for row in cells],
    )
    frontier_cols = ["family", "u_mode", "n", "k", "trials", "threshold",
                     "target_prob", "ell_frontier"]
    _write_csv(
        os.path.join(out, "ose_frontier.csv"),
        frontier_cols,
        [[row[c] for c in frontier_cols] for row in frontier],
    )
    _write_json(
        os.path.join(out, "ose_stats.json"),
        _json_payload("ose-stats", cfg, {"sweep_seconds": elapsed},
                      {"cells": len(cells), "frontier_rows": len(frontier)}),
    )
    return 0


def _build_operator(cfg):
    _check_potential(cfg["potential"])
    spec = make_spec(cfg["potential"], cfg["n"])
    return schrodinger_kron(spec), spec


def cmd_contour(cfg):
    A, spec = _build_operator(cfg)
    filt = trapezoid_circle(cfg["center"], cfg["radius"], cfg["q"])
    sk = draw_khatri_rao(A.n_til, A.n_hat, cfg["ell"], seed=cfg["seed"])
    solver = NodeSolverConfig(tol=cfg["tol"], seed=cfg["seed"])
    recompress = RecompressConfig(eps=cfg["recompress_eps"], r_max=cfg["recompress_rmax"])
    t0 = time.perf_counter()
    result = contour_eigensolve(A, filt, sk, solver_cfg=solver,
                                recompress=recompress, threads=cfg["threads"])
    elapsed = time.perf_counter() - t0
    diag = result.diagnostics

    out = _outdir(cfg)
    _write_csv(
        os.path.join(out, "contour_nodes.csv"),
        ["node", "z_re", "z_im", "column", "rounds", "iterations", "residual", "converged"],
        [
            [r["node"], filt.nodes[r["node"]].real, filt.nodes[r["node"]].imag,
             r["column"], r["rounds"], r["iterations"], r["residual"], r["converged"]]
            for r in diag["node_reports"]
        ],
    )

    body = {
        "ritz_values": [float(v) for v in result.ritz_values],
        "residual_norms": [float(v) for v in result.residual_norms],
        "inside_flags": [bool(v) for v in result.inside_flags],
        "inside_count": int(np.sum(result.inside_flags)),
        "degraded_columns": diag["degraded_columns"],
        "failure_count": len(diag["failures"]),
        "grid_size": diag["grid_size"],
        "conjugate_economy": diag["conjugate_economy"],
        "subspace_rank": int(max(result.ritz_vectors.r_hat, result.ritz_vectors.r_til)),
    }

    if cfg["oracle"]:
        if cfg["n"] > 60:
            raise ConfigError("--oracle assembles the dense operator; use n <= 60")
        dense = assemble_dense(A)
        lam = np.linalg.eigvalsh(dense)
        inside_ref = lam[np.abs(lam - cfg["center"]) < cfg["radius"]]
        ritz_in = np.sort(np.asarray(result.ritz_values)[np.asarray(result.inside_flags)])
        section = {
            "reference_inside": [float(v) for v in inside_ref],
            "count_match": int(ritz_in.size) == int(inside_ref.size),
        }
        if ritz_in.size == inside_ref.size and ritz_in.size:
            section["max_eigenvalue_error"] = float(np.max(np.abs(ritz_in - inside_ref)))
        body["oracle"] = section

    _write_json(
        os.path.join(out, "contour.json"),
        _json_payload("contour", cfg, {"solve_seconds": elapsed}, body),
    )
    if len(diag["failures"]) > diag["grid_size"] / 2:
        print("contour: more than half of the (node, column) solves failed", file=sys.stderr)
        return 1
    return 0


def cmd_lobpcg(cfg):
    A, spec = _build_operator(cfg)
    problem = A
    if cfg["square"]:
        # solve (A + shift I)^2; eigenvalues of A are recovered from the
        # Rayleigh quotients of the computed vectors under the original A
        problem = square_operator(shift_operator(A, cfg["shift"], require_structure=True))
        run_shift = 0.0
    else:
        run_shift = cfg["shift"]
    run_cfg = LobpcgConfig(
        k=cfg["k"],
        ell=cfg["ell"],
        trunc_eps=cfg["trunc_eps"],
        r_max=cfg["r_max"],
        max_iter=cfg["max_iter"],
        conv_tol=cfg["conv_tol"],
        adi_iterations=cfg["adi_iterations"],
        shift=run_shift,
        seed=cfg["seed"],
    )
    X0 = blr.from_khatri_rao(draw_khatri_rao(A.n_til, A.n_hat, cfg["ell"], seed=cfg["seed"]))
    t0 = time.perf_counter()
    result = lobpcg_lowrank(problem, run_cfg, X0)
    elapsed = time.perf_counter() - t0
    diag = result.diagnostics

    reference = None
    ref_elapsed = None
    if cfg["reference"]:
        ref_cfg = LobpcgConfig(
            k=cfg["k"],
            ell=cfg["ell"],
            trunc_eps=1e-10,
            r_max=None,
            max_iter=cfg["reference_iter"],
            conv_tol=cfg["conv_tol"],
            adi_iterations=cfg["adi_iterations"],
            shift=run_shift,
            seed=cfg["seed"],
        )
        t1 = time.perf_counter()
        reference = lobpcg_lowrank(problem, ref_cfg, X0)
        ref_elapsed = time.perf_counter() - t1

    out = _outdir(cfg)
    ell = cfg["ell"]
    header = (["iter"]
              + [f"ritz_{j + 1}" for j in range(ell)]
              + [f"resid_{j + 1}" for j in range(ell)]
              + ["rank_x_pre", "rank_x", "rank_r", "rank_p"])
    if reference is not None:
        header += [f"ref_err_{j + 1}" for j in range(cfg["k"])]
    rows = []
    ritz_hist = diag["ritz_history"]
    res_hist = diag["residual_history"]
    rank_hist = diag["rank_history"]
    for i, (theta, res) in enumerate(zip(ritz_hist, res_hist)):
        row = [i] + list(theta) + list(res)
        ranks = rank_hist[i] if i < len(rank_hist) else {"x_pre": 0, "x": 0, "r": 0, "p": 0}
        row += [ranks["x_pre"], ranks["x"], ranks["r"], ranks["p"]]
        if reference is not None:
            ref_theta = np.asarray(reference.ritz_values)
            row += [abs(theta[j] - ref_theta[j]) for j in range(cfg["k"])]
        rows.append(row)
    _write_csv(os.path.join(out, "lobpcg_iterations.csv"), header, rows)

    body = {
        "ritz_values": [float(v) for v in result.ritz_values],
        "residual_norms": [float(v) for v in result.residual_norms],
        "converged": bool(diag["converged"]),
        "iterations": int(diag["iterations"]),
        "threshold": float(diag["threshold"]),
        "peak_rank": max((r["x"] for r in rank_hist), default=0),
        "final_rank": rank_hist[-1]["x"] if rank_hist else 0,
    }
    if cfg["square"]:
        # Rayleigh quotients under the original operator locate the
        # eigenvalues that the squared spectrum folded together
        AX = blr.apply_operator(A, result.ritz_vectors)
        gram = blr.block_inner(result.ritz_vectors, AX)
        norms = np.real(np.diag(blr.block_inner(result.ritz_vectors, result.ritz_vectors)))
        body["rayleigh_original"] = [
            float(np.real(gram[j, j]) / norms[j]) for j in range(cfg["k"])
        ]
    if reference is not None:
        body["reference"] = {
            "ritz_values": [float(v) for v in reference.ritz_values],
            "residual_norms": [float(v) for v in reference.residual_norms],
            "converged": bool(reference.diagnostics["converged"]),
            "iterations": int(reference.diagnostics["iterations"]),
            "final_errors": [
                float(abs(a - b))
                for a, b in zip(result.ritz_values, reference.ritz_values)
            ],
        }
    timing = {"solve_seconds": elapsed}
    if ref_elapsed is not None:
        timing["reference_seconds"] = ref_elapsed
    _write_json(os.path.join(out, "lobpcg.json"),
                _json_payload("lobpcg", cfg, timing, body))
    return 0


def _sparse_operator(A):
    return sum(scipy.sparse.kron(til.matrix, hat.matrix) for til, hat in A.terms).tocsc()


def _leading_normalized(s, count):
    """The leading count singular values s, zero-padded, over the first."""
    s = np.pad(s[:count], (0, max(count - s.size, 0)))
    return s / s[0] if s[0] > 0 else s


def _rank_one_family(cfg, n, tol):
    """Operator of size n and the contour's node family for a rank-1
    Khatri-Rao right-hand side: basis cut 1e-3 tol, real (the named
    potentials and the sketch are), with its eig2 two-term solver."""
    A = schrodinger_kron(make_spec(cfg["potential"], n))
    K_hat, K_til, couplings = _node_parts(A)
    sk = draw_khatri_rao(A.n_til, A.n_hat, 1, seed=cfg["seed"])
    family = TensorGalerkin(K_hat, K_til, couplings, sk.scale * sk.hat, sk.tilde, 1e-3 * tol, True)
    precond = EigenbasisPreconditioner(K_hat, K_til)

    def two_term(z, j, Fs, Gs):
        rng = np.random.default_rng((cfg["seed"], j))
        return precond.solve_pair(z, Fs, Gs, 1e-3 * tol, rng)

    return A, family, two_term


def cmd_sylvester_bench(cfg):
    _check_potential(cfg["potential"])
    n_values = _csv_list(cfg["n_values"], int, "n_values")
    tol_values = _csv_list(cfg["tol_values"], float, "tol_values")
    filt = trapezoid_circle(cfg["center"], cfg["radius"], cfg["q"])
    upper = [z for z in filt.nodes if z.imag > 0]
    count = min(cfg["nodes"], len(upper))
    if count < 1:
        raise ConfigError("nodes must be >= 1")
    stride = max(1, len(upper) // count)
    sample = upper[::stride][:count]

    # as in the contour, the sampled nodes are solved in order on one
    # basis: the first seeds it, later ones reuse it and grow it
    t_all = time.perf_counter()
    rows = []
    for n in n_values:
        for tol in tol_values:
            _, family, two_term = _rank_one_family(cfg, n, tol)
            sigma = np.zeros((1, 0, 0))
            times, resids, ranks, entries = [], [], [], []
            for z in sample:
                t0 = time.perf_counter()
                results, _, sigma = family.enrich([(complex(z), 0, 1.0)], two_term, tol, sigma)
                times.append(time.perf_counter() - t0)
                resids.append(results[0][0])
                r_hat, r_til = family.ranks
                ranks.append(max(r_hat, r_til))
                entries.append(family.U.size + family.V.size + r_hat * r_til)
            rows.append([
                n, tol, len(sample),
                float(np.mean(times)), float(np.max(resids)),
                float(np.mean(ranks)), float(np.mean(entries)),
            ])

    out = _outdir(cfg)
    _write_csv(
        os.path.join(out, "sylvester_bench.csv"),
        ["n", "tol", "nodes", "mean_time_s", "worst_residual",
         "mean_basis_rank", "mean_stored_entries"],
        rows,
    )

    # decay study: one first-quadrant node, rank-one vs dense right-hand
    # side; U and V are orthonormal, so Y has the singular values of U Y V^T
    z = complex(cfg["center"]) + cfg["radius"] * np.exp(1j * math.pi / 4)
    A, family, two_term = _rank_one_family(cfg, cfg["decay_n"], cfg["decay_tol"])
    family.enrich([(z, 0, 1.0)], two_term, cfg["decay_tol"], np.zeros((1, 0, 0)))
    Y = family.solve(z, 0, cfg["decay_tol"])[0]
    kmax = cfg["decay_count"]
    sv_rank_one = _leading_normalized(np.linalg.svd(Y, compute_uv=False), kmax)

    # dense right-hand side has no factored structure: solve the shifted
    # Kronecker system by sparse direct elimination and inspect the
    # singular values of the unfolded solution
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg["seed"], 97))))
    C = rng.standard_normal((A.n_hat, A.n_til))
    C /= np.linalg.norm(C)
    Asp = _sparse_operator(A).astype(complex) - z * scipy.sparse.identity(A.n, format="csc")
    X = scipy.sparse.linalg.spsolve(Asp, C.reshape(-1, order="F"))
    sv_dense = _leading_normalized(
        np.linalg.svd(X.reshape((A.n_hat, A.n_til), order="F"), compute_uv=False), kmax)

    _write_csv(
        os.path.join(out, "sylvester_decay.csv"),
        ["index", "sv_rank_one", "sv_dense_rhs"],
        [[i + 1, sv_rank_one[i], sv_dense[i]] for i in range(kmax)],
    )
    _write_json(
        os.path.join(out, "sylvester_bench.json"),
        _json_payload(
            "sylvester-bench", cfg,
            {"total_seconds": time.perf_counter() - t_all},
            {
                "node_sample": [[z.real, z.imag] for z in sample],
                "decay_node": [z.real, z.imag],
                "decay_ratio_rank_one": float(sv_rank_one[min(29, kmax - 1)]),
                "decay_ratio_dense": float(sv_dense[min(29, kmax - 1)]),
                "bench_rows": len(rows),
            },
        ),
    )
    return 0


_SUBCOMMAND_HELP = {
    "ose-stats": "sketch pseudoinverse-norm sweep",
    "contour": "contour-integral eigensolver run",
    "lobpcg": "low-rank LOBPCG run",
    "sylvester-bench": "node solver timing and decay study",
}

_FLAG_HELP = {
    "out": "output directory (default: current)",
    "seed": "master RNG seed",
    "threads": "worker threads; 0 = all cores",
    "oracle": "desk scale only: dense eigendecomposition cross-check",
    "square": "solve (A + shift I)^2 instead of A",
    "reference": "also run the high-accuracy reference for error columns",
}


def build_parser():
    """One flag per DEFAULTS key; a boolean flag sets the opposite of its default."""
    parser = argparse.ArgumentParser(
        prog="kroneig",
        description="Kronecker-structured eigensolver experiments",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, defaults in DEFAULTS.items():
        p = subs.add_parser(name, help=_SUBCOMMAND_HELP[name])
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, default in defaults.items():
            # key a_b is flag --a-b; r_max keeps its established --rmax
            flag = "rmax" if key == "r_max" else key.replace("_", "-")
            help_text = _FLAG_HELP.get(key)
            if isinstance(default, bool):
                p.add_argument(f"--no-{flag}" if default else f"--{flag}", dest=key,
                               action="store_const", const=not default, help=help_text)
            else:
                p.add_argument(f"--{flag}", dest=key, help=help_text,
                               type=None if isinstance(default, str) else type(default))
    return parser


COMMANDS = {
    "ose-stats": cmd_ose_stats,
    "contour": cmd_contour,
    "lobpcg": cmd_lobpcg,
    "sylvester-bench": cmd_sylvester_bench,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args.subcommand, args)
        return COMMANDS[args.subcommand](cfg)
    except ConfigError as exc:
        print(f"kroneig {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except KroneigError as exc:
        print(f"kroneig {args.subcommand}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
