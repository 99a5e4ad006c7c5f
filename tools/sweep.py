"""Fixed-input failure sweep: which inputs and eigenpairs fail the checks.

    python3 tools/sweep.py --workload contour-tight --seeds 11 12 ... 20
        --rounds 48 [--tree DIR] [--out FILE]

Solves every input (seed, round) for the given seeds and rounds 0 ..
rounds-1, the input the benchmark's run of that seed solves in that round
(bench/workloads.round_seed), and checks each result with
bench/checks.evaluate against the workload's reference eigenvalues, as
bench/run.py does. Unlike a timed benchmark run, which reaches as many
rounds as fit its time budget, the sweep covers the same inputs in every
tree, so it tells a changed result from a change in which inputs a run
reached. --tree names the source tree whose src/ and bench/ are imported
(default: this checkout), so a base revision exported elsewhere runs
through the same sweep. BLAS is pinned to one thread, as in the benchmark.

Prints one JSON object (and writes it to --out when given): the input
count, the failed eigenpairs and failed node solves summed over inputs,
and per failing input its seed, round, failed eigenpairs with their
reasons, failed node solves and run-level errors. A LOBPCG workload adds
every input's iteration count ("lobpcg_iterations": input, seed, round,
iterations) and their sum ("lobpcg_iterations_total"), so two trees'
iteration counts compare on the same inputs.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sweep(workload, seeds, rounds):
    """Check every (seed, round) input; returns the report dict."""
    import numpy as np

    from checks import evaluate
    from reference import eigenvalues, schrodinger_matrix
    from worker import _diagnostics
    from workloads import WORKLOADS, round_seed, setup

    w = WORKLOADS[workload]
    A = schrodinger_matrix(w["n"])
    ref = eigenvalues(workload, A)
    failing, iterations = [], []
    failed_pairs = failed_nodes = 0
    for seed in seeds:
        for i in range(rounds):
            key = round_seed(seed, i)
            res = setup(workload, key)()
            W = res.ritz_vectors
            block = {
                "U": W.U, "V": W.V, "sigma": W.sigma,
                "ritz_values": np.asarray(res.ritz_values),
                "residual_norms": np.asarray(res.residual_norms),
                "inside_flags": np.asarray(res.inside_flags),
            }
            diag = _diagnostics(res)
            report = evaluate(w, A, ref, block, diag)
            nodes = diag.get("node_failures", 0)
            if w["solver"] == "lobpcg":
                iterations.append({
                    "input": key, "seed": seed, "round": i,
                    "iterations": int(res.diagnostics["iterations"]),
                })
            failed_pairs += len(report["failed"])
            failed_nodes += nodes
            if report["failed"] or report["errors"] or nodes:
                failing.append({
                    "input": key, "seed": seed, "round": i,
                    "failed": report["failed"],
                    "node_failures": nodes,
                    "errors": report["errors"],
                })
    out = {
        "workload": workload,
        "seeds": list(seeds),
        "rounds": rounds,
        "inputs": len(seeds) * rounds,
        "failed_pairs": failed_pairs,
        "failed_node_solves": failed_nodes,
        "failing_inputs": failing,
    }
    if w["solver"] == "lobpcg":
        out["lobpcg_iterations"] = iterations
        out["lobpcg_iterations_total"] = sum(r["iterations"] for r in iterations)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--rounds", type=int, default=1, help="rounds 0 .. ROUNDS-1 of every seed")
    p.add_argument("--tree", default=ROOT, help="source tree to import src/ and bench/ from")
    p.add_argument("--out")
    args = p.parse_args(argv)
    # before numpy loads, as bench/run.py pins its workers
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    report = sweep(args.workload, args.seeds, args.rounds)
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
