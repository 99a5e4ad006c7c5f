"""One workload in its own process: set up, then solve for a time budget.

    python3 bench/worker.py --workload NAME --seed N --out DIR
        [--seconds S] [--trace 0|1] [--setup-only]

The parent sets the BLAS thread variables and PYTHONPATH. The worker
stamps time.monotonic() (a clock shared by all processes) just before the
first solver call, so the parent can time set-up from the moment it
started this process. It then calls the solver the workload's min_rounds
times, and again while another call is expected to end
within --seconds of that stamp; round i solves the inputs of
workloads.round_seed(seed, i). Round i's Ritz block
goes to DIR/result-i.npz, the run's bookkeeping to DIR/summary.json and,
with --trace 1, the spans to DIR/spans.json.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _peak_rss_mb():
    """Peak resident memory of this process image in MiB (VmHWM)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _diagnostics(res):
    d = res.diagnostics
    if "node_reports" in d:
        reports = d["node_reports"]
        return {
            "node_solves": len(reports),
            "node_failures": sum(1 for r in reports if not r["converged"]),
            "node_rank_max": max((r.get("rank", 0) for r in reports), default=0),
            "subspace_rank": max(d.get("assembled_rank_post", (0, 0))),
        }
    ranks = [row["x"] for row in d.get("rank_history", [])]
    return {
        "converged": bool(d["converged"]),
        "iterations": int(d["iterations"]),
        "peak_x_rank": max(ranks, default=0),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import numpy as np

    from workloads import WORKLOADS, round_seed, setup

    solve = setup(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        with open(os.path.join(args.out, "setup.json"), "w", encoding="utf-8") as fh:
            json.dump({"ready": ready}, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    times, cpu_times, rounds = [], [], []
    while True:
        i = len(times)
        if i:
            solve = setup(args.workload, round_seed(args.seed, i))
        t0, c0 = time.perf_counter(), time.process_time()
        res = tracer.call(ROOT_SPAN, solve) if tracer else solve()
        times.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
        W = res.ritz_vectors
        np.savez(
            os.path.join(args.out, f"result-{i}.npz"),
            U=W.U, V=W.V, sigma=W.sigma,
            ritz_values=res.ritz_values,
            residual_norms=res.residual_norms,
            inside_flags=res.inside_flags,
        )
        rounds.append(_diagnostics(res))
        del res, W
        if len(times) < WORKLOADS[args.workload]["min_rounds"]:
            continue
        if time.monotonic() + statistics.median(times) > ready + args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))

    summary = {
        "ready": ready,
        "solve_s": times,
        "solve_cpu_s": cpu_times,
        "rounds": rounds,
        "peak_rss_mb": _peak_rss_mb(),
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}),
        "absent_layers": tracer.absent if tracer else [],
    }
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
