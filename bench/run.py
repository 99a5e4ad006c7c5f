"""kroneig benchmark: one eigensolver workload, timed, traced and checked.

    python3 bench/run.py --workload {contour-tight,contour-wide,lobpcg-rank}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
src/. The workload runs in a worker process of its own with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 set in that process's
environment only. With --trace 0 the run also starts SETUP_PROBES
processes that only set up, half before and half after the worker, and
prints the end-to-end metrics; with --trace 1 the worker wraps the
library's layers (see tracer.py) and the run prints the per-layer
metrics, each per solver call. A run makes whole solver calls (rounds,
each on its own seed's inputs; see worker.py for how many); solve_s and
ritz_entries are medians over them. Every round's result is checked
against a reference computed without kroneig (see reference.py and
checks.py). The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}; the line before it records the
environment. Exits 1 when a worker fails, 2 when there is no source
tree to benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 4
# all worker processes of one run end within this many seconds
WORKERS_DEADLINE_S = 165

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ritz_entries": "count"}
# per-layer metrics: (span name, fields); every field is per solver call
SPAN_FIELDS = [
    ("sylvester.pair_truncate", ("calls", "self_s", "total_s", "rank_in", "rank_out")),
    ("sylvester.solve_pair", ("calls", "self_s", "total_s")),
    ("sylvester.bicgstab_multiterm", ("calls", "self_s", "total_s", "iterations")),
    ("sylvester.apply_pair", ("calls", "self_s")),
    ("contour.node_problem", ("calls", "self_s")),
    ("blr.truncate", ("calls", "self_s", "total_s", "rank_in", "rank_out")),
    ("lobpcg.apply_block", ("calls", "self_s", "total_s")),
    ("blr.apply_operator", ("calls", "self_s")),
    ("blr.block_inner", ("calls", "self_s")),
    ("blr.column_norms", ("calls", "self_s")),
    ("lobpcg.rayleigh_ritz_3block", ("calls", "self_s", "total_s")),
    ("blr.orthonormalize_svd", ("calls",)),
    ("dense.svd_trunc", ("calls", "self_s", "flops", "kept_fraction")),
]
FIELD_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "rank_in": "rank",
    "rank_out": "rank",
    "iterations": "count",
    "flops": "flop",
    "kept_fraction": "fraction",
}
# per-layer metrics read from the result's diagnostics: (name, key, unit)
DIAG_METRICS = [
    ("contour.node_rank_max", "node_rank_max", "rank"),
    ("contour.node_failures", "node_failures", "count"),
    ("contour.subspace_rank", "subspace_rank", "rank"),
    ("lobpcg.iterations", "iterations", "count"),
    ("lobpcg.peak_x_rank", "peak_x_rank", "rank"),
]


def layer_metric_units():
    """Name -> unit of every per-layer metric, in output order."""
    units = {}
    for span, fields in SPAN_FIELDS:
        for f in fields:
            units[f"{span}.{f}"] = FIELD_UNITS[f]
    units["sylvester.eig2_setup_s"] = "s"
    for name, _, unit in DIAG_METRICS:
        units[name] = unit
    units["trace.coverage"] = "fraction"
    units["trace.solve_s"] = "s"
    return units


class WorkerFailed(RuntimeError):
    pass


def _worker(args, tmp, extra, deadline):
    """Run worker.py to completion; returns the monotonic start stamp.

    The worker is killed when it runs past the monotonic deadline.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", tmp,
    ] + extra
    start = time.monotonic()
    timeout = max(deadline - start, 1.0)
    try:
        # the worker's stdout goes to stderr: the last stdout line is the result
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout, stdout=sys.stderr)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return start


def _setup_probe(args, tmp, deadline):
    """Set-up seconds of one process that stops at the solver call."""
    start = _worker(args, tmp, ["--setup-only"], deadline)
    return _read_json(os.path.join(tmp, "setup.json"))["ready"] - start


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def layer_metrics(spans, rounds, solve_times):
    """Per-layer metric values (per solver call) from spans and diagnostics."""
    from tracer import summarize

    per_name, root_s = summarize(spans)
    n_solves = len(rounds)
    values = {}
    for span, fields in SPAN_FIELDS:
        row = per_name.get(span, {})
        calls = row.get("calls", 0)
        for f in fields:
            if f in ("rank_in", "rank_out"):
                v = row.get(f, 0) / calls if calls else 0.0
            elif f == "kept_fraction":
                v = row.get("kept", 0) / row["min_dim"] if row.get("min_dim") else 0.0
            else:
                v = row.get(f, 0) / n_solves
            values[f"{span}.{f}"] = v
    eig2_setup = per_name.get("sylvester.eig2_setup", {})
    values["sylvester.eig2_setup_s"] = eig2_setup.get("total_s", 0.0) / n_solves
    for name, key, _ in DIAG_METRICS:
        values[name] = sum(r.get(key, 0) for r in rounds) / n_solves
    covered = sum(row["self_s"] for row in per_name.values())
    values["trace.coverage"] = covered / root_s if root_s > 0 else 0.0
    values["trace.solve_s"] = statistics.median(solve_times)
    return values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kroneig", "__init__.py")):
        print(f"no kroneig source tree under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + WORKERS_DEADLINE_S

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            # half the probes before the solves and half after, so that
            # set-up is sampled in more than one phase of the machine's load
            probes = 0 if args.trace else SETUP_PROBES
            setups = [_setup_probe(args, tmp, deadline) for _ in range(probes // 2)]
            start = _worker(
                args, tmp, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
            )
            summary = _read_json(os.path.join(tmp, "summary.json"))
            setups.append(summary["ready"] - start)
            setups += [_setup_probe(args, tmp, deadline) for _ in range(probes - probes // 2)]
        except WorkerFailed as exc:
            print(f"{args.workload}: {exc}", file=sys.stderr)
            return 1

        import numpy as np
        import scipy

        blocks = []
        for i in range(len(summary["solve_s"])):
            with np.load(os.path.join(tmp, f"result-{i}.npz")) as data:
                blocks.append({key: data[key] for key in data.files})
        spans = None
        if args.trace:
            spans = _read_json(os.path.join(tmp, "spans.json"))
            with open(os.path.join(OUT, f"spans-{args.workload}.json"), "w", encoding="utf-8") as fh:
                json.dump(spans, fh, separators=(",", ":"))

    from checks import evaluate
    from reference import eigenvalues, schrodinger_matrix

    A = schrodinger_matrix(w["n"])
    ref = eigenvalues(args.workload, A)
    attempted = failed = 0
    errors, pairs = [], []
    for i, (block, diag) in enumerate(zip(blocks, summary["rounds"])):
        report = evaluate(w, A, ref, block, diag)
        attempted += diag.get("node_solves", 0) + report["wanted"]
        failed += diag.get("node_failures", 0) + len(report["failed"])
        for label, reasons in report["failed"].items():
            print(f"{args.workload} round {i}: eigenpair {label} failed: {'; '.join(reasons)}",
                  file=sys.stderr)
        errors += [f"round {i}: {err}" for err in report["errors"]]
        pairs.append(report["pairs"])
    for err in errors:
        print(f"{args.workload}: {err}", file=sys.stderr)

    if args.trace:
        units = layer_metric_units()
        values = layer_metrics(spans, summary["rounds"], summary["solve_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            "solve_s": statistics.median(summary["solve_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_mb"],
            "ritz_entries": statistics.median(
                int(b["U"].size + b["V"].size + b["sigma"].size) for b in blocks
            ),
        }
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }
    env = {
        "workload": args.workload,
        "params": w,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": summary["blas"],
        "blas_threads": 1,
        "git_sha": _git_sha(),
        "solve_s": summary["solve_s"],
        "solve_cpu_s": summary["solve_cpu_s"],
        "setup_s": setups,
        "rounds": summary["rounds"],
        "pairs": pairs,
        "absent_layers": summary["absent_layers"],
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
