"""Alternated parent/change benchmark pairs, summarized into BENCH_<sha>.json.

    python3 tools/pairs.py --base REV --workload contour-tight
        --seeds 201 202 ... --seconds 30 [--out FILE] [--workdir DIR]

Run from the root of a git checkout; only the standard library is used.
The base revision REV is exported with `git archive` into a temporary
directory under --workdir; the change is the working tree as it is. For
each seed, `python3 bench/run.py --workload W --seed S --seconds T --trace
0` runs once in each tree, the base first on even pair indices and the
change first on odd ones. With --seconds 0 a run makes exactly the
workload's min_rounds solver calls on the same inputs in both trees, so
the two sides of a pair are input-matched.

The output (default BENCH_<short sha of REV>.json at the root: the change
measured against REV) holds, per workload and metric, both sides' medians
and quartiles, the base's IQR, how many pairs the change won (ties count
for neither; a change run that crashed is a loss), both sides' failed
operations and solver rounds per run, and every run's result and env
record. A run fits as many rounds into --seconds as it expects to finish,
each on other inputs, so "rounds_differ" lists the seeds whose two sides
ran different round counts: there the peak_rss_mb and ritz_entries
medians cover different inputs. "failed_pairs" lists every failed
eigenpair as [seed, round, label], split into rounds that both sides ran
(the same inputs, so a changed result) and rounds that only one side ran
(other inputs), and each side's "same_input_failed_share" is its
failed_share over the rounds both sides ran. A metric's "gain"
also needs the change to fail no larger share of its operations than the
base. Metric directions come from BENCHMARK.json's end-to-end metrics.
When src/ or bench/ differ from HEAD, the sha256 of that diff names the
measured code. The file is rewritten after every pair, so an interrupted
measurement keeps the pairs it finished.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bench/run.py's report of a wanted eigenpair that failed its checks
FAILED_PAIR = re.compile(r"round (\d+): eigenpair (\S+) failed")


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base, change, better):
    """Pair statistics of one metric; base[i] and change[i] share a seed.

    better is "lower" or "higher"; a change value of None is a crashed
    run, which loses its pair and is left out of the change's quartiles.
    Returns the medians and quartiles of both sides, the base's IQR
    (q3 - q1), the change's median relative to the base's, the pairs the
    change won out of all pairs (ties count for neither), and whether the
    gain rule holds: at least nine tenths of the pairs won and a median
    gap, in the better direction, larger than the base's IQR.
    """
    if len(base) != len(change) or not base:
        raise ValueError("summarize: need equally many base and change values")
    sign = -1.0 if better == "lower" else 1.0
    ran = [c for c in change if c is not None]
    bq = quartiles(base)
    cq = quartiles(ran) if ran else (None, None, None)
    iqr = bq[2] - bq[0]
    wins = sum(1 for b, c in zip(base, change) if c is not None and sign * (c - b) > 0)
    gap = sign * (cq[1] - bq[1]) if ran else -math.inf
    return {
        "base_median": bq[1],
        "base_quartiles": [bq[0], bq[2]],
        "base_iqr": iqr,
        "change_median": cq[1],
        "change_quartiles": [cq[0], cq[2]],
        "relative": cq[1] / bq[1] - 1.0 if ran and bq[1] else None,
        "wins": wins,
        "pairs": len(base),
        "gain": wins >= 0.9 * len(base) and gap > iqr,
    }


def _git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export(rev, workdir):
    """Extract `git archive rev` into a new directory under workdir."""
    dest = tempfile.mkdtemp(prefix="pairs-base-", dir=workdir)
    archive = os.path.join(dest, "base.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return dest, tree


def run_once(tree, workload, seed, seconds):
    """One untraced bench/run.py run in tree: its result and env records."""
    cmd = [
        sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    stderr = proc.stderr.strip().splitlines()
    record = {"returncode": proc.returncode, "wall_s": time.monotonic() - t0,
              "stderr": stderr[-40:], "failed_pairs": failed_pairs(stderr)}
    if proc.returncode == 0 and len(lines) >= 2:
        record["env"] = json.loads(lines[-2])["env"]
        record["result"] = json.loads(lines[-1])
    return record


def failed_pairs(stderr_lines):
    """[round, eigenpair label] of every "round i: eigenpair ... failed" line."""
    found = (FAILED_PAIR.search(line) for line in stderr_lines)
    return [[int(m.group(1)), m.group(2)] for m in found if m]


def attribute_failures(done):
    """Failed pairs of both sides as [seed, round, label], split by inputs.

    Round i of a seed solves the same inputs on both sides, so a failure
    on a round that both sides ran ("same_inputs") comes from a changed
    result; one on a round that only one side ran ("one_side") comes from
    inputs the other side never saw. Pairs with a crashed run are skipped.
    """
    out = {key: {"base": [], "change": []} for key in ("same_inputs", "one_side")}
    for r in done:
        if "result" not in r["change"]:
            continue
        shared = min(len(r[side]["env"]["solve_s"]) for side in ("base", "change"))
        for side in ("base", "change"):
            for rnd, label in r[side].get("failed_pairs", []):
                key = "same_inputs" if rnd < shared else "one_side"
                out[key][side].append([r["seed"], rnd, label])
    return out


def failed_share(results):
    """Failed operations over attempted ones, summed over runs."""
    attempted = sum(res["attempted"] for res in results)
    return sum(res["failed"] for res in results) / attempted if attempted else 0.0


def same_input_failed_share(done, side):
    """failed_share of one side over only the rounds both sides ran.

    A round attempts its node solves (env "rounds"[i]["node_solves"]) and
    its wanted eigenpairs, which are the same in every round of a run: the
    run's attempted count less its node solves, over its rounds. It fails
    its failed node solves and its failed-eigenpair lines. Pairs with a
    crashed run are skipped.
    """
    failed = attempted = 0
    for r in done:
        if "result" not in r["change"]:
            continue
        shared = min(len(r[s]["env"]["solve_s"]) for s in ("base", "change"))
        run = r[side]
        rounds = run["env"].get("rounds", [])
        solves = [rnd.get("node_solves", 0) for rnd in rounds]
        wanted = (run["result"]["attempted"] - sum(solves)) / len(run["env"]["solve_s"])
        attempted += sum(solves[:shared]) + shared * wanted
        failed += sum(rnd.get("node_failures", 0) for rnd in rounds[:shared])
        failed += sum(1 for rnd, _ in run.get("failed_pairs", []) if rnd < shared)
    return failed / attempted if attempted else 0.0


def build_report(meta, runs, directions):
    """The BENCH file: meta, a summary per workload and metric, all runs.

    Pairs whose base run crashed cannot be compared and are counted
    apart; a crashed change run stays in as a lost pair.
    """
    summary = {}
    for workload in meta["workloads"]:
        done = [r for r in runs if r["workload"] == workload and "result" in r["base"]]
        if not done:
            continue
        rows = {"metrics": {}, "base_crashed": sum(
            1 for r in runs if r["workload"] == workload and "result" not in r["base"])}
        for side in ("base", "change"):
            results = [r[side]["result"] for r in done if "result" in r[side]]
            rows[side] = {
                "crashed": len(done) - len(results),
                "correct": all(res["correct"] for res in results),
                "failed": [res["failed"] for res in results],
                "attempted": [res["attempted"] for res in results],
                "failed_share": failed_share(results),
                "same_input_failed_share": same_input_failed_share(done, side),
                "rounds": [len(r[side]["env"]["solve_s"]) for r in done if "result" in r[side]],
            }
        rows["rounds_differ"] = [
            r["seed"] for r in done if "result" in r["change"]
            and len(r["base"]["env"]["solve_s"]) != len(r["change"]["env"]["solve_s"])
        ]
        rows["failed_pairs"] = attribute_failures(done)
        fails_more = rows["change"]["failed_share"] > rows["base"]["failed_share"]
        for name in directions:
            base = [r["base"]["result"]["metrics"][name]["value"] for r in done]
            change = [r["change"]["result"]["metrics"][name]["value"]
                      if "result" in r["change"] else None for r in done]
            row = summarize(base, change, directions[name])
            row["gain"] = row["gain"] and not fails_more
            rows["metrics"][name] = row
        summary[workload] = rows
    return {"meta": meta, "summary": summary, "runs": runs}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--out")
    p.add_argument("--workdir", help="where the base tree is exported (default: system temp)")
    args = p.parse_args(argv)

    base_sha = _git("rev-parse", args.base)
    out = args.out or os.path.join(ROOT, f"BENCH_{base_sha[:7]}.json")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    change = {"head": _git("rev-parse", "HEAD"),
              "dirty": bool(_git("status", "--porcelain", "--", "src", "bench"))}
    if change["dirty"]:
        diff = _git("diff", "HEAD", "--binary", "--", "src", "bench")
        change["diff_sha256"] = hashlib.sha256(diff.encode()).hexdigest()
    meta = {
        "base": base_sha,
        "change": change,
        "workloads": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "order": "base first on even pair indices, change first on odd",
    }
    dest, base_tree = export(base_sha, args.workdir)
    runs = []
    try:
        for workload in args.workload:
            for i, seed in enumerate(args.seeds):
                sides = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"workload": workload, "seed": seed, "first": sides[0]}
                for side in sides:
                    tree = base_tree if side == "base" else ROOT
                    pair[side] = run_once(tree, workload, seed, args.seconds)
                runs.append(pair)
                report = build_report(meta, runs, directions)
                with open(out, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, indent=1)
                print(f"{workload} seed {seed}: "
                      + ", ".join(f"{s} rc={pair[s]['returncode']}" for s in sides),
                      file=sys.stderr)
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
