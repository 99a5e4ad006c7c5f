"""tools/sweep.py on one input: it solves, checks and reports as JSON."""

import json
import os
import subprocess
import sys

SWEEP_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "sweep.py")


def test_sweep_one_input(tmp_path):
    # seed 11's first input of a contour and of the LOBPCG workload
    for workload in ("contour-tight", "lobpcg-rank"):
        out = tmp_path / f"{workload}.json"
        proc = subprocess.run(
            [sys.executable, SWEEP_PATH, "--workload", workload, "--seeds", "11",
             "--rounds", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=300, check=True,
        )
        report = json.loads(proc.stdout)
        assert report == json.loads(out.read_text())
        assert report["workload"] == workload
        assert (report["seeds"], report["rounds"], report["inputs"]) == ([11], 1, 1)
        # it passes every check
        assert report["failed_pairs"] == 0 and report["failed_node_solves"] == 0
        assert report["failing_inputs"] == []
        # a LOBPCG workload reports every input's iteration count and their sum
        if workload == "lobpcg-rank":
            (row,) = report["lobpcg_iterations"]
            assert (row["input"], row["seed"], row["round"]) == (11, 11, 0)
            assert row["iterations"] >= 1
            assert report["lobpcg_iterations_total"] == row["iterations"]
        else:
            assert "lobpcg_iterations" not in report


def test_sweep_rejects_unknown_workload():
    proc = subprocess.run(
        [sys.executable, SWEEP_PATH, "--workload", "nope", "--seeds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2 and "unknown workload" in proc.stderr
