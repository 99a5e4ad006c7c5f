"""tools/cells.py on small inputs: it solves, measures and reports as JSON."""

import json
import os
import subprocess
import sys

import numpy as np

from kroneig.problems import assemble_dense, make_spec, schrodinger_kron

CELLS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cells.py")


def _cells(*args):
    return subprocess.run([sys.executable, CELLS_PATH, *args],
                          capture_output=True, text=True, timeout=300)


def test_cells_eigenvalue_window(tmp_path):
    out = tmp_path / "cells.json"
    proc = _cells("--n", "16", "--q", "16", "--ell", "4", "--tol", "1e-10", "--seeds", "0", "1",
                  "--eig-window", "1", "3", "--radius-scale", "1.05", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == json.loads(out.read_text())
    assert (report["potential"], report["n"], report["tol"]) == ("sum-of-squares", 16, 1e-10)
    lam = np.linalg.eigvalsh(assemble_dense(schrodinger_kron(make_spec("sum-of-squares", 16))))
    assert [row["seed"] for row in report["inputs"]] == [0, 1]
    for row in report["inputs"]:
        # the circle around eigenvalues 1..3, radius 1.05 times their half-spread
        assert abs(row["center"] - 0.5 * (lam[1] + lam[3])) < 1e-8
        assert abs(row["radius"] - 1.05 * 0.5 * (lam[3] - lam[1])) < 1e-8
        assert np.max(np.abs(np.array(row["inside"]) - lam[1:4])) < 1e-6
        # 8 upper-half nodes of 4 columns, every cell at the node tolerance
        assert row["cells"] == 32 and row["cells_above_tol"] == 0
        assert 0.0 < row["worst_cell_residual"] <= 1e-10
        assert row["basis"] == [16, 16]
        assert row["time_s"] > 0 and row["peak_rss_mb"] > 0


def test_cells_fixed_circle_and_usage():
    proc = _cells("--n", "12", "--q", "8", "--ell", "3", "--tol", "1e-8", "--seeds", "2",
                  "--center", "12.606", "--radius", "9.0")
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads(proc.stdout)["inputs"]
    assert (row["center"], row["radius"], row["cells"]) == (12.606, 9.0, 12)
    both = _cells("--n", "12", "--q", "8", "--ell", "3", "--tol", "1e-8", "--seeds", "2",
                  "--center", "1", "--radius", "1", "--eig-window", "0", "2")
    assert both.returncode == 2 and "either" in both.stderr
    neither = _cells("--n", "12", "--q", "8", "--ell", "3", "--tol", "1e-8", "--seeds", "2")
    assert neither.returncode == 2
