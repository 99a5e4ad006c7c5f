"""Tests of the benchmark's own checks, tracer and metric list.

    python3 -m pytest -q bench/test_checks.py

The checks must accept exact eigenpairs and reject a Ritz value moved by
1e-3, a residual reported ten times too small and a missing inside value.
The eigenpairs come from the n=100 reference matrix (about a second),
perturbed to residuals near 1e-7 like the solvers' own.
"""

import json
import os
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import evaluate  # noqa: E402
from reference import residuals, schrodinger_matrix  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

N = 100


@pytest.fixture(scope="module")
def exact():
    """Sparse matrix, ten eigenpairs near the contour center, eigenvalues."""
    A = schrodinger_matrix(N)
    w = WORKLOADS["contour-tight"]
    vals, vecs = scipy.sparse.linalg.eigsh(A.tocsc(), k=10, sigma=w["center"])
    order = np.argsort(vals)
    return A, vals[order], vecs[:, order]


def _block(A, vals, vecs, cols):
    """Ritz pairs as a block: U = V = I, sigma_j = the matricized vector.

    Each vector is an eigenvector plus 3e-9 times the last one (eigenvalue
    near 42), so its residual is about 1e-7 and its Rayleigh quotient
    matches the eigenvalue to rounding.
    """
    X = vecs[:, cols] + 3e-9 * vecs[:, -1:]
    X /= np.linalg.norm(X, axis=0)
    theta = np.einsum("ij,ij->j", X, A @ X)
    return {
        "U": np.eye(N),
        "V": np.eye(N),
        "sigma": np.stack([X[:, j].reshape(N, N, order="F") for j in range(len(cols))]),
        "ritz_values": theta.copy(),
        "residual_norms": residuals(A, X, theta),
        "inside_flags": np.abs(theta - WORKLOADS["contour-tight"]["center"])
        < WORKLOADS["contour-tight"]["radius"],
    }


def _contour(exact, mutate=None):
    A, vals, vecs = exact
    block = _block(A, vals, vecs, list(range(6)))
    if mutate:
        mutate(block)
    w = WORKLOADS["contour-tight"]
    return evaluate(w, A, vals, block, {"node_solves": 120, "node_failures": 0})


def _lobpcg(exact, mutate=None):
    A, vals, vecs = exact
    block = _block(A, vals, vecs, list(range(4)))
    if mutate:
        mutate(block)
    # the exact block has full rank N; lift the rank cap, which
    # test_lobpcg_run_level_errors checks
    w = dict(WORKLOADS["lobpcg-rank"], r_max=N)
    return evaluate(w, A, vals, block, {"converged": True, "iterations": 24, "peak_x_rank": N})


def test_exact_pairs_pass(exact):
    for report in (_contour(exact), _lobpcg(exact)):
        assert report["wanted"] == 4
        assert report["failed"] == {}
        assert report["errors"] == []


@pytest.mark.parametrize("run", [_contour, _lobpcg])
def test_moved_ritz_value_rejected(exact, run):
    def move(block):
        block["ritz_values"][1] += 1e-3

    report = run(exact, move)
    assert len(report["failed"]) == 1
    (reasons,) = report["failed"].values()
    assert any("above tolerance" in r for r in reasons)
    assert any("reported residual" in r for r in reasons)


@pytest.mark.parametrize("run", [_contour, _lobpcg])
def test_understated_residual_rejected(exact, run):
    def understate(block):
        block["residual_norms"][2] /= 10.0

    report = run(exact, understate)
    assert len(report["failed"]) == 1
    (reasons,) = report["failed"].values()
    assert any("reported residual" in r for r in reasons)


def test_missing_inside_value_rejected(exact):
    def drop(block):
        block["inside_flags"][3] = False

    report = _contour(exact, drop)
    assert len(report["failed"]) == 1
    assert any("flagged inside" in e for e in report["errors"])


def test_lobpcg_run_level_errors(exact):
    A, vals, vecs = exact
    block = _block(A, vals, vecs, list(range(4)))
    w = WORKLOADS["lobpcg-rank"]
    report = evaluate(w, A, vals, block, {"converged": False, "iterations": 100})
    assert any("not converged" in e for e in report["errors"])
    assert any("above the cap" in e for e in report["errors"])


def test_tracer_wraps_importers_and_reports_absent():
    import kroneig.blr
    import kroneig.contour
    import kroneig.dense
    import kroneig.lobpcg
    from tracer import Tracer, summarize

    original = kroneig.blr.truncate
    rng = np.random.default_rng(0)
    W = kroneig.blr.BlockLowRank(
        rng.standard_normal((20, 5)), rng.standard_normal((20, 5)), rng.standard_normal((3, 5, 5))
    )
    tracer = Tracer()
    tracer.install([
        ("blr.truncate", "kroneig.blr", "truncate", None),
        ("dense.svd_trunc", "kroneig.dense", "svd_trunc", None),
        ("gone.function", "kroneig.blr", "no_such_function", None),
        ("gone.method", "kroneig.lobpcg", "NoSuchClass.apply", None),
    ])
    try:
        assert kroneig.contour.truncate is kroneig.lobpcg.truncate is kroneig.blr.truncate
        assert kroneig.blr.truncate is not original
        tracer.call("solve", kroneig.contour.truncate, (W, 1e-8))
    finally:
        tracer.uninstall()
    assert kroneig.contour.truncate is original
    assert tracer.absent == ["gone.function", "gone.method"]
    per_name, root_s = summarize(tracer.spans)
    assert per_name["blr.truncate"]["calls"] == 1
    assert per_name["dense.svd_trunc"]["calls"] == 2
    row = per_name["blr.truncate"]
    assert row["self_s"] == pytest.approx(row["total_s"] - per_name["dense.svd_trunc"]["total_s"])
    assert root_s >= row["total_s"]


def test_benchmark_json_matches_printed_metrics():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
