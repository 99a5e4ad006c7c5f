"""Command line driver: resolution layers, determinism, artifact schemas."""

import csv
import json

import numpy as np
import pytest

from conftest import sparse_node_solution
from kroneig.cli import DEFAULTS, _resolve, build_parser, main
from kroneig.problems import laplacian_1d_eigenvalues, make_spec, schrodinger_kron
from kroneig.sketch import draw_khatri_rao


def _run(argv):
    return main(argv)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _strip_timing(payload):
    payload = dict(payload)
    payload.pop("timing", None)
    # The output directory is echoed configuration, not a result.
    if "config" in payload:
        payload["config"] = {k: v for k, v in payload["config"].items() if k != "out"}
    return payload


OSE_SMALL = [
    "ose-stats", "--n-til", "6", "--n-hat", "6", "--k-min", "2", "--k-max", "2",
    "--ell-min", "4", "--ell-max", "8", "--ell-step", "4", "--trials", "30",
    "--seed", "11",
]


def test_ose_stats_artifacts_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert _run(OSE_SMALL + ["--out", str(out1)]) == 0
    assert _run(OSE_SMALL + ["--out", str(out2), "--threads", "2"]) == 0
    for name in ("ose_percentiles.csv", "ose_frontier.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    j1 = _strip_timing(_read_json(out1 / "ose_stats.json"))
    j2 = _strip_timing(_read_json(out2 / "ose_stats.json"))
    # Thread count is configuration, not output; everything else matches.
    j1["config"].pop("threads")
    j2["config"].pop("threads")
    assert j1 == j2
    assert j1["schema"] == "kroneig/ose-stats/1"
    rows = _read_csv(out1 / "ose_percentiles.csv")
    # 2 families x 2 modes x 1 k x 2 ell.
    assert len(rows) == 8
    assert {r["family"] for r in rows} == {"gaussian", "khatri-rao"}
    for r in rows:
        assert float(r["p95"]) <= float(r["max"])


def test_ose_stats_single_cell_frontier(tmp_path):
    out = tmp_path / "o"
    code = _run(
        OSE_SMALL
        + ["--families", "khatri-rao", "--u-modes", "random", "--out", str(out)]
    )
    assert code == 0
    frontier = _read_csv(out / "ose_frontier.csv")
    assert len(frontier) == 1
    row = frontier[0]
    assert row["family"] == "khatri-rao" and row["u_mode"] == "random"
    ell = int(row["ell_frontier"])
    assert ell == -1 or ell >= 2


def test_ose_stats_no_frontier(tmp_path):
    out = tmp_path / "o"
    assert _run(OSE_SMALL + ["--no-frontier", "--out", str(out)]) == 0
    # The artifact set is stable; the frontier file is just empty.
    assert _read_csv(out / "ose_frontier.csv") == []
    assert _read_json(out / "ose_stats.json")["frontier_rows"] == 0


def test_contour_oracle_small(tmp_path):
    out = tmp_path / "c"
    code = _run(
        [
            "contour", "--potential", "sum-of-squares", "--n", "20", "--ell", "6",
            "--q", "16", "--tol", "1e-8", "--oracle", "--out", str(out),
        ]
    )
    assert code == 0
    payload = _read_json(out / "contour.json")
    assert payload["schema"] == "kroneig/contour/1"
    assert payload["inside_count"] == 4
    assert payload["oracle"]["count_match"] is True
    assert payload["oracle"]["max_eigenvalue_error"] < 1e-6
    assert payload["failure_count"] == 0
    rows = _read_csv(out / "contour_nodes.csv")
    # Real data: conjugate economy halves the solved grid.
    assert payload["conjugate_economy"] is True
    assert len(rows) == 8 * 6
    assert {r["converged"] for r in rows} == {"true"}


def test_contour_determinism(tmp_path):
    argv = [
        "contour", "--potential", "zero", "--n", "14", "--ell", "3", "--q", "8",
        "--center", "120", "--radius", "60", "--tol", "1e-8",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run(argv + ["--out", str(out1)]) == 0
    assert _run(argv + ["--out", str(out2)]) == 0
    assert (out1 / "contour_nodes.csv").read_bytes() == (out2 / "contour_nodes.csv").read_bytes()
    assert _strip_timing(_read_json(out1 / "contour.json")) == _strip_timing(
        _read_json(out2 / "contour.json")
    )


def test_lobpcg_zero_reference_columns(tmp_path):
    out = tmp_path / "l"
    code = _run(
        [
            "lobpcg", "--potential", "zero", "--n", "20", "--k", "3", "--ell", "5",
            "--trunc-eps", "1e-9", "--rmax", "40", "--conv-tol", "1e-6",
            "--max-iter", "80", "--reference", "--reference-iter", "200",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = _read_json(out / "lobpcg.json")
    assert payload["schema"] == "kroneig/lobpcg/1"
    assert payload["converged"] is True
    spec = make_spec("zero", 20)
    mu = laplacian_1d_eigenvalues(spec)
    sums = np.sort((mu[:, None] + mu[None, :]).ravel())
    assert np.max(np.abs(np.asarray(payload["ritz_values"]) - sums[:3])) < 1e-7
    ref = payload["reference"]
    assert max(ref["final_errors"]) < 1e-7
    rows = _read_csv(out / "lobpcg_iterations.csv")
    assert len(rows) == payload["iterations"]
    last = rows[-1]
    for j in range(3):
        # Per-iteration reference error columns track |ritz - reference|.
        expect = abs(payload["ritz_values"][j] - ref["ritz_values"][j])
        assert float(last[f"ref_err_{j + 1}"]) == pytest.approx(expect, abs=1e-12)
    assert {f"ritz_{j + 1}" for j in range(5)} <= set(rows[0])
    assert {"rank_x_pre", "rank_x", "rank_r", "rank_p"} <= set(rows[0])


def test_lobpcg_square_mode(tmp_path):
    out = tmp_path / "sq"
    code = _run(
        [
            "lobpcg", "--potential", "mathieu", "--square", "--shift", "0.2",
            "--n", "16", "--k", "1", "--ell", "3", "--trunc-eps", "1e-8",
            "--rmax", "60", "--conv-tol", "1e-7", "--max-iter", "40",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = _read_json(out / "lobpcg.json")
    # Squared-shifted spectrum: theta >= 0 and the original-coordinate
    # Rayleigh quotient sits at -sqrt(theta) - shift for the matched pair.
    theta = payload["ritz_values"][0]
    assert theta >= 0.0
    rq = payload["rayleigh_original"][0]
    assert abs(rq - (-np.sqrt(theta) - 0.2)) < 1e-4


def test_sylvester_bench_small(tmp_path):
    out = tmp_path / "s"
    code = _run(
        [
            "sylvester-bench", "--potential", "sum-of-squares", "--n-values", "40",
            "--tol-values", "1e-6,1e-10", "--nodes", "2", "--q", "16",
            "--decay-n", "50", "--decay-tol", "1e-10", "--decay-count", "40",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = _read_json(out / "sylvester_bench.json")
    assert payload["schema"] == "kroneig/sylvester-bench/1"
    bench = _read_csv(out / "sylvester_bench.csv")
    assert [float(row["tol"]) for row in bench] == [1e-6, 1e-10]
    for row in bench:
        assert float(row["worst_residual"]) <= float(row["tol"])
        assert 0 < float(row["mean_basis_rank"]) <= 40
    decay = _read_csv(out / "sylvester_decay.csv")
    assert len(decay) == 40
    sv_r1 = np.array([float(r["sv_rank_one"]) for r in decay])
    sv_de = np.array([float(r["sv_dense_rhs"]) for r in decay])
    # the leading singular values are those of the sparse-direct solution
    A = schrodinger_kron(make_spec("sum-of-squares", 50))
    sk = draw_khatri_rao(50, 50, 1, seed=0)
    X = sparse_node_solution(A, complex(*payload["decay_node"]), sk.scale * sk.hat, sk.tilde)
    s = np.linalg.svd(X, compute_uv=False)
    assert np.max(np.abs(sv_r1[:20] - s[:20] / s[0])) <= 1e-8
    # Rank-one right-hand sides give fast singular value decay; a dense
    # random right-hand side does not.
    assert sv_r1[29] <= 1e-6
    assert sv_de[29] >= 1e-3
    assert payload["decay_ratio_rank_one"] <= 1e-6
    assert payload["decay_ratio_dense"] >= 1e-3


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "n = 12\n"
        "q = 8\n"
        "tol = 1e-6\n"
        "potential = zero\n"
        "center = 150\n"
        "radius = 80\n"
    )
    out = tmp_path / "o"
    code = _run(
        ["contour", "--config", str(cfgfile), "--q", "12", "--out", str(out)]
    )
    assert code == 0
    cfg = _read_json(out / "contour.json")["config"]
    assert cfg["n"] == 12          # from file
    assert cfg["q"] == 12          # flag beats file
    assert cfg["tol"] == 1e-6      # from file
    assert cfg["rank_cap"] == 90   # default


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    assert _run(["contour", "--potential", "nosuch", "--n", "10"]) == 2
    err = capsys.readouterr().err
    assert "sum-of-squares" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("nosuchkey = 3\n")
    assert _run(["contour", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "nosuchkey" in err
    malformed = tmp_path / "worse.cfg"
    malformed.write_text("just a line without equals\n")
    assert _run(["contour", "--config", str(malformed)]) == 2
    assert _run(["ose-stats", "--threads", "-2"]) == 2


def test_every_default_key_is_set_by_its_flag():
    # Parse only: each DEFAULTS key has one flag, --a-b for key a_b (r_max
    # keeps --rmax), and a boolean flag sets the opposite of its default.
    parser = build_parser()
    for subcommand, defaults in DEFAULTS.items():
        argv, expect = [subcommand], {}
        for key, default in defaults.items():
            flag = "rmax" if key == "r_max" else key.replace("_", "-")
            if isinstance(default, bool):
                argv.append(f"--no-{flag}" if default else f"--{flag}")
                expect[key] = not default
                continue
            if isinstance(default, str):
                value = default + "-x"
            else:
                value = default + (1 if isinstance(default, int) else 0.5)
            argv += [f"--{flag}", str(value)]
            expect[key] = value
        assert _resolve(subcommand, parser.parse_args(argv)) == expect


def test_removed_adi_iteration_knob_is_rejected(tmp_path):
    # The node-ADI step count left with the node-ADI preconditioner, the
    # step cap with the truncated BiCGstab node solver, and lobpcg and
    # sylvester-bench run no worker threads: each of these config keys and
    # its flag is unknown (exit 2, nothing runs).
    for subcommand, key in [("contour", "precond_iter"), ("sylvester-bench", "precond_iter"),
                            ("sylvester-bench", "max_iter"), ("sylvester-bench", "threads"),
                            ("lobpcg", "threads")]:
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text(f"{key} = 8\n")
        assert _run([subcommand, "--config", str(cfgfile)]) == 2
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([subcommand, f"--{key.replace('_', '-')}", "8"])
        assert exc.value.code == 2
