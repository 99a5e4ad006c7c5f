"""Rational filter, contour eigensolver, and subspace-angle diagnostics."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import bound_instance, make_rng
from kroneig.contour import (
    NodeSolverConfig,
    RationalFilter,
    RecompressConfig,
    contour_eigensolve,
    filter_eval,
    node_problem,
    structural_bound,
    tan_angle_B,
    trapezoid_circle,
)
from kroneig import contour
from kroneig.blr import KroneckerSumOperator, to_dense
from kroneig.errors import (
    DegenerateSubspace,
    DimensionMismatch,
    OutOfRange,
    PoleHit,
    RankDeficient,
    SingularShiftedSolve,
    StructureMismatch,
)
from kroneig.problems import (
    assemble_dense,
    laplacian_1d_eigenvalues,
    make_spec,
    schrodinger_kron,
)
from kroneig.sketch import KhatriRaoSketch, draw_khatri_rao
from kroneig.sylvester import EigenbasisPreconditioner, TensorGalerkin, bicgstab_multiterm


def test_trapezoid_circle_geometry():
    filt = trapezoid_circle(2.0, 1.5, 16)
    assert filt.q == 16
    assert np.allclose(np.abs(filt.nodes - 2.0), 1.5, atol=1e-13)
    # Midpoint offset keeps every node off the real axis for even q.
    assert np.min(np.abs(filt.nodes.imag)) > 0.1
    # Node set is closed under conjugation (filter real on the real axis).
    for z in filt.nodes:
        assert np.min(np.abs(filt.nodes - np.conj(z))) < 1e-13
    # Weights integrate the constant 1 to zero and 1/(z - c) to 1.
    assert abs(np.sum(filt.weights)) < 1e-12
    assert abs(np.sum(filt.weights / (filt.nodes - 2.0)) / (2.0j * np.pi) - 1.0) < 1e-13
    with pytest.raises(OutOfRange):
        trapezoid_circle(0.0, 1.0, 1)
    with pytest.raises(OutOfRange):
        trapezoid_circle(0.0, -1.0, 8)


def test_filter_closed_form():
    # Midpoint-trapezoid filter on the circle has the exact closed form
    # 1 / (1 + u^q), u = (lam - c) / r.
    c, r, q = 1.0, 2.0, 16
    filt = trapezoid_circle(c, r, q)
    lam = np.array([-0.9, 0.0, 0.3, 1.0, 2.2, 3.5, 7.0])
    u = (lam - c) / r
    ref = 1.0 / (1.0 + u**q)
    vals = filter_eval(filt, lam)
    assert np.allclose(vals, ref, atol=1e-12)
    assert abs(filter_eval(filt, c) - 1.0) < 1e-14


def test_filter_pole_hit():
    filt = trapezoid_circle(0.0, 1.0, 8)
    with pytest.raises(PoleHit):
        filter_eval(filt, complex(filt.nodes[3]))


def test_filter_sharpens_with_q():
    inner, outer = 0.4, 1.8
    prev_in, prev_out = None, None
    for q in (8, 16, 32, 64):
        filt = trapezoid_circle(0.0, 1.0, q)
        err_in = abs(filter_eval(filt, inner) - 1.0)
        err_out = abs(filter_eval(filt, outer))
        if prev_in is not None:
            assert err_in < prev_in
            assert err_out < prev_out
        prev_in, prev_out = err_in, err_out
    filt = trapezoid_circle(0.0, 1.0, 128)
    assert abs(filter_eval(filt, inner) - 1.0) < 1e-10
    assert abs(filter_eval(filt, outer)) < 1e-10


def test_node_problem_matches_shifted_dense():
    rng = make_rng(70)
    spec = make_spec("sum-of-squares", 8)
    A = schrodinger_kron(spec)
    z = 3.0 + 1.5j
    F = rng.standard_normal((8, 1))
    G = rng.standard_normal((8, 1))
    p = node_problem(A, z, F, G)
    L = (
        np.kron(np.eye(p.n_til), p.Acoef)
        + np.kron(p.Bcoef, np.eye(p.n_hat))
        - np.kron(p.couplings[0][0].dense(), p.couplings[0][1].dense())
    )
    assert np.allclose(L, z * np.eye(A.n) - assemble_dense(A), atol=1e-11)


def _zero_potential_window(n):
    spec = make_spec("zero", n)
    mu = laplacian_1d_eigenvalues(spec)
    sums = np.sort((mu[:, None] + mu[None, :]).ravel())
    center = 0.5 * (sums[0] + sums[2])
    radius = 0.5 * (sums[2] - sums[0]) + 0.25 * (sums[3] - sums[2])
    return spec, sums, center, radius


def test_contour_zero_potential_closed_form():
    spec, sums, center, radius = _zero_potential_window(20)
    A = schrodinger_kron(spec)
    filt = trapezoid_circle(center, radius, 32)
    sk = draw_khatri_rao(20, 20, 5, seed=3)
    res = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-10, seed=0))
    inside = res.ritz_values[res.inside_flags]
    assert len(inside) == 3
    assert np.max(np.abs(np.sort(inside) - sums[:3])) < 1e-8
    assert np.max(res.residual_norms[res.inside_flags]) < 1e-6
    assert res.diagnostics["conjugate_economy"]
    assert res.diagnostics["failures"] == []
    # Only upper-half nodes are solved for real data.
    assert len(res.diagnostics["nodes_solved"]) == 16


def test_contour_matches_dense_oracle():
    spec = make_spec("sum-of-squares", 16)
    A = schrodinger_kron(spec)
    dense = assemble_dense(A)
    lam = np.linalg.eigvalsh(dense)
    center = 0.5 * (lam[1] + lam[3])
    radius = 0.5 * (lam[3] - lam[1]) + 0.3 * (lam[4] - lam[3])
    filt = trapezoid_circle(center, radius, 32)
    sk = draw_khatri_rao(16, 16, 5, seed=1)
    res = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-10, seed=0))
    inside = np.sort(res.ritz_values[res.inside_flags])
    assert len(inside) == 3
    assert np.max(np.abs(inside - lam[1:4])) < 1e-6
    # Ritz vectors back the values: dense residual check on the block.
    X = to_dense(res.ritz_vectors)
    R = dense @ X - X @ np.diag(res.ritz_values)
    assert np.max(np.linalg.norm(R[:, res.inside_flags], axis=0)) < 1e-6


def test_contour_result_shapes():
    spec, _, center, radius = _zero_potential_window(12)
    A = schrodinger_kron(spec)
    filt = trapezoid_circle(center, radius, 8)
    sk = draw_khatri_rao(12, 12, 4, seed=5)
    res = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-8, seed=0))
    m = res.diagnostics["subspace_dim"]
    assert len(res.ritz_values) == m
    assert len(res.residual_norms) == m
    assert len(res.inside_flags) == m
    assert res.ritz_vectors.ell == m
    assert res.diagnostics["inside_count"] == int(np.count_nonzero(res.inside_flags))
    assert res.diagnostics["grid_size"] == len(res.diagnostics["nodes_solved"]) * 4


def _one_column_basis(monkeypatch):
    """Train the contour's basis on one cell: column 0 at the first node."""
    monkeypatch.setattr(contour, "_training_cells", lambda node_ids, ell: [(node_ids[0], 0)])


def _assert_same_run(r1, r2):
    assert np.array_equal(r1.ritz_values, r2.ritz_values)
    assert np.array_equal(r1.residual_norms, r2.residual_norms)
    assert r1.diagnostics["node_reports"] == r2.diagnostics["node_reports"]
    assert r1.diagnostics["basis"] == r2.diagnostics["basis"]
    for name in ("U", "V", "sigma"):
        assert np.array_equal(getattr(r1.ritz_vectors, name), getattr(r2.ritz_vectors, name))


def _sum_of_squares_window(n):
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    lam = np.linalg.eigvalsh(assemble_dense(A))
    center = 0.5 * (lam[1] + lam[3])
    radius = 0.5 * (lam[3] - lam[1]) + 0.3 * (lam[4] - lam[3])
    return A, lam, center, radius


def _threads_agree(A, center, radius):
    filt = trapezoid_circle(center, radius, 8)
    sk = draw_khatri_rao(A.n_hat, A.n_til, 4, seed=2)
    runs = [
        contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-9, seed=0), threads=t)
        for t in (1, 2)
    ]
    _assert_same_run(*runs)
    return runs[0]


def test_contour_threads_deterministic():
    spec, _, center, radius = _zero_potential_window(14)
    res = _threads_agree(schrodinger_kron(spec), center, radius)
    assert not res.diagnostics["basis"]["fallback_cells"]


def test_contour_threads_deterministic_with_enrichment(monkeypatch):
    # fallback cells extend the basis after their node, in column order,
    # so threads=2 still gives threads=1's bits; at n=32 one enriched cell
    # spans the whole space and nothing falls back
    A, _, center, radius = _sum_of_squares_window(48)
    _one_column_basis(monkeypatch)
    res = _threads_agree(A, center, radius)
    assert res.diagnostics["basis"]["fallback_cells"]


def _trained_family(A, nodes, sk, tol):
    """A real family whose basis holds the BiCGstab solutions at nodes 0 and 4."""
    K_hat, K_til, couplings = A.split
    F = sk.scale * sk.hat
    family = TensorGalerkin(K_hat, K_til, couplings, F, sk.tilde, 1e-3 * tol, True)
    sols = [
        (j, 1.0, s.Xhat, s.Xtil)
        for i in (0, 4)
        for j in range(sk.ell)
        for s in [bicgstab_multiterm(node_problem(A, complex(nodes[i]), F[:, j : j + 1],
                                                  sk.tilde[:, j : j + 1]), tol=tol)]
    ]
    family.extend(sols, np.zeros((sk.ell, 0, 0)))
    return family


def test_galerkin_cell_matches_bicgstab():
    # A basis from the two training nodes carries a held-out node: the
    # Galerkin cell and BiCGstab on the same cell agree, and both report a
    # true residual at most tol, the Galerkin one confirmed densely.
    n, tol = 64, 1e-6
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    filt = trapezoid_circle(12.606, 9.0, 16)
    sk = draw_khatri_rao(n, n, 3, seed=1)
    family = _trained_family(A, filt.nodes, sk, tol)
    assert family.ranks[0] < n
    for j in range(3):
        p = node_problem(A, complex(filt.nodes[2]), family.F[:, j : j + 1], sk.tilde[:, j : j + 1])
        ref = bicgstab_multiterm(p, tol=tol)
        Y, residual, _ = family.solve(complex(filt.nodes[2]), j, tol)
        X = family.U @ Y @ family.V.T
        Xref = ref.Xhat @ ref.Xtil.T
        b = p.F @ p.G.T
        dense = np.linalg.norm(b - p.Acoef @ X - X @ p.Bcoef.T
                               + p.couplings[0][1].dense() @ X @ p.couplings[0][0].dense().T)
        assert residual <= tol and ref.achieved_residual <= tol
        assert dense / np.linalg.norm(b) == pytest.approx(residual, rel=1e-3, abs=1e-12)
        assert np.linalg.norm(X - Xref) <= 1e3 * tol * np.linalg.norm(Xref)


def test_galerkin_real_gemms_match_complex_gemms():
    # Real data keeps H, T and the residual's triangular blocks real, so
    # their products with a complex Y run as real GEMMs; cast to complex
    # they take numpy's complex GEMM and must give the same cell.
    n, tol = 64, 1e-6
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    filt = trapezoid_circle(12.606, 9.0, 16)
    sk = draw_khatri_rao(n, n, 3, seed=1)
    family = _trained_family(A, filt.nodes, sk, tol)
    z = complex(filt.nodes[2])
    assert not any(np.iscomplexobj(M) for M in family.H + family.T + family.Rp_blocks)
    cells = [family.solve(z, j, tol) for j in range(3)]
    for name in ("H", "T", "Rp_blocks"):
        setattr(family, name, [M.astype(complex) for M in getattr(family, name)])
    for j, (Y, residual, steps) in enumerate(cells):
        Yc, residual_c, steps_c = family.solve(z, j, tol)
        assert steps == steps_c
        assert np.linalg.norm(Y - Yc) <= 1e-13 * np.linalg.norm(Yc)
        assert residual == pytest.approx(residual_c, rel=1e-13)


def test_contour_one_column_basis_falls_back_and_enriches(monkeypatch):
    # A basis from one cell cannot carry the other columns: their Galerkin
    # cells miss, fall back to BiCGstab and extend the basis, and every
    # cell still ends at the node tolerance.
    A, lam, center, radius = _sum_of_squares_window(32)
    filt = trapezoid_circle(center, radius, 16)
    sk = draw_khatri_rao(32, 32, 3, seed=1)
    _one_column_basis(monkeypatch)
    res = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-8, seed=0))
    d = res.diagnostics
    assert d["basis"]["training_cells"] == [(d["nodes_solved"][0], 0)]
    # one basis from training, then one extension per node with fallbacks
    assert d["basis"]["fallback_cells"]
    assert len(d["basis"]["ranks"]) == 1 + len({i for i, _ in d["basis"]["fallback_cells"]})
    reports = d["node_reports"]
    assert sorted((r["node"], r["column"]) for r in reports) == [
        (i, j) for i in d["nodes_solved"] for j in range(3)
    ]
    fallbacks = [r for r in reports if "galerkin_residual" in r]
    assert fallbacks and all(r["method"] == "bicgstab" for r in fallbacks)
    assert sorted((r["node"], r["column"]) for r in fallbacks) == sorted(d["basis"]["fallback_cells"])
    assert all(r["converged"] and r["residual"] <= 1e-8 for r in reports)
    # the same filtered subspace as with the full training set
    monkeypatch.undo()
    ref = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-8, seed=0))
    assert not ref.diagnostics["basis"]["fallback_cells"]
    inside = np.sort(res.ritz_values[res.inside_flags])
    assert len(inside) == 3
    assert np.max(np.abs(inside - np.sort(ref.ritz_values[ref.inside_flags]))) < 1e-8


def test_node_next_to_spectrum_is_checked():
    # A node 1e-9 off an eigenvalue: the projected equation is nearly
    # singular there. The Galerkin cell must report its true residual,
    # and the contour either accepts it under tol or falls back.
    A, lam, center, radius = _sum_of_squares_window(16)
    dense = assemble_dense(A)
    filt = trapezoid_circle(center, radius, 16)
    nodes = filt.nodes.copy()
    nodes[2], nodes[13] = lam[2] + 1e-9j, lam[2] - 1e-9j
    near = RationalFilter(nodes, filt.weights, filt.center, filt.radius)
    sk = draw_khatri_rao(16, 16, 3, seed=1)
    tol = 1e-10
    family = _trained_family(A, nodes, sk, tol)
    F = family.F
    for j in range(3):
        Y, residual, _ = family.solve(complex(nodes[2]), j, tol)
        x = (family.U @ Y @ family.V.T).reshape(-1, order="F")
        b = np.kron(sk.tilde[:, j], F[:, j])
        true = np.linalg.norm(b - (nodes[2] * x - dense @ x)) / np.linalg.norm(b)
        # both sides round at eps ||A|| ||x||, large next to the spectrum
        floor = 100 * np.finfo(float).eps * np.abs(lam).max() * np.linalg.norm(x) / np.linalg.norm(b)
        assert abs(true - residual) <= 1e-2 * true + floor
    res = contour_eigensolve(A, near, sk, NodeSolverConfig(tol=tol, seed=0))
    for r in res.diagnostics["node_reports"]:
        assert r["method"] == "bicgstab" or (r["converged"] and r["residual"] <= tol)
        if r["method"] == "galerkin" or "galerkin_residual" in r:
            assert (r["node"], r["column"]) not in res.diagnostics["basis"]["training_cells"]


def test_contour_gram_breakdown_falls_back_to_svd():
    # A zero hat column gives a zero right-hand side, hence a zero subspace
    # column and a singular Gram: the orthonormalization drops it, and the
    # Ritz values are those of the sketch without that column.
    spec, _, center, radius = _zero_potential_window(20)
    A = schrodinger_kron(spec)
    filt = trapezoid_circle(center, radius, 8)
    sk = draw_khatri_rao(20, 20, 5, seed=3)
    hat = sk.hat.copy()
    hat[:, 4] = 0.0
    cfg = NodeSolverConfig(tol=1e-10, seed=0)
    res = contour_eigensolve(A, filt, KhatriRaoSketch(sk.tilde, hat, sk.scale), cfg)
    ref = contour_eigensolve(
        A, filt, KhatriRaoSketch(sk.tilde[:, :4], sk.hat[:, :4], sk.scale), cfg
    )
    assert res.diagnostics["subspace_dim"] == 4
    assert np.allclose(res.ritz_values, ref.ritz_values, rtol=1e-10, atol=0.0)


def test_contour_duplicated_sketch_column_falls_back_to_svd():
    # Column 4 of the sketch repeats column 0, so the filtered block has a
    # dependent column, independent only by roundoff: the orthonormalization
    # must drop it instead of passing a spurious Ritz pair on.
    A, lam, _, _ = _sum_of_squares_window(20)
    center = 0.5 * (lam[2] + lam[4])
    radius = 0.5 * (lam[4] - lam[2]) + 0.3 * (lam[5] - lam[4])
    sk = draw_khatri_rao(20, 20, 5, seed=5)
    hat, tilde = sk.hat.copy(), sk.tilde.copy()
    hat[:, 4], tilde[:, 4] = hat[:, 0], tilde[:, 0]
    res = contour_eigensolve(A, trapezoid_circle(center, radius, 32),
                             KhatriRaoSketch(tilde, hat, sk.scale), NodeSolverConfig(tol=1e-10, seed=0))
    assert res.diagnostics["subspace_dim"] == 4


@pytest.mark.parametrize("seed", [700035, 200021])
def test_contour_keeps_weakly_filtered_pairs(seed):
    # The benchmark's contour-tight settings. The two eigenvalues just
    # outside the circle pass the q=40 filter at about 4e-6, so the
    # filtered block is ill-conditioned by design; every Ritz pair must
    # survive its orthonormalization, and the inside pairs must reach 1e-6
    # (Galerkin cells well inside the node tolerance).
    A = schrodinger_kron(make_spec("sum-of-squares", 100))
    sk = draw_khatri_rao(100, 100, 6, seed=seed)
    res = contour_eigensolve(A, trapezoid_circle(12.606, 9.0, 40), sk,
                             NodeSolverConfig(tol=1e-10, seed=seed), RecompressConfig(1e-10, 90))
    assert len(res.ritz_values) == 6
    assert np.count_nonzero(res.inside_flags) == 4
    assert np.all(res.residual_norms[res.inside_flags] <= 1e-6)


class _FailOnce:
    """Preconditioner wrapper whose first call raises a solver error."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def solve_pair(self, problem, F, G, tol, r_max, rng):
        self.calls += 1
        if self.calls == 1:
            raise SingularShiftedSolve("injected failure")
        return self.inner.solve_pair(problem, F, G, tol, r_max, rng)


def test_contour_failed_cell_is_degraded_not_fatal():
    spec, _, center, radius = _zero_potential_window(12)
    A = schrodinger_kron(spec)
    filt = trapezoid_circle(center, radius, 8)
    sk = draw_khatri_rao(12, 12, 3, seed=4)
    K_hat, K_til, _ = A.split
    precond = _FailOnce(EigenbasisPreconditioner(K_hat, K_til))
    res = contour_eigensolve(
        A, filt, sk, NodeSolverConfig(tol=1e-9, seed=0, precond=precond)
    )
    assert len(res.diagnostics["failures"]) == 1
    node, col = res.diagnostics["failures"][0]
    assert col == 0
    assert res.diagnostics["degraded_columns"] == [0]
    bad = [r for r in res.diagnostics["node_reports"] if "error" in r]
    assert len(bad) == 1 and bad[0]["node"] == node
    # The run completes; the surviving columns still capture most of the
    # window (the degraded column may cost one direction).
    assert res.diagnostics["inside_count"] >= 2
    assert len(res.ritz_values) == res.diagnostics["subspace_dim"]


def test_training_cells_are_enriched_only_when_coupled():
    # Zero potential: the node equation is the two-term one, so the seeds
    # solve the training cells and no enrichment round runs. Sum of
    # squares: the seeds miss the coupling, and at least one round of
    # coupling images carries the training cells to the node tolerance.
    spec, _, center, radius = _zero_potential_window(20)
    zero = contour_eigensolve(schrodinger_kron(spec), trapezoid_circle(center, radius, 16),
                              draw_khatri_rao(20, 20, 3, seed=3), NodeSolverConfig(tol=1e-10))
    # (at n=32 the seeds alone span the whole space)
    A, _, center, radius = _sum_of_squares_window(48)
    coupled = contour_eigensolve(A, trapezoid_circle(center, radius, 16),
                                 draw_khatri_rao(48, 48, 3, seed=1), NodeSolverConfig(tol=1e-10))
    assert zero.diagnostics["basis"]["enrichment_rounds"] == 0
    assert coupled.diagnostics["basis"]["enrichment_rounds"] >= 1
    for res in (zero, coupled):
        d = res.diagnostics
        assert d["basis"]["training_cells"] == [(d["nodes_solved"][0], j) for j in range(3)]
        # one basis from the whole training phase, no fallback anywhere
        assert len(d["basis"]["ranks"]) == 1 and not d["basis"]["fallback_cells"]
        trained = [r for r in d["node_reports"] if r["method"] == "enriched"]
        assert [(r["node"], r["column"]) for r in trained] == d["basis"]["training_cells"]
        assert all(r["converged"] and r["residual"] <= 1e-10 for r in trained)


class _StallAfterSeeds:
    """Preconditioner wrapper whose solves after the seeds return zeros
    until ``stall`` is cleared."""

    def __init__(self, inner, seeds):
        self.inner, self.seeds = inner, seeds
        self.calls = 0
        self.stall = True

    def solve_pair(self, problem, F, G, tol, r_max, rng):
        self.calls += 1
        if self.stall and self.calls > self.seeds:
            return np.zeros_like(F), np.zeros_like(G)
        return self.inner.solve_pair(problem, F, G, tol, r_max, rng)


def test_stalled_enrichment_falls_back_to_bicgstab(monkeypatch):
    # Coupling images that add nothing leave the training cells above the
    # node tolerance: they go to BiCGstab (here with the real
    # preconditioner) and end at the tolerance like any fallback cell.
    A, _, center, radius = _sum_of_squares_window(48)
    K_hat, K_til, _ = A.split
    precond = _StallAfterSeeds(EigenbasisPreconditioner(K_hat, K_til), seeds=3)
    bicgstab = contour.bicgstab_multiterm

    def unstalled(*args, **kwargs):
        precond.stall = False
        return bicgstab(*args, **kwargs)

    monkeypatch.setattr(contour, "bicgstab_multiterm", unstalled)
    tol = 1e-10
    res = contour_eigensolve(A, trapezoid_circle(center, radius, 16),
                             draw_khatri_rao(48, 48, 3, seed=1),
                             NodeSolverConfig(tol=tol, precond=precond))
    d = res.diagnostics
    training = d["basis"]["training_cells"]
    assert d["basis"]["enrichment_rounds"] == 0
    assert set(training) <= set(d["basis"]["fallback_cells"])
    reports = {(r["node"], r["column"]): r for r in d["node_reports"]}
    for cell in training:
        assert reports[cell]["method"] == "bicgstab"
        assert reports[cell]["galerkin_residual"] > tol
    assert all(r["converged"] and r["residual"] <= tol for r in reports.values())


def test_unpreconditioned_run_seeds_from_eig2(monkeypatch):
    # precond=None leaves only the BiCGstab fallbacks unpreconditioned: the
    # seeds and coupling images come from an eig2 built for them.
    built, preconds = [], []

    class Counting(EigenbasisPreconditioner):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = 0
            built.append(self)

        def solve_pair(self, *args):
            self.calls += 1
            return super().solve_pair(*args)

    def recording(problem, precond, **kwargs):
        preconds.append(precond)
        return bicgstab_multiterm(problem, precond, **kwargs)

    monkeypatch.setattr(contour, "EigenbasisPreconditioner", Counting)
    monkeypatch.setattr(contour, "bicgstab_multiterm", recording)
    _one_column_basis(monkeypatch)
    A, _, center, radius = _sum_of_squares_window(48)
    res = contour_eigensolve(A, trapezoid_circle(center, radius, 8),
                             draw_khatri_rao(48, 48, 4, seed=2),
                             NodeSolverConfig(tol=1e-9, precond=None))
    assert len(built) == 1 and built[0].calls >= 1 + res.diagnostics["basis"]["enrichment_rounds"]
    assert res.diagnostics["basis"]["fallback_cells"]
    assert preconds and all(p is None for p in preconds)


def test_assembly_truncates_to_the_rank_cap():
    A, _, center, radius = _sum_of_squares_window(16)
    filt = trapezoid_circle(center, radius, 16)
    sk = draw_khatri_rao(16, 16, 5, seed=1)
    res = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-10), RecompressConfig(r_max=3))
    assert min(res.diagnostics["assembled_rank_pre"]) > 3
    assert res.diagnostics["assembled_rank_post"] == (3, 3)
    assert res.ritz_vectors.U.shape[1] <= 3 and res.ritz_vectors.V.shape[1] <= 3


def test_contour_rejects_unsupported_input():
    # The node equation has room for one coupling term, and "eig2" (or
    # None, or an object with solve_pair) is the only node preconditioner;
    # both are checked before any node is solved.
    spec, _, center, radius = _zero_potential_window(6)
    A = schrodinger_kron(make_spec("sum-of-squares", 6))
    til_c, hat_c = A.terms[2]
    A2 = KroneckerSumOperator(A.terms + ((hat_c, til_c),))
    filt = trapezoid_circle(center, radius, 8)
    sk = draw_khatri_rao(6, 6, 2, seed=0)
    with pytest.raises(StructureMismatch):
        contour_eigensolve(A2, filt, sk)
    with pytest.raises(StructureMismatch):
        node_problem(A2, 1.0 + 1.0j, sk.hat[:, :1], sk.tilde[:, :1])
    with pytest.raises(OutOfRange):
        contour_eigensolve(A, filt, sk, NodeSolverConfig(precond="adi"))


@pytest.mark.parametrize("family", ["gaussian", "khatri-rao"])
@pytest.mark.parametrize("weighted", [False, True])
def test_structural_bound_dominates_angle(family, weighted):
    rng = make_rng(71 if weighted else 72)
    for _ in range(10):
        B, U, Uperp, lam_in, lam_perp, filt, Omega, j, u, Z = bound_instance(
            rng, family, weighted
        )
        sharp, split = structural_bound(B, U, Uperp, lam_in, lam_perp, filt, Omega, j)
        actual = tan_angle_B(u, Z, Bmat=B)
        assert actual <= sharp + 1e-10
        assert sharp <= split + 1e-10


def test_structural_bound_validation():
    rng = make_rng(73)
    B, U, Uperp, lam_in, lam_perp, filt, Omega, j, _, _ = bound_instance(
        rng, "gaussian", False
    )
    with pytest.raises(OutOfRange):
        structural_bound(B, U, Uperp, lam_in, lam_perp, filt, Omega, 99)
    with pytest.raises(RankDeficient):
        structural_bound(B, U, Uperp, lam_in, lam_perp, filt, Omega[:, :2], j)
    with pytest.raises(DimensionMismatch):
        structural_bound(B, U, Uperp, lam_in[:-1], lam_perp, filt, Omega, j)
    # U^H Omega of row rank k-1: the pseudoinverse stops selecting e_j.
    deficient = np.hstack([U[:, :2]] * 3)
    with pytest.raises(RankDeficient):
        structural_bound(B, U, Uperp, lam_in, lam_perp, filt, deficient, j)


def test_tan_angle_basics():
    rng = make_rng(74)
    Z = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    inplane = Z @ np.array([1.0, -2.0, 0.5])
    assert tan_angle_B(inplane, Z) < 1e-12
    coef = rng.standard_normal(3)
    ortho = rng.standard_normal(12)
    ortho -= Z @ (Z.T @ ortho)
    # Numerically orthogonal input: astronomically large but finite.
    assert tan_angle_B(ortho, Z) > 1e10
    # Exactly orthogonal input: infinite.
    assert tan_angle_B(np.eye(3)[:, 0], np.eye(3)[:, 1:2]) == math.inf
    mixed = Z @ coef + 0.3 * ortho / np.linalg.norm(ortho)
    t = tan_angle_B(mixed, Z)
    assert abs(t - 0.3 / np.linalg.norm(Z @ coef)) < 1e-10


def test_tan_angle_weighted_geometry():
    # In B-geometry the angle follows the Cholesky-transformed vectors.
    B = np.diag([9.0, 1.0])
    u = np.array([1.0, 1.0])
    Z = np.array([[1.0], [0.0]])
    t = tan_angle_B(u, Z, Bmat=B)
    # L^T u = (3, 1), L^T Z span = e_1: tan = 1/3.
    assert abs(t - 1.0 / 3.0) < 1e-12
    assert abs(tan_angle_B(u, Z) - 1.0) < 1e-12


def test_tan_angle_validation():
    rng = make_rng(75)
    Z = rng.standard_normal((8, 2))
    with pytest.raises(OutOfRange):
        tan_angle_B(np.zeros(8), Z)
    with pytest.raises(DimensionMismatch):
        tan_angle_B(np.ones(7), Z)
    Zdef = np.hstack([Z[:, :1], Z[:, :1]])
    with pytest.raises(DegenerateSubspace):
        tan_angle_B(np.ones(8), Zdef)
