"""Rational filter, contour eigensolver, and subspace-angle diagnostics."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import bound_instance, make_rng, node_residual, sparse_node_solution
from kroneig.contour import (
    NodeSolverConfig,
    RationalFilter,
    RecompressConfig,
    contour_eigensolve,
    filter_eval,
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
from kroneig.sylvester import EigenbasisPreconditioner, TensorGalerkin


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


def test_contour_complex_hermitian_data():
    # Complex Hermitian factors make the node family complex: every node is
    # solved (no conjugate fold) on a complex basis, end to end.
    K_hat, _, couplings = schrodinger_kron(make_spec("sum-of-squares", 16)).split
    K = K_hat.dense() + 0.5j * (np.eye(16, k=1) - np.eye(16, k=-1))
    eye = np.eye(16)
    A = KroneckerSumOperator(((eye, K), (K.conj(), eye)) + couplings)
    lam = np.linalg.eigvalsh(assemble_dense(A))
    center = 0.5 * (lam[1] + lam[3])
    radius = 0.5 * (lam[3] - lam[1]) + 0.3 * (lam[4] - lam[3])
    sk = draw_khatri_rao(16, 16, 5, seed=1)
    res = contour_eigensolve(A, trapezoid_circle(center, radius, 32), sk,
                             NodeSolverConfig(tol=1e-10, seed=0))
    d = res.diagnostics
    assert d["nodes_solved"] == list(range(32)) and not d["conjugate_economy"]
    assert d["failures"] == [] and all(r["converged"] for r in d["node_reports"])
    inside = np.sort(res.ritz_values[res.inside_flags])
    assert len(inside) == 3
    assert np.max(np.abs(inside - lam[1:4])) < 1e-10
    assert np.max(res.residual_norms[res.inside_flags]) <= 1e-6


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
    """Build the contour's basis from one cell, column 0 at the first node,
    before that node's cells are solved on it (with weight 0, so that cell
    is accumulated once, with the others)."""
    enrich = TensorGalerkin.enrich

    def first_column_first(self, cells, pmap=map):
        if self.ranks == (0, 0):
            z, j, _ = cells[0]
            enrich(self, [(z, j, 0.0)], pmap)
        return enrich(self, cells, pmap)

    monkeypatch.setattr(TensorGalerkin, "enrich", first_column_first)


def _coarse_cut(monkeypatch, cut):
    """Give the contour's basis family a fixed, coarser cut."""

    class Coarse(TensorGalerkin):
        def __init__(self, *args):
            super().__init__(*args)
            self.cut = cut

    monkeypatch.setattr(contour, "TensorGalerkin", Coarse)


def _accumulated(monkeypatch):
    """Record each solution the filter accumulates, as (column, weight,
    U Y V^T) on the basis of the moment it is added."""
    seen = []
    accumulate = TensorGalerkin.accumulate

    def recording(self, j, w, Y):
        seen.append((j, w, self.U @ Y @ self.V.T))
        accumulate(self, j, w, Y)

    monkeypatch.setattr(TensorGalerkin, "accumulate", recording)
    return seen


def _dense_residuals(A, filt, sk, seen):
    """{(node, column): (true relative residual, ||x|| / ||b||)} of the
    recorded solutions; a solution's node is the one whose folded filter
    weight it carries."""
    dense = assemble_dense(A)
    upper = [i for i in range(filt.q) if filt.nodes[i].imag > 0]
    weights = {i: 2.0 * complex(filt.weights[i] / (2.0j * np.pi)) for i in upper}
    F = sk.scale * sk.hat
    out = {}
    for j, w, X in seen:
        i = min(upper, key=lambda i: abs(weights[i] - w))
        x = X.reshape(-1, order="F")
        b = np.kron(sk.tilde[:, j], F[:, j])
        assert (i, j) not in out
        bnorm = np.linalg.norm(b)
        out[i, j] = np.linalg.norm(b - (filt.nodes[i] * x - dense @ x)) / bnorm, np.linalg.norm(x) / bnorm
    return out


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
    assert all(r["converged"] for r in res.diagnostics["node_reports"])


def test_contour_threads_deterministic_with_enrichment(monkeypatch):
    # the cells of a round are solved across threads, but their two-term
    # solves grow the basis in column order after the round, so threads=2
    # still gives threads=1's bits; the coarse cut makes later nodes miss
    # and enrich the basis too
    A, _, center, radius = _sum_of_squares_window(48)
    _coarse_cut(monkeypatch, 1e-5)
    res = _threads_agree(A, center, radius)
    d = res.diagnostics
    assert any(r["rounds"] and r["node"] != d["nodes_solved"][0] for r in d["node_reports"])
    assert len(d["basis"]["ranks"]) > 1


def test_contour_ignores_node_seed(monkeypatch):
    # The sketch is the solver's only random input: the node solves draw
    # nothing of their own, so NodeSolverConfig's seed leaves every bit of
    # a run unchanged. At n=190 the coupling images take eig2's dense path,
    # sampled at the test matrix's width of 98 columns
    A = schrodinger_kron(make_spec("sum-of-squares", 190))
    solve_pair = EigenbasisPreconditioner.solve_pair
    widths = []

    def recording(self, z, F, G, tol):
        pair = solve_pair(self, z, F, G, tol)
        widths.append(pair[0].shape[1])
        return pair

    monkeypatch.setattr(EigenbasisPreconditioner, "solve_pair", recording)
    filt = trapezoid_circle(12.606, 9.0, 4)
    sk = draw_khatri_rao(190, 190, 2, seed=1)
    runs = [contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-10, seed=seed))
            for seed in (0, 1)]
    _assert_same_run(*runs)
    assert 98 in widths


def _trained_family(A, nodes, sk, tol):
    """A family whose basis holds the sparse-direct solutions at nodes 0 and 4."""
    F = sk.scale * sk.hat
    family = TensorGalerkin(A, F, sk.tilde, tol)
    sols = [
        sparse_node_solution(A, complex(nodes[i]), F[:, j : j + 1], sk.tilde[:, j : j + 1])
        for i in (0, 4)
        for j in range(sk.ell)
    ]
    family.grow([(X, np.eye(A.n_til)) for X in sols])
    return family


def test_galerkin_cell_matches_sparse_direct():
    # A basis from the two training nodes carries a held-out node: the
    # Galerkin cell reports a true residual at most tol, confirmed densely,
    # and agrees with the sparse-direct solution of the same cell. The
    # residual is read off the basis and its complement, so the inputs also
    # cover a whole-space basis (no complement), an operator without a
    # coupling and complex Hermitian data.
    n, tol = 64, 1e-6
    filt = trapezoid_circle(12.606, 9.0, 16)
    sk = draw_khatri_rao(n, n, 3, seed=1)
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    twist = np.diag(np.full(n - 1, 50.0), 1)
    # i (S - S^T) with S real is Hermitian, and it enters K_hat
    A_complex = KroneckerSumOperator(A.terms + ((np.eye(n), 1j * (twist - twist.T)),))
    trained = _trained_family(A, filt.nodes, sk, tol)
    assert trained.real and trained.ranks[0] < n
    whole = TensorGalerkin(A, sk.scale * sk.hat, sk.tilde, tol)
    whole.grow([(np.eye(n), np.eye(n))])
    assert whole.ranks == (n, n) and whole.Rp_perp.shape[0] == whole.Rq_perp.shape[0] == 0
    # the zero potential without its coupling term, a zero diagonal pair
    A_zero = KroneckerSumOperator(schrodinger_kron(make_spec("zero", n)).terms[:2])
    uncoupled = _trained_family(A_zero, filt.nodes, sk, tol)
    assert uncoupled.H is None and uncoupled.ranks[0] < n
    complex_ = _trained_family(A_complex, filt.nodes, sk, tol)
    assert not complex_.real and complex_.ranks[0] < n
    z = complex(filt.nodes[2])
    for A, family in ((A, trained), (A, whole), (A_zero, uncoupled), (A_complex, complex_)):
        for j in range(3):
            Fj, Gj = family.F[:, j : j + 1], sk.tilde[:, j : j + 1]
            Xref = sparse_node_solution(A, z, Fj, Gj)
            Y, residual, _ = family.solve(z, j)
            X = family.U @ Y @ family.V.T
            assert type(residual) is float and residual <= tol
            rel = node_residual(A, z, X, Fj @ Gj.T)
            assert rel == pytest.approx(residual, rel=1e-3, abs=1e-12)
            assert np.linalg.norm(X - Xref) <= 1e3 * tol * np.linalg.norm(Xref)


def test_galerkin_real_gemms_match_complex_gemms():
    # Real data keeps H, T and the residual's complement blocks real, so
    # their products with a complex Y run as real GEMMs; cast to complex
    # they take numpy's complex GEMM and must give the same cell.
    n, tol = 64, 1e-6
    A = schrodinger_kron(make_spec("sum-of-squares", n))
    filt = trapezoid_circle(12.606, 9.0, 16)
    sk = draw_khatri_rao(n, n, 3, seed=1)
    family = _trained_family(A, filt.nodes, sk, tol)
    z = complex(filt.nodes[2])
    names = ("H", "T", "Rp_perp", "Rq_perp")
    assert not any(np.iscomplexobj(getattr(family, name)) for name in names)
    cells = [family.solve(z, j) for j in range(3)]
    for name in names:
        setattr(family, name, getattr(family, name).astype(complex))
    for j, (Y, residual, steps) in enumerate(cells):
        Yc, residual_c, steps_c = family.solve(z, j)
        assert steps == steps_c
        assert np.linalg.norm(Y - Yc) <= 1e-13 * np.linalg.norm(Yc)
        assert residual == pytest.approx(residual_c, rel=1e-13)


def test_contour_one_column_basis_enriches_at_each_node(monkeypatch):
    # A basis from one cell cannot carry the other columns: their cells
    # miss and grow the basis at their own node, and every cell still ends
    # at the node tolerance, with threads=2 giving threads=1's bits.
    A, lam, center, radius = _sum_of_squares_window(32)
    filt = trapezoid_circle(center, radius, 16)
    sk = draw_khatri_rao(32, 32, 3, seed=1)
    cfg = NodeSolverConfig(tol=1e-8, seed=0)
    _one_column_basis(monkeypatch)
    runs = [contour_eigensolve(A, filt, sk, cfg, threads=t) for t in (1, 2)]
    _assert_same_run(*runs)
    res = runs[0]
    reports = res.diagnostics["node_reports"]
    assert sorted((r["node"], r["column"]) for r in reports) == [
        (i, j) for i in res.diagnostics["nodes_solved"] for j in range(3)
    ]
    first = res.diagnostics["nodes_solved"][0]
    assert [r["rounds"] > 0 for r in reports if r["node"] == first] == [False, True, True]
    assert all(r["converged"] and r["residual"] <= 1e-8 for r in reports)
    # the same filtered subspace as when every column builds the basis
    monkeypatch.undo()
    ref = contour_eigensolve(A, filt, sk, cfg)
    inside = np.sort(res.ritz_values[res.inside_flags])
    assert len(inside) == 3
    assert np.max(np.abs(inside - np.sort(ref.ritz_values[ref.inside_flags]))) < 1e-8


def test_last_round_keeps_directions_above_a_hundredth_of_the_cut(monkeypatch):
    # With a cut 100 times the node tolerance, the rounds at the family's
    # cut stall above the tolerance. The last round keeps the directions
    # above cut / 100 and carries every cell to the tolerance; at the plain
    # cut every cell would stay at 6e-8 to 2e-6.
    A, _, center, radius = _sum_of_squares_window(32)
    tol = 1e-8
    _coarse_cut(monkeypatch, 100 * tol)
    res = contour_eigensolve(A, trapezoid_circle(center, radius, 16),
                             draw_khatri_rao(32, 32, 3, seed=1), NodeSolverConfig(tol=tol, seed=0))
    d = res.diagnostics
    assert d["basis"]["cut"] == 100 * tol
    assert d["basis"]["enrichment_rounds"] >= 3
    assert all(r["converged"] and r["residual"] <= tol for r in d["node_reports"])


def test_node_next_to_spectrum_is_checked(monkeypatch):
    # A node 1e-9 off an eigenvalue: the projected equation is nearly
    # singular there. Every cell reports the true residual of the solution
    # the filter accumulates, and it is converged exactly when that
    # residual is at most tol.
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
    # both sides round at eps ||A|| ||x||, large next to the spectrum
    floor = 100 * np.finfo(float).eps * np.abs(lam).max()
    for j in range(3):
        Y, residual, _ = family.solve(complex(nodes[2]), j)
        x = (family.U @ Y @ family.V.T).reshape(-1, order="F")
        b = np.kron(sk.tilde[:, j], F[:, j])
        true = np.linalg.norm(b - (nodes[2] * x - dense @ x)) / np.linalg.norm(b)
        assert abs(true - residual) <= 1e-2 * true + floor * np.linalg.norm(x) / np.linalg.norm(b)
    seen = _accumulated(monkeypatch)
    res = contour_eigensolve(A, near, sk, NodeSolverConfig(tol=tol, seed=0))
    true = _dense_residuals(A, near, sk, seen)
    reports = res.diagnostics["node_reports"]
    assert sorted(true) == sorted((r["node"], r["column"]) for r in reports)
    for r in reports:
        assert r["converged"] == (r["residual"] <= tol)
        dense_residual, scale = true[r["node"], r["column"]]
        assert abs(dense_residual - r["residual"]) <= 1e-2 * dense_residual + floor * scale


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


def _fail_when(monkeypatch, fails):
    """Make the eig2 solves picked by ``fails(z, F)`` raise a solver error."""
    solve_pair = EigenbasisPreconditioner.solve_pair

    def failing(self, z, F, G, tol):
        if fails(z, F):
            raise SingularShiftedSolve("injected failure")
        return solve_pair(self, z, F, G, tol)

    monkeypatch.setattr(EigenbasisPreconditioner, "solve_pair", failing)


def test_contour_failed_cell_is_degraded_not_fatal(monkeypatch):
    # Failed two-term solves are recorded and add nothing; the run goes on.
    # When column 0's solves fail at the first node, the other columns'
    # seeds still carry that cell to the tolerance. When every solve there
    # fails, the basis stays empty at that node, so its cells accumulate
    # nothing and report the true residual of X = 0, which is 1; their
    # columns are degraded and the next node seeds the basis. The failures
    # are recorded inside the pooled per-cell work, and threads=2 gives
    # threads=1's failures, reports, basis and Ritz pairs.
    spec, _, center, radius = _zero_potential_window(12)
    A = schrodinger_kron(spec)
    filt = trapezoid_circle(center, radius, 8)
    sk = draw_khatri_rao(12, 12, 3, seed=4)
    z0, F0 = complex(filt.nodes[0]), sk.scale * sk.hat[:, :1]
    cfg = NodeSolverConfig(tol=1e-9, seed=0)
    runs = []
    for fails, threads in [(lambda z, F: z == z0 and np.array_equal(F, F0), (1,)),
                           (lambda z, F: z == z0, (1, 2))]:
        _fail_when(monkeypatch, fails)
        runs.append([contour_eigensolve(A, filt, sk, cfg, threads=t) for t in threads])
        monkeypatch.undo()
    (one,), (every, every_threads) = runs
    _assert_same_run(every, every_threads)
    assert every_threads.diagnostics["failures"] == every.diagnostics["failures"]
    first = one.diagnostics["nodes_solved"][0]
    assert one.diagnostics["failures"] == [(first, 0)]
    assert every.diagnostics["failures"] == [(first, j) for j in range(3)]
    for res in (one, every):
        d = res.diagnostics
        bad = {(r["node"], r["column"]): r for r in d["node_reports"] if "error" in r}
        assert sorted(bad) == d["failures"]
        assert all("injected failure" in r["error"] for r in bad.values())
        assert all(r["converged"] == (r["residual"] <= 1e-9) for r in d["node_reports"])
        assert d["degraded_columns"] == sorted(
            {r["column"] for r in d["node_reports"] if not r["converged"]})
        assert len(res.ritz_values) == d["subspace_dim"] > 0
    assert one.diagnostics["degraded_columns"] == [] and one.diagnostics["inside_count"] == 3
    assert every.diagnostics["degraded_columns"] == [0, 1, 2]
    assert all(r["residual"] == 1.0 for r in every.diagnostics["node_reports"] if "error" in r)
    assert every.diagnostics["basis"]["ranks"][0][0] == every.diagnostics["nodes_solved"][1]


def test_training_cells_are_enriched_only_when_coupled():
    # The first node's cells train the basis. Zero potential: the node
    # equation is the two-term one, so the seed round solves them and no
    # other round runs. Sum of squares: the seeds miss the coupling, and
    # at least one round of coupling images carries them to the node
    # tolerance. Later nodes pass on the trained basis.
    spec, _, center, radius = _zero_potential_window(20)
    zero = contour_eigensolve(schrodinger_kron(spec), trapezoid_circle(center, radius, 16),
                              draw_khatri_rao(20, 20, 3, seed=3), NodeSolverConfig(tol=1e-10))
    # (at n=32 the seeds alone span the whole space)
    A, _, center, radius = _sum_of_squares_window(48)
    coupled = contour_eigensolve(A, trapezoid_circle(center, radius, 16),
                                 draw_khatri_rao(48, 48, 3, seed=1), NodeSolverConfig(tol=1e-10))
    assert zero.diagnostics["basis"]["enrichment_rounds"] == 1
    assert coupled.diagnostics["basis"]["enrichment_rounds"] >= 2
    for res in (zero, coupled):
        d = res.diagnostics
        first = d["nodes_solved"][0]
        # one basis, grown at the first node only
        assert [ranks[0] for ranks in d["basis"]["ranks"]] == [first]
        trained = [r for r in d["node_reports"] if r["rounds"]]
        assert [(r["node"], r["column"]) for r in trained] == [(first, j) for j in range(3)]
        assert all(r["converged"] and r["residual"] <= 1e-10 for r in d["node_reports"])


def _stall_after_seeds(monkeypatch, seeds):
    """Make the eig2 solves after the first ``seeds`` return zeros."""
    solve_pair = EigenbasisPreconditioner.solve_pair
    calls = []

    def stalling(self, z, F, G, tol):
        calls.append(z)
        if len(calls) > seeds:
            return np.zeros_like(F), np.zeros_like(G)
        return solve_pair(self, z, F, G, tol)

    monkeypatch.setattr(EigenbasisPreconditioner, "solve_pair", stalling)


def test_stalled_enrichment_reports_true_residuals(monkeypatch):
    # Two-term solves that add nothing after the first node's seeds leave
    # the cells above the node tolerance: each is accumulated with its
    # Galerkin solution and reported unconverged with the true residual of
    # that solution, and its column is flagged degraded.
    A, _, center, radius = _sum_of_squares_window(48)
    _stall_after_seeds(monkeypatch, seeds=3)
    tol = 1e-10
    filt = trapezoid_circle(center, radius, 16)
    sk = draw_khatri_rao(48, 48, 3, seed=1)
    seen = _accumulated(monkeypatch)
    res = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=tol))
    d = res.diagnostics
    assert d["basis"]["enrichment_rounds"] == 1 and d["failures"] == []
    true = _dense_residuals(A, filt, sk, seen)
    reports = d["node_reports"]
    assert sorted(true) == sorted((r["node"], r["column"]) for r in reports)
    missed = [r for r in reports if not r["converged"]]
    assert missed and all(r["residual"] > tol for r in missed)
    assert d["degraded_columns"] == sorted({r["column"] for r in missed})
    for r in reports:
        assert r["converged"] == (r["residual"] <= tol)
        dense_residual, _ = true[r["node"], r["column"]]
        assert dense_residual == pytest.approx(r["residual"], rel=1e-6, abs=1e-12)


def test_assembly_truncates_to_the_rank_cap():
    A, _, center, radius = _sum_of_squares_window(16)
    filt = trapezoid_circle(center, radius, 16)
    sk = draw_khatri_rao(16, 16, 5, seed=1)
    res = contour_eigensolve(A, filt, sk, NodeSolverConfig(tol=1e-10), RecompressConfig(r_max=3))
    assert min(res.diagnostics["assembled_rank_pre"]) > 3
    assert res.diagnostics["assembled_rank_post"] == (3, 3)
    assert res.ritz_vectors.U.shape[1] <= 3 and res.ritz_vectors.V.shape[1] <= 3


def test_contour_rejects_unsupported_input(monkeypatch):
    # The node equation has room for one coupling term and eig2 needs
    # Hermitian factors; both are checked before any node is solved.
    def no_node(*args):
        raise AssertionError("a node was solved")

    monkeypatch.setattr(TensorGalerkin, "enrich", no_node)
    spec, _, center, radius = _zero_potential_window(6)
    A = schrodinger_kron(make_spec("sum-of-squares", 6))
    til_c, hat_c = A.terms[2]
    A2 = KroneckerSumOperator(A.terms + ((hat_c, til_c),))
    K_hat = A.split[0].dense()
    A3 = KroneckerSumOperator(((np.eye(6), K_hat + np.eye(6, k=1)), (K_hat, np.eye(6))))
    filt = trapezoid_circle(center, radius, 8)
    sk = draw_khatri_rao(6, 6, 2, seed=0)
    for bad in (A2, A3):
        with pytest.raises(StructureMismatch):
            contour_eigensolve(bad, filt, sk)


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
