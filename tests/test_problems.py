"""Tensor-grid Schrodinger problem generators and symbolic transforms."""

import numpy as np
import pytest

from kroneig.blr import KroneckerSumOperator
from kroneig.errors import OutOfRange, SizeOverflow, StructureMismatch
from kroneig.problems import (
    POTENTIALS,
    SchrodingerSpec,
    assemble_dense,
    assemble_sparse,
    gershgorin_interval,
    laplacian_1d,
    laplacian_1d_eigenvalues,
    make_spec,
    schrodinger_kron,
    shift_operator,
    square_operator,
)


def test_registry_and_unknown_potential():
    assert set(POTENTIALS) == {"sum-of-squares", "gaussian-well", "mathieu", "zero"}
    with pytest.raises(OutOfRange) as err:
        make_spec("harmonic", 10)
    # The message names the registered potentials.
    assert "sum-of-squares" in str(err.value)


def test_spec_validation_and_grid():
    with pytest.raises(OutOfRange):
        make_spec("zero", 1)
    with pytest.raises(OutOfRange):
        SchrodingerSpec(1.0, 0.0, 10)
    spec = make_spec("zero", 9)
    assert spec.h == pytest.approx(0.1)
    assert np.allclose(spec.grid, 0.1 * np.arange(1, 10))
    # Interval overrides are honored.
    spec2 = make_spec("zero", 9, a=-2.0, b=2.0)
    assert (spec2.a, spec2.b) == (-2.0, 2.0)


def test_laplacian_eigenvalues_closed_form():
    spec = make_spec("zero", 25)
    T = laplacian_1d(spec)
    ref = np.sort(np.linalg.eigvalsh(-T))
    assert np.allclose(laplacian_1d_eigenvalues(spec), ref, atol=1e-9)


@pytest.mark.parametrize("name", ["sum-of-squares", "gaussian-well", "mathieu"])
def test_potential_decomposition_pointwise(name):
    # The registered split f(x) + f(y) + sign g(x) g(y) reproduces the
    # target potential on the grid.
    spec = make_spec(name, 40)
    x = spec.grid
    V = spec.potential_on_grid()
    X, Y = x[:, None], x[None, :]
    if name == "sum-of-squares":
        ref = (X**2 + Y**2 - X * Y) / 2.0
    elif name == "gaussian-well":
        ref = -50.0 * np.exp(-(X**2) - Y**2)
    else:
        ref = np.cos(X) + np.cos(Y) - 6.0 * np.exp(-(X**2) - Y**2)
    assert np.max(np.abs(V - ref)) < 1e-13


def test_schrodinger_kron_matches_dense_stencil():
    spec = make_spec("sum-of-squares", 12)
    A = schrodinger_kron(spec)
    assert A.s == 3
    dense = assemble_dense(A)
    # Direct 2D five-point assembly plus the diagonal potential.
    n = spec.n
    T = laplacian_1d(spec)
    lap2d = np.kron(np.eye(n), T) + np.kron(T, np.eye(n))
    V = spec.potential_on_grid()
    # vec is column-major: index i_til * n + i_hat pairs (x_hat, y_til).
    ref = -lap2d + np.diag(V.reshape(-1, order="F"))
    assert np.allclose(dense, ref, atol=1e-11)
    assert np.allclose(dense, dense.T, atol=1e-11)


def test_zero_potential_sum_spectrum():
    spec = make_spec("zero", 20)
    dense = assemble_dense(schrodinger_kron(spec))
    mu = laplacian_1d_eigenvalues(spec)
    ref = np.sort((mu[:, None] + mu[None, :]).ravel())
    assert np.allclose(np.sort(np.linalg.eigvalsh(dense)), ref, atol=1e-8)


def test_shift_operator_keeps_term_count():
    spec = make_spec("mathieu", 10)
    A = schrodinger_kron(spec)
    S = shift_operator(A, 2.5, require_structure=True)
    assert S.s == A.s
    assert np.allclose(
        assemble_dense(S), assemble_dense(A) + 2.5 * np.eye(A.n), atol=1e-11
    )
    assert shift_operator(A, 0.0) is A


def test_shift_operator_fallback_and_structure_error():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3))
    A = type(schrodinger_kron(make_spec("zero", 3)))(((M, M),))
    with pytest.raises(StructureMismatch):
        shift_operator(A, 1.0, require_structure=True)
    S = shift_operator(A, 1.0)
    assert S.s == 2
    assert np.allclose(assemble_dense(S), assemble_dense(A) + np.eye(9), atol=1e-12)


def _split_cases():
    A = schrodinger_kron(make_spec("sum-of-squares", 5))
    rng = np.random.default_rng(6)
    M = rng.standard_normal((5, 5))
    K = A.terms[0][1]
    eye = np.eye(5)
    no_pair = KroneckerSumOperator(((M, M.T),))
    return {
        # id: (operator, K_hat present, K_til present, coupling count)
        "schrodinger": (A, True, True, 1),
        "shifted": (shift_operator(A, 2.5), True, True, 1),
        "shift-appended": (shift_operator(no_pair, 1.5), True, False, 1),
        "squared": (square_operator(shift_operator(A, -4.0)), True, True, 4),
        "kron-eye-eye": (KroneckerSumOperator(((eye, eye), (K, eye), (M, M))), True, True, 1),
        "no-identity": (no_pair, False, False, 1),
    }


@pytest.mark.parametrize("case", sorted(_split_cases()))
def test_split_reassembles_operator(case):
    # I (x) K_hat + K_til (x) I + sum(couplings) is the operator itself.
    A, has_hat, has_til, n_couplings = _split_cases()[case]
    K_hat, K_til, couplings = A.split
    assert (K_hat is not None, K_til is not None) == (has_hat, has_til)
    assert len(couplings) == n_couplings
    out = sum(np.kron(til, hat) for til, hat in couplings)
    if K_hat is not None:
        out = out + np.kron(np.eye(A.n_til), K_hat)
    if K_til is not None:
        out = out + np.kron(K_til, np.eye(A.n_hat))
    ref = assemble_dense(A)
    assert np.allclose(out, ref, rtol=0.0, atol=1e-13 * np.linalg.norm(ref))
    assert A.split is A.split


def test_square_operator_matches_dense_square():
    spec = make_spec("sum-of-squares", 8)
    A = shift_operator(schrodinger_kron(spec), -4.0, require_structure=True)
    Asq = square_operator(A)
    ref = assemble_dense(A) @ assemble_dense(A)
    assert np.allclose(assemble_dense(Asq), ref, atol=1e-8 * np.linalg.norm(ref))
    # Merging keeps the term count far below the raw s^2 products.
    assert Asq.s <= 2 * A.s + 1


def test_square_operator_term_cap():
    spec = make_spec("zero", 4)
    A = schrodinger_kron(spec)
    extra = tuple(list(A.terms) + [(np.eye(4), np.eye(4))] * 3)
    with pytest.raises(OutOfRange):
        square_operator(type(A)(extra))


def test_gershgorin_contains_spectrum():
    spec = make_spec("mathieu", 30)
    A = schrodinger_kron(spec)
    for til, hat in A.terms:
        for M in (til, hat):
            lo, hi = gershgorin_interval(M)
            lam = np.linalg.eigvalsh(0.5 * (M + M.T))
            assert lo <= lam[0] + 1e-12 and lam[-1] <= hi + 1e-12


def test_assemble_dense_cap():
    spec = make_spec("zero", 70)
    with pytest.raises(SizeOverflow):
        assemble_dense(schrodinger_kron(spec), cap_side=1000)



def test_assemble_sparse_matches_dense():
    # the sparse assembly is the dense oracle's matrix, in CSC, for typed
    # factors and for a term with a dense factor
    A = schrodinger_kron(make_spec("mathieu", 9))
    mixed = KroneckerSumOperator(tuple(A.terms) + ((np.ones((9, 9)), np.eye(9)),))
    for op in (A, mixed):
        S = assemble_sparse(op)
        assert S.format == "csc"
        assert np.array_equal(S.toarray(), assemble_dense(op))
