"""Typed Kronecker factors against their dense matrices."""

import numpy as np
import pytest
import scipy.sparse

from conftest import make_rng
from kroneig.blr import KroneckerSumOperator
from kroneig.errors import SingularShiftedSolve, StructureMismatch
from kroneig.factors import Banded, Dense, Identity, as_factor
from kroneig.problems import (
    assemble_dense,
    gershgorin_interval,
    make_spec,
    schrodinger_kron,
    shift_operator,
    square_operator,
)

N = 9


def _band(rng, bw, complex_=False):
    diags = [rng.standard_normal(N - abs(k)) for k in range(-bw, bw + 1)]
    if complex_:
        diags = [d + 1j * rng.standard_normal(d.size) for d in diags]
    return Banded(scipy.sparse.diags_array(diags, offsets=range(-bw, bw + 1)))


def _cases():
    rng = make_rng(90)
    return {
        "identity": Identity(N),
        "diagonal": Banded(scipy.sparse.diags_array(rng.standard_normal(N))),
        "banded-1": _band(rng, 1),
        "banded-2": _band(rng, 2),
        "banded-complex": _band(rng, 1, complex_=True),
        "dense": Dense(rng.standard_normal((N, N))),
        "dense-complex": Dense(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_factor_matches_its_dense_matrix(name):
    f = _cases()[name]
    M = f.dense()
    assert M.shape == f.shape == (N, N) and np.asarray(f).dtype == f.dtype
    rng = make_rng(91)
    X = rng.standard_normal((N, 3))
    for B in (X, X + 1j * rng.standard_normal((N, 3))):
        assert np.allclose(f @ B, M @ B, rtol=0.0, atol=1e-13)
    assert np.array_equal(f.T.dense(), M.T)
    assert np.array_equal(f.conj().dense(), M.conj())
    assert np.allclose(gershgorin_interval(f), gershgorin_interval(M), rtol=1e-14)
    sigma = 0.3 + 0.7j
    solve = f.shifted_solver(sigma)
    for B in (X, X + 1j * rng.standard_normal((N, 3))):
        Y = solve(B)
        assert np.linalg.norm((M - sigma * np.eye(N)) @ Y - B) <= 1e-12 * np.linalg.norm(B)
    # eigh diagonalizes the Hermitian part, a banded one in its band, and
    # refuses the factor itself unless it is Hermitian
    h = f + f.conj().T
    assert type(h) is (Dense if isinstance(f, Dense) else Banded)
    lam, Q = h.eigh()
    assert np.allclose(lam, np.linalg.eigvalsh(h.dense()), rtol=0.0, atol=1e-12)
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(N)) <= 1e-13
    assert np.linalg.norm(h.dense() @ Q - Q * lam) <= 1e-12 * np.linalg.norm(h.dense())
    if not np.array_equal(h.dense(), 2 * M):
        with pytest.raises(StructureMismatch):
            f.eigh()


def test_factor_algebra_stays_structured():
    rng = make_rng(92)
    K, eye = _band(rng, 1), Identity(N)
    D = Banded(scipy.sparse.diags_array(rng.standard_normal(N)))
    X = rng.standard_normal((N, 2))
    assert eye @ K is K and K @ eye is K and eye @ X is X
    KK = K @ K
    assert type(KK) is Banded and KK.bw == 2
    assert np.allclose(KK.dense(), K.dense() @ K.dense(), rtol=0.0, atol=1e-13)
    s = K + 0.5 * eye + D
    assert type(s) is Banded and s.bw == 1
    assert np.array_equal(s.dense(), K.dense() + 0.5 * np.eye(N) + D.dense())
    assert type(-K) is Banded and np.array_equal((-K).dense(), -K.dense())
    # anything met with a dense factor is dense
    M = Dense(rng.standard_normal((N, N)))
    assert type(M @ K) is Dense and type(K + M) is Dense
    assert np.allclose((M @ K).dense(), M.dense() @ K.dense(), rtol=0.0, atol=1e-13)
    # a dia_array's entries outside the matrix are dropped
    ones = np.ones((3, N))
    padded = Banded(scipy.sparse.dia_array((ones, [1, 0, -1]), shape=(N, N)))
    tridiag = scipy.sparse.diags_array([1.0, 1.0, 1.0], offsets=[1, 0, -1], shape=(N, N))
    assert padded.equals(Banded(tridiag))
    # a scaled identity is no longer the identity; zero diagonals trim away
    assert type(2.0 * eye) is Banded
    assert (0.0 * K).bw == 0 and (K @ (0.0 * D)).equals(0.0 * D)


def test_as_factor_classifies_raw_arrays_once():
    rng = make_rng(93)
    T = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
    cases = [(np.eye(N), Identity), (np.diag(rng.standard_normal(N)), Banded),
             (T, Banded), (rng.standard_normal((N, N)), Dense)]
    for M, kind in cases:
        f = as_factor(M)
        assert type(f) is kind and np.array_equal(f.dense(), M)
        assert as_factor(f) is f
    assert as_factor(T).bw == 1
    A = KroneckerSumOperator(((np.eye(N), T), (T, np.eye(N))))
    assert [type(t) for pair in A.terms for t in pair] == [Identity, Banded, Banded, Identity]
    assert KroneckerSumOperator(A.terms).terms[0][1] is A.terms[0][1]


def test_shifted_solve_singular_shift():
    # An exactly singular shifted factor raises the typed error when it is
    # factored, without a LinAlgWarning (pyproject makes those errors).
    T = 2.0 * np.eye(12) - np.eye(12, k=1) - np.eye(12, k=-1)
    T[5, 4:7] = 0.0
    d = np.arange(1.0, 6.0)
    singular = [
        (Dense(np.zeros((4, 4))), 0.0),
        (as_factor(T), 0.0),
        (Identity(5), 1.0),
        (Banded(scipy.sparse.diags_array(d)), 3.0),
    ]
    for f, sigma in singular:
        with pytest.raises(SingularShiftedSolve):
            f.shifted_solver(sigma)


@pytest.mark.parametrize("build", ["schrodinger", "shifted", "squared"])
def test_split_returns_typed_factors(build):
    A = schrodinger_kron(make_spec("mathieu", 10))
    bw = 1
    if build != "schrodinger":
        A = shift_operator(A, -2.0, require_structure=True)
    if build == "squared":
        A, bw = square_operator(A), 2
    K_hat, K_til, couplings = A.split
    assert type(K_hat) is Banded and type(K_til) is Banded
    assert K_hat.bw == K_til.bw == bw
    assert all(type(t) is Banded for pair in couplings for t in pair)
    out = np.kron(np.eye(10), K_hat.dense()) + np.kron(K_til.dense(), np.eye(10))
    out += sum(np.kron(til.dense(), hat.dense()) for til, hat in couplings)
    ref = assemble_dense(A)
    assert np.allclose(out, ref, rtol=0.0, atol=1e-13 * np.linalg.norm(ref))
