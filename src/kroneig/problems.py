"""Test-problem generators: 2D Schrodinger operators on tensor grids.

The continuous problem -Lap(u) + V(x, y) u = lambda u on [a, b]^2 with
zero Dirichlet boundary, discretized by second-order finite differences on
the n x n interior grid x_i = a + i h, h = (b - a)/(n + 1), becomes a
3-term Kronecker-sum operator

    A = kron(I, K) + kron(K, I) + kron(Vtil, Vhat),

with K = -T + diag(f(x)), T the scaled tridiag(1, -2, 1) Laplacian stencil,
whenever the potential separates as V(x, y) = f(x) + f(y) + sign*g(x)g(y).
The factors are built typed (``factors``): K is ``Banded`` with bandwidth
1, the potential diagonals have bandwidth 0, and the identities are
``Identity``, so no n x n array is formed. The module also provides the
symbolic shift/square transforms used to move interior eigenvalues to the
edge of the spectrum (they keep the factors structured: K^2 has bandwidth
2), Gershgorin interval estimates feeding the ADI shift selection, a
desk-scale dense assembly oracle and the sparse assembly that sparse
direct and shift-invert references factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse

from .blr import KroneckerSumOperator
from .errors import OutOfRange, SizeOverflow, StructureMismatch
from .factors import Banded, Factor, Identity

__all__ = [
    "SchrodingerSpec",
    "POTENTIALS",
    "make_spec",
    "laplacian_1d",
    "laplacian_1d_eigenvalues",
    "schrodinger_kron",
    "shift_operator",
    "square_operator",
    "assemble_dense",
    "assemble_sparse",
    "gershgorin_interval",
]

ASSEMBLE_CAP_SIDE = 4000


@dataclass(frozen=True)
class SchrodingerSpec:
    """Grid and separable potential of one 2D Schrodinger test problem.

    The potential is V(x, y) = f(x) + f(y) + sign * g(x) g(y); g may be
    None for a purely separable (or zero) potential.
    """

    a: float
    b: float
    n: int
    f: object = None
    g: object = None
    sign: float = -1.0

    def __post_init__(self):
        if self.n < 2:
            raise OutOfRange("SchrodingerSpec: n must be >= 2")
        if self.b <= self.a:
            raise OutOfRange("SchrodingerSpec: empty interval")

    @property
    def h(self):
        return (self.b - self.a) / (self.n + 1)

    @property
    def grid(self):
        # interior points only; the boundary values are eliminated
        return self.a + self.h * np.arange(1, self.n + 1)

    def _sample(self, fn):
        if fn is None:
            return np.zeros(self.n)
        vals = np.asarray(fn(self.grid), dtype=float)
        if vals.ndim == 0:
            vals = np.full(self.n, float(vals))
        return vals

    def potential_on_grid(self):
        """Dense (n, n) sampling V(x_i, y_j), row index = x, col index = y."""
        fx = self._sample(self.f)
        gx = self._sample(self.g)
        return fx[:, None] + fx[None, :] + self.sign * gx[:, None] * gx[None, :]


# Registered separable decompositions of the named example potentials.
# Each entry: (a, b, f, g, sign) with V = f(x) + f(y) + sign * g(x) g(y).
POTENTIALS = {
    # V = (x^2 + y^2 - xy) / 2
    "sum-of-squares": (-1.0, 1.0, lambda x: 0.5 * x**2, lambda x: x / np.sqrt(2.0), -1.0),
    # V = -50 exp(-x^2 - y^2)
    "gaussian-well": (-5.0, 5.0, None, lambda x: np.sqrt(50.0) * np.exp(-(x**2)), -1.0),
    # V = cos(x) + cos(y) - 6 exp(-x^2 - y^2)
    "mathieu": (-25.0, 25.0, np.cos, lambda x: np.sqrt(6.0) * np.exp(-(x**2)), -1.0),
    # pure FD Laplacian; spectrum known in closed form
    "zero": (0.0, 1.0, None, None, -1.0),
}


def make_spec(potential, n, a=None, b=None):
    """SchrodingerSpec for one of the registered potentials."""
    if potential not in POTENTIALS:
        raise OutOfRange(
            f"unknown potential {potential!r}; registered: {sorted(POTENTIALS)}"
        )
    a0, b0, f, g, sign = POTENTIALS[potential]
    return SchrodingerSpec(a0 if a is None else a, b0 if b is None else b, n, f, g, sign)


def laplacian_1d(spec):
    """Second-difference matrix T = tridiag(1, -2, 1) / h^2, n x n banded."""
    h2 = spec.h**2
    stencil = scipy.sparse.diags_array(
        [1.0 / h2, -2.0 / h2, 1.0 / h2], offsets=[1, 0, -1], shape=(spec.n, spec.n)
    )
    return Banded(stencil)


def laplacian_1d_eigenvalues(spec):
    """Closed-form eigenvalues of -T, ascending: (4/h^2) sin^2(k pi / (2(n+1)))."""
    k = np.arange(1, spec.n + 1)
    return (4.0 / spec.h**2) * np.sin(k * np.pi / (2.0 * (spec.n + 1))) ** 2


def schrodinger_kron(spec):
    """Three-term Kronecker-sum operator of the separable Schrodinger problem.

    K = -T + diag(f(x)); the coupling term is kron(sign*diag(g), diag(g)).
    The zero-potential eigenvalues are the pairwise sums of the closed-form
    1D values (checked in tests at desk scale).
    """
    K = -laplacian_1d(spec) + Banded(scipy.sparse.diags_array(spec._sample(spec.f)))
    g = Banded(scipy.sparse.diags_array(spec._sample(spec.g)))
    eye = Identity(spec.n)
    return KroneckerSumOperator(((eye, K), (K, eye), (spec.sign * g, g)))


def shift_operator(A, sigma, require_structure=False):
    """Operator A + sigma*I, preserving the Kronecker-sum structure.

    When ``A.split`` has both separable sides, the shift is split evenly
    between them: the result is I (x) (K_hat + (sigma/2) I) + (K_til +
    (sigma/2) I) (x) I plus the coupling terms, so no new term is created.
    Otherwise a term kron(I, sigma*I) is appended, unless
    require_structure is set, in which case StructureMismatch is raised.
    """
    if sigma == 0:
        return A
    K_hat, K_til, couplings = A.split
    eye_til, eye_hat = Identity(A.n_til), Identity(A.n_hat)
    if K_hat is None or K_til is None:
        if require_structure:
            raise StructureMismatch("shift_operator: no kron(I, K) + kron(K, I) pair")
        return KroneckerSumOperator(tuple(A.terms) + ((eye_til, sigma * eye_hat),))
    hat_term = (eye_til, K_hat + 0.5 * sigma * eye_hat)
    til_term = (K_til + 0.5 * sigma * eye_til, eye_hat)
    return KroneckerSumOperator((hat_term, til_term) + couplings)


def square_operator(A):
    """Symbolic square of a Kronecker-sum operator.

    Expands (sum_i kron(T_i, H_i))^2 into the s^2 products
    kron(T_i T_j, H_i H_j), then merges terms sharing an identical left
    factor (summing the right factors) and afterwards terms sharing an
    identical right factor; identical means the same type and the same
    stored values (``equals``). Products stay typed: I K = K and a band
    product adds the bandwidths. The result assembles to
    assemble_dense(A)^2.
    """
    if A.s > 4:
        raise OutOfRange("square_operator: term count must be <= 4")
    raw = [(t1 @ t2, h1 @ h2) for (t1, h1), (t2, h2) in product(A.terms, A.terms)]

    def merge(pairs, key_side):
        out = []
        for til, hat in pairs:
            for idx, (t0, h0) in enumerate(out):
                if key_side == 0 and til.equals(t0):
                    out[idx] = (t0, h0 + hat)
                    break
                if key_side == 1 and hat.equals(h0):
                    out[idx] = (t0 + til, h0)
                    break
            else:
                out.append((til, hat))
        return out

    merged = merge(merge(raw, 0), 1)
    return KroneckerSumOperator(tuple(merged))


def assemble_dense(A, cap_side=ASSEMBLE_CAP_SIDE):
    """Dense n x n assembly of a Kronecker-sum operator (oracle only)."""
    if A.n > cap_side:
        raise SizeOverflow(f"assemble_dense: side {A.n} exceeds cap {cap_side}")
    out = np.zeros((A.n, A.n), dtype=np.result_type(*(t.dtype for p in A.terms for t in p)))
    for til, hat in A.terms:
        out += np.kron(til.dense(), hat.dense())
    return out


def assemble_sparse(A):
    """Sparse CSC assembly of a Kronecker-sum operator, sum of kron(til, hat)."""
    return sum(scipy.sparse.kron(til.matrix, hat.matrix) for til, hat in A.terms).tocsc()


def gershgorin_interval(M):
    """Cheap enclosing interval [lo, hi] for the spectrum of a symmetric M.

    M is an array or a factor; a banded factor is read in its band.
    """
    M = M.matrix if isinstance(M, Factor) else np.asarray(M)
    d = np.real(M.diagonal())
    radii = abs(M).sum(axis=1) - np.abs(d)
    return float(np.min(d - radii)), float(np.max(d + radii))
