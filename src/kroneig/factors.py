"""One-dimensional factors of Kronecker-sum terms, typed by structure.

On a tensor-product grid every 1-D factor is an identity, a diagonal or a
band matrix, so a factor is held as ``Identity``, ``Banded`` (LAPACK band
storage; a diagonal has bandwidth 0) or the ``Dense`` fallback. Each
offers ``@`` on n x r blocks and on factors, ``+``, scalar ``*``, ``.T``,
``conj()``, ``shifted_solver(sigma)``, which factors M - sigma I once,
``eigh()``, which diagonalizes a Hermitian factor, and ``dense()`` (also
``np.asarray``) for oracles. Sums and products of
structured factors stay structured; with a dense factor they are dense.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatch, SingularShiftedSolve, StructureMismatch

__all__ = ["Factor", "Identity", "Banded", "Dense", "as_factor"]


class Factor:
    """Arithmetic shared by the factor types; ``matrix`` is the operand
    handed to numpy and scipy, an ndarray or a scipy ``dia_array``."""

    def __init__(self, matrix):
        self.matrix = matrix

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def dtype(self):
        return self.matrix.dtype

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.dense(), dtype=dtype)

    def __matmul__(self, other):
        if isinstance(other, Identity):
            return self
        if isinstance(other, Factor):
            return _wrap(self.matrix @ other.matrix)
        return self.matrix @ other

    def __add__(self, other):
        return _wrap(self.matrix + other.matrix) if isinstance(other, Factor) else NotImplemented

    def __mul__(self, c):
        return _wrap(c * self.matrix) if np.isscalar(c) else NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return -1.0 * self

    @property
    def T(self):
        return _wrap(self.matrix.T)

    def conj(self):
        return _wrap(self.matrix.conj()) if np.iscomplexobj(self) else self


class Dense(Factor):
    """An n x n ndarray, for factors without usable structure."""

    def dense(self):
        return self.matrix

    def equals(self, other):
        return type(other) is Dense and np.array_equal(self.matrix, other.matrix)

    def shifted_solver(self, sigma):
        """Solve closure for (M - sigma I) Y = B, LU-factored here once."""
        M = self.matrix - sigma * np.eye(self.shape[0])
        # getrf itself, not lu_factor: lu_factor reports an exactly zero
        # pivot (info > 0) as a LinAlgWarning before returning the factors
        (getrf,) = scipy.linalg.get_lapack_funcs(("getrf",), (M,))
        try:
            lu, piv, info = getrf(np.asarray_chkfinite(M))
        except ValueError as exc:
            raise SingularShiftedSolve(str(exc)) from exc
        if info != 0:
            raise SingularShiftedSolve("shifted matrix is exactly singular")
        return lambda B: scipy.linalg.lu_solve((lu, piv), B)

    def eigh(self):
        """(lam, Q) with M = Q diag(lam) Q^H, lam ascending, by dense eigh;
        StructureMismatch unless M is Hermitian."""
        if not np.allclose(self.matrix, self.matrix.conj().T, rtol=1e-12, atol=1e-12):
            raise StructureMismatch("factor is not Hermitian")
        return scipy.linalg.eigh(self.matrix)


class Banded(Factor):
    """Band matrix in LAPACK band storage, ab[bw + i - j, j] = M[i, j].

    Built from anything ``scipy.sparse.dia_array`` takes. ab has 2 bw + 1
    rows, offsets bw down to -bw, where bw is the farthest nonzero
    diagonal and the entries outside the matrix are zero, so equal
    matrices have equal ab; ``matrix`` is the dia_array over ab.
    """

    def __init__(self, S):
        S = scipy.sparse.dia_array(S)
        n, offsets = S.shape[0], S.offsets
        data = np.zeros((offsets.size, n), dtype=S.dtype)
        width = min(S.data.shape[1], n)
        data[:, :width] = S.data[:, :width]
        rows = np.arange(n) - offsets[:, None]
        data[(rows < 0) | (rows >= n)] = 0
        self.bw = bw = int(np.max(np.abs(offsets[data.any(axis=1)]), initial=0))
        keep = np.abs(offsets) <= bw
        self.ab = np.zeros((2 * bw + 1, n), dtype=S.dtype)
        self.ab[bw - offsets[keep]] = data[keep]
        band = np.arange(bw, -bw - 1, -1)
        super().__init__(scipy.sparse.dia_array((self.ab, band), shape=(n, n)))

    def dense(self):
        return self.matrix.toarray()

    def equals(self, other):
        return type(other) is type(self) and np.array_equal(self.ab, other.ab)

    def shifted_solver(self, sigma):
        """Solve closure for (M - sigma I) Y = B, band-LU-factored once."""
        bw = self.bw
        lu = np.zeros((3 * bw + 1, self.shape[0]), dtype=np.result_type(self.ab, sigma))
        lu[bw:] = self.ab
        lu[2 * bw] -= sigma
        (gbtrf,) = scipy.linalg.get_lapack_funcs(("gbtrf",), (lu,))
        lu, piv, info = gbtrf(lu, bw, bw)
        if info != 0:
            raise SingularShiftedSolve("shifted matrix is exactly singular")

        def solve(B):
            (gbtrs,) = scipy.linalg.get_lapack_funcs(("gbtrs",), (lu, B))
            return gbtrs(lu, bw, bw, B, piv)[0]

        return solve

    def eigh(self):
        """(lam, Q) with M = Q diag(lam) Q^H, lam ascending, by the band
        eigensolver on the lower band; StructureMismatch unless the band is
        Hermitian."""
        if not np.allclose(self.ab, self.T.conj().ab, rtol=1e-12, atol=1e-12):
            raise StructureMismatch("factor is not Hermitian")
        return scipy.linalg.eig_banded(self.ab[self.bw :], lower=True)


class Identity(Banded):
    """The n x n identity; ``@`` returns its operand itself."""

    def __init__(self, n):
        super().__init__(scipy.sparse.eye_array(n))

    def __matmul__(self, other):
        return other


def _wrap(matrix):
    return Dense(matrix) if isinstance(matrix, np.ndarray) else Banded(matrix)


def as_factor(M):
    """A factor as it is, or a square array classified once: the identity,
    banded while its band storage is no larger than M, else dense."""
    if isinstance(M, Factor):
        return M
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"as_factor: {M.shape} is not a square matrix")
    rows, cols = np.nonzero(M)
    bw = int(np.max(np.abs(rows - cols), initial=0))
    if bw == 0 and np.all(np.diagonal(M) == 1):
        return Identity(M.shape[0])
    return Dense(M) if 2 * bw + 1 > M.shape[0] else Banded(M)
