"""Dense linear-algebra kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` values in C (row-major) order, real or
complex; "transpose" always means conjugate transpose in the complex case.
The functions here are thin wrappers over LAPACK (via numpy/scipy) that add
the truncation rules and the error conventions the rest of the library
relies on. All functions are pure.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import BtilNotSPD, KroneigError, NotPositiveDefinite, OutOfRange

__all__ = [
    "qr_econ",
    "qr_unless_wide",
    "svd_trunc",
    "svd_trunc_left",
    "cholesky",
    "eig_sym_gen",
    "two_norm",
]


def qr_econ(M):
    """Economy QR factorization M = Q R with Q of orthonormal columns.

    Parameters
    ----------
    M : (m, n) array_like, m >= n
    Returns
    -------
    Q : (m, n) ndarray with Q^H Q = I
    R : (n, n) upper triangular ndarray

    Rank-deficient input yields an R with small diagonal entries; callers
    that care must inspect R themselves.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] < M.shape[1]:
        raise OutOfRange(f"qr_econ expects a tall matrix, got shape {M.shape}")
    Q, R = np.linalg.qr(M, mode="reduced")
    return Q, R


def _lapack(name, like, *args, **kwargs):
    """Call a LAPACK routine after its workspace query; info != 0 raises.

    Returns the routine's outputs without ``work`` and ``info``.
    """
    (func,) = scipy.linalg.get_lapack_funcs((name,), like)
    lwork = int(func(*args, lwork=-1, **kwargs)[-2][0].real)
    *out, _, info = func(*args, lwork=max(lwork, 1), **kwargs)
    if info != 0:
        raise KroneigError(f"LAPACK {name} returned info={info}")
    return out


def qr_unless_wide(M):
    """Triangular factor of M and the map back to M's column space.

    Returns ``(lift, R)`` with ``M = lift(R)``. For a matrix with fewer
    columns than rows, ``M = Q R`` is the reduced QR and ``lift(X)`` is
    ``Q @ X``. Q is never formed: the Householder reflectors of LAPACK
    ``geqrf`` are kept and ``lift`` applies them (``ormqr``/``unmqr``) to
    the small X alone. A matrix with at least as many columns as rows would
    only get a square unitary Q back, so it skips the factorization: R is M
    itself and ``lift`` the identity. A small left factor X of R (say, its
    left singular vectors) becomes the matching factor of M as ``lift(X)``,
    a C-ordered array of dtype ``result_type(R, X)`` (R is in double
    precision).
    """
    M = np.asarray(M)
    m, k = M.shape
    if k >= m:
        return (lambda X: X), M
    M = M.astype(np.promote_types(M.dtype, np.float64), copy=False)
    qr, tau = _lapack("geqrf", (M,), M)
    R = np.triu(qr[:k])

    def lift(X):
        X = np.asarray(X)
        X = X.astype(np.result_type(qr, X), copy=False)
        if X.shape[1] == 0 or k == 0:
            return np.zeros((m, X.shape[1]), dtype=X.dtype)
        # (Q X)^T = X^T Q^T: apply the reflectors from the right to a
        # Fortran-ordered X^T padded to m columns; the transpose of the
        # result is then C-ordered with no copy.
        if np.iscomplexobj(qr):
            # unmqr applies Q^H only: X^H Q^H = ((Q X)^T)^*
            C = np.zeros((X.shape[1], m), dtype=X.dtype, order="F")
            C[:, :k] = X.conj().T
            (C,) = _lapack("unmqr", (qr,), b"R", b"C", qr, tau, C, overwrite_c=1)
            return np.conjugate(C, out=C).T
        # real reflectors: a complex X goes in as its interleaved real view
        Xr = np.ascontiguousarray(X).view(qr.dtype)
        C = np.zeros((Xr.shape[1], m), dtype=qr.dtype, order="F")
        C[:, :k] = Xr.T
        (C,) = _lapack("ormqr", (qr,), b"R", b"T", qr, tau, C, overwrite_c=1)
        return C.T.view(X.dtype)

    return lift, R


def svd_trunc(M, tol=0.0, r_max=None):
    """Truncated SVD with a relative tail-energy cut.

    Returns ``(U, s, Vh)`` with ``M ~ (U * s) @ Vh`` where the retained rank
    r is the smallest value such that the discarded tail satisfies
    ``sqrt(sum_{i>r} s_i^2) <= tol * ||s||_2``, then capped at ``r_max``.
    Singular values are nonincreasing; ties at the threshold are resolved by
    index order, so the result is deterministic. ``tol=0`` keeps every
    nonzero singular value (an exactly zero matrix yields rank 0).
    """
    M = np.asarray(M)
    if tol < 0:
        raise OutOfRange("svd_trunc: tol must be >= 0")
    if r_max is not None and r_max < 1:
        raise OutOfRange("svd_trunc: r_max must be >= 1")
    kmax = min(M.shape)
    if r_max is None:
        r_max = kmax
    if kmax == 0:
        return (
            np.zeros((M.shape[0], 0), dtype=M.dtype),
            np.zeros(0),
            np.zeros((0, M.shape[1]), dtype=M.dtype),
        )
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    # suffix[r] = sum_{i >= r} s_i^2, so the cut rule reads
    # sqrt(suffix[r]) <= tol * sqrt(suffix[0])
    sq = s * s
    suffix = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
    thresh = tol * np.sqrt(suffix[0])
    r = int(np.searchsorted(-np.sqrt(suffix), -thresh))
    r = min(r, r_max, kmax)
    return U[:, :r], s[:r], Vh[:r]


def svd_trunc_left(M, tol=0.0, r_max=None):
    """Left half ``(U, s)`` of ``svd_trunc(M, tol, r_max)``: same cut rule,
    rank and errors.

    A wide M (fewer rows than columns) is reduced to its square triangular
    factor first: with ``M^H = Q R``, M = R^H Q^H has the left singular
    vectors and singular values of R^H, so ``svd_trunc`` runs on the m x m
    matrix R^H instead of the m x n M. Householder QR is backward stable,
    so the singular values stay accurate to eps * ||M|| (a Gram matrix
    M M^H would square the spectrum and lose everything below
    sqrt(eps) * ||M||). Other shapes go to ``svd_trunc`` directly.
    """
    M = np.asarray(M)
    if 0 < M.shape[0] < M.shape[1]:
        M = np.linalg.qr(M.conj().T, mode="r").conj().T
    U, s, _ = svd_trunc(M, tol, r_max)
    return U, s


def cholesky(G):
    """Lower Cholesky factor L with L L^H = G for Hermitian positive
    definite G.

    Raises
    ------
    NotPositiveDefinite
        when the factorization fails.
    """
    G = np.asarray(G)
    try:
        return scipy.linalg.cholesky(G, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def eig_sym_gen(Atil, Btil, want):
    """Smallest eigenpairs of the Hermitian pencil (Atil, Btil).

    Solves ``Atil C = Btil C diag(Theta)`` for the ``want`` algebraically
    smallest eigenvalues, Btil Hermitian positive definite. Eigenvalues come
    back ascending and real; C is Btil-orthonormal (C^H Btil C = I).
    """
    Atil = np.asarray(Atil)
    Btil = np.asarray(Btil)
    k = Atil.shape[0]
    if not (1 <= want <= k):
        raise OutOfRange(f"eig_sym_gen: want={want} outside 1..{k}")
    try:
        theta, C = scipy.linalg.eigh(Atil, Btil, subset_by_index=[0, want - 1])
    except scipy.linalg.LinAlgError as exc:
        raise BtilNotSPD(str(exc)) from exc
    return theta, C


def two_norm(M):
    """Spectral norm (largest singular value); 0 for an empty matrix."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))
