"""Block low-rank vector format and its algebra.

A block ``W = (U, Sigma, V)`` encodes ell vectors of length n_hat * n_til,

    w_j = vec(U @ Sigma(j) @ V^H),    j = 0..ell-1,

with shared bases U (n_hat x r_hat), V (n_til x r_til) and per-column cores
Sigma(j) (r_hat x r_til), stored as one (ell, r_hat, r_til) array. vec
stacks matrix columns, so w_j indexed by (i_til * n_hat + i_hat) matches the
Kronecker convention kron(tilde_part, hat_part). For real data V^H is just
V^T; all formulas below use conjugate transposes so complex factors (which
appear once contour-node solutions enter) work unchanged.

Kronecker-sum operators A = sum_i kron(Atil_i, Ahat_i) are kept as pairs
of typed factors (``factors``: identity, banded or dense) and applied to
blocks without ever forming A; an identity factor passes a basis through
untouched. Everything here returns new values; blocks are never mutated
in place.

Truncation comes in two halves: ``fold_bases`` QR-factors the bases and
folds the triangular factors into the cores, losslessly, and ``truncate``
cuts the folded cores (folding first unless the block is already
orthonormal), so one QR can serve both a block's column norms and its cut.

Both eigensolvers end in the Rayleigh-Ritz step defined here once:
``orthonormalize_svd`` (one SVD of the block's cores, never of a Gram),
``rayleigh_ritz_3block`` (project onto up to three stacked blocks, one
operator term at a time, and solve the small pencil) and
``residual_block`` (A W - W diag(theta), on the bases of A W where A's
identity terms already hold W's), whose ``column_norms`` are the reported
residuals. ``EigenResult`` holds what they return.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dense import eig_sym_gen, qr_unless_wide, svd_trunc, svd_trunc_left
from .errors import DimensionMismatch, OutOfRange, SizeOverflow
from .factors import Identity, as_factor

__all__ = [
    "BlockLowRank",
    "KroneckerSumOperator",
    "from_khatri_rao",
    "to_dense",
    "apply_operator",
    "add",
    "block_inner",
    "column_norms",
    "right_multiply",
    "fold_bases",
    "truncate",
    "orthonormalize_svd",
    "rayleigh_ritz_3block",
    "residual_block",
    "EigenResult",
]

DENSE_CAP = 10**7


@dataclass(frozen=True)
class BlockLowRank:
    """Shared-basis low-rank encoding of ell long vectors.

    ``orthonormal`` asserts that U and V both have orthonormal columns
    (truncation establishes it; additions and operator applications lose
    it). ell = 0 (no columns) and r_hat = r_til = 0 (all-zero columns) are
    both legal.
    """

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    orthonormal: bool = False

    def __post_init__(self):
        if self.sigma.ndim != 3:
            raise DimensionMismatch("BlockLowRank: sigma must be (ell, r_hat, r_til)")
        if self.sigma.shape[1] != self.U.shape[1] or self.sigma.shape[2] != self.V.shape[1]:
            raise DimensionMismatch(
                f"BlockLowRank: core {self.sigma.shape} does not match bases "
                f"{self.U.shape}, {self.V.shape}"
            )

    @property
    def n_hat(self):
        return self.U.shape[0]

    @property
    def n_til(self):
        return self.V.shape[0]

    @property
    def r_hat(self):
        return self.U.shape[1]

    @property
    def r_til(self):
        return self.V.shape[1]

    @property
    def ell(self):
        return self.sigma.shape[0]

    @property
    def n(self):
        return self.n_hat * self.n_til

    @property
    def is_complex(self):
        return any(np.iscomplexobj(a) for a in (self.U, self.V, self.sigma))

    @classmethod
    def empty(cls, n_hat, n_til, ell=0, dtype=float):
        """Block of ell all-zero columns (rank 0); ell=0 gives no columns."""
        return cls(
            np.zeros((n_hat, 0), dtype=dtype),
            np.zeros((n_til, 0), dtype=dtype),
            np.zeros((ell, 0, 0), dtype=dtype),
            orthonormal=True,
        )


@dataclass(frozen=True)
class KroneckerSumOperator:
    """Operator A = sum_i kron(Atil_i, Ahat_i) held as factor pairs.

    ``terms`` is a tuple of (Atil_i, Ahat_i) pairs; all tilde factors are
    n_til x n_til, all hat factors n_hat x n_hat. A raw array among them is
    classified here, once (``factors.as_factor``); typed factors are kept
    as they are. The full matrix (size n_til*n_hat per side) is only ever
    assembled by the desk-scale oracle. ``split`` is the one place that
    recovers the separable structure.
    """

    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 1:
            raise DimensionMismatch("KroneckerSumOperator: needs at least one term")
        terms = tuple((as_factor(til), as_factor(hat)) for til, hat in self.terms)
        object.__setattr__(self, "terms", terms)
        n_til, n_hat = self.n_til, self.n_hat
        for til, hat in self.terms:
            if til.shape != (n_til, n_til) or hat.shape != (n_hat, n_hat):
                raise DimensionMismatch("KroneckerSumOperator: inconsistent factor sizes")

    @property
    def s(self):
        return len(self.terms)

    @property
    def n_til(self):
        return self.terms[0][0].shape[0]

    @property
    def n_hat(self):
        return self.terms[0][1].shape[0]

    @property
    def n(self):
        return self.n_til * self.n_hat

    @cached_property
    def split(self):
        """Separable split (K_hat, K_til, couplings) of the operator.

        A = I (x) K_hat + K_til (x) I + sum of kron(til, hat) over the
        (til, hat) pairs in ``couplings``. Terms whose tilde factor is an
        ``Identity`` sum into K_hat, the other terms whose hat factor is one
        into K_til (so a kron(I, I) term counts on the hat side); a side
        without such a term is None. The factor types decide, not their
        values. Computed once per operator.
        """
        K_hat = K_til = None
        couplings = []
        for til, hat in self.terms:
            if isinstance(til, Identity):
                K_hat = hat if K_hat is None else K_hat + hat
            elif isinstance(hat, Identity):
                K_til = til if K_til is None else K_til + til
            else:
                couplings.append((til, hat))
        return K_hat, K_til, tuple(couplings)


def from_khatri_rao(sk):
    """Exact block low-rank form of a Khatri-Rao sketch.

    QR-factors each side (hat = Qh Rh, tilde = Qt Rt) and stores the rank-1
    cores scale * (Rh e_j)(Rt e_j)^T, so the block's columns equal the
    sketch's columns exactly: kron(t_j, h_j) = vec(h_j t_j^T).
    """
    Qh, Rh = np.linalg.qr(sk.hat, mode="reduced")
    Qt, Rt = np.linalg.qr(sk.tilde, mode="reduced")
    # sigma[j] = scale * outer(Rh[:, j], Rt[:, j])
    sigma = sk.scale * (Rh.T[:, :, None] * Rt.T[:, None, :])
    return BlockLowRank(Qh, np.conj(Qt), sigma)


def _dtype(W):
    return complex if W.is_complex else float


def to_dense(W, cap=DENSE_CAP):
    """Materialize the represented (n, ell) matrix; desk-scale oracle only."""
    if W.n * max(W.ell, 1) > cap:
        raise SizeOverflow(f"to_dense: {W.n} x {W.ell} exceeds cap of {cap} entries")
    out = np.zeros((W.n, W.ell), dtype=_dtype(W))
    Vh = W.V.conj().T
    for j in range(W.ell):
        out[:, j] = (W.U @ W.sigma[j] @ Vh).reshape(-1, order="F")
    return out


def apply_operator(A, W):
    """Image of every column under the Kronecker-sum operator.

    New bases stack the per-term images, Uout = [Ahat_1 U, ..., Ahat_s U]
    and Vout = [conj(Atil_1) V, ...], and each core becomes block-diagonal
    with s copies of Sigma(j); ranks grow exactly s-fold. An identity
    factor contributes the basis itself, a banded one an O(n r) product.
    """
    if A.n_hat != W.n_hat or A.n_til != W.n_til:
        raise DimensionMismatch(
            f"apply_operator: operator grid ({A.n_hat}, {A.n_til}) "
            f"vs block ({W.n_hat}, {W.n_til})"
        )
    s = A.s
    Uout = np.hstack([hat @ W.U for _, hat in A.terms])
    Vout = np.hstack([til.conj() @ W.V for til, _ in A.terms])
    rh, rt = W.r_hat, W.r_til
    dtype = np.result_type(W.sigma.dtype, *(t.dtype for pair in A.terms for t in pair))
    sigma = np.zeros((W.ell, s * rh, s * rt), dtype=dtype)
    for i in range(s):
        sigma[:, i * rh : (i + 1) * rh, i * rt : (i + 1) * rt] = W.sigma
    return BlockLowRank(Uout, Vout, sigma)


def add(W1, W2):
    """Columnwise sum; bases concatenate, cores go block-diagonal."""
    if (W1.n_hat, W1.n_til) != (W2.n_hat, W2.n_til):
        raise DimensionMismatch("add: blocks live on different grids")
    if W1.ell != W2.ell:
        raise DimensionMismatch(f"add: column counts differ ({W1.ell} vs {W2.ell})")
    U = np.hstack([W1.U, W2.U])
    V = np.hstack([W1.V, W2.V])
    dtype = np.result_type(W1.sigma.dtype, W2.sigma.dtype)
    sigma = np.zeros((W1.ell, W1.r_hat + W2.r_hat, W1.r_til + W2.r_til), dtype=dtype)
    sigma[:, : W1.r_hat, : W1.r_til] = W1.sigma
    sigma[:, W1.r_hat :, W1.r_til :] = W2.sigma
    return BlockLowRank(U, V, sigma)


def block_inner(W1, W2):
    """Gram-type matrix W1^H W2 of shape (ell1, ell2), never materialized.

    Entry (i1, i2) = trace(Sigma1(i1)^H (U1^H U2) Sigma2(i2) (V2^H V1)).
    When both arguments are the same orthonormal-factor block this
    simplifies to trace(Sigma(i1)^H Sigma(i2)).
    """
    if (W1.n_hat, W1.n_til) != (W2.n_hat, W2.n_til):
        raise DimensionMismatch("block_inner: blocks live on different grids")
    if W1 is W2 and W1.orthonormal:
        S = W1.sigma.reshape(W1.ell, -1)
        return np.conj(S) @ S.T
    Gu = W1.U.conj().T @ W2.U
    Gv = W2.V.conj().T @ W1.V
    mid = (Gu @ W2.sigma @ Gv).reshape(W2.ell, -1)
    return np.conj(W1.sigma.reshape(W1.ell, -1)) @ mid.T


def _fold(W):
    """(lift_u, lift_v, core): QR factors of both bases, the triangular
    ones folded into the cores, C(j) = Ru Sigma(j) Rv^H, and the maps
    that carry a small left factor back to each basis (``qr_unless_wide``).
    W's columns are lift_u(I) C(j) lift_v(I)^H; the bases need r >= 1."""
    lift_u, Ru = qr_unless_wide(W.U)
    lift_v, Rv = qr_unless_wide(W.V)
    return lift_u, lift_v, Ru @ W.sigma @ Rv.conj().T


def fold_bases(W):
    """The same columns on orthonormal bases: the lossless half of ``truncate``.

    QR-factors both bases and folds the triangular factors into the cores,
    so one factorization serves the column norms (``column_norms`` of the
    result reads its cores) and a later cut (``truncate`` of the result
    skips the QR). A block that is already ``orthonormal`` comes back as
    it is; one of rank 0 on either side as the rank-0 block.
    """
    if W.orthonormal:
        return W
    if W.r_hat == 0 or W.r_til == 0:
        return BlockLowRank.empty(W.n_hat, W.n_til, W.ell, dtype=_dtype(W))
    lift_u, lift_v, core = _fold(W)
    _, rh, rt = core.shape
    return BlockLowRank(lift_u(np.eye(rh)), lift_v(np.eye(rt)), core, orthonormal=True)


def column_norms(W):
    """Per-column 2-norms computed from orthogonal-invariant cores.

    On orthonormal bases a column's norm is ||Sigma(j)||_F; other blocks
    are folded first (``fold_bases``' QR) and measure ||Ru Sigma(j) Rv^H||_F.
    Unlike the diagonal of block_inner this stays accurate when the
    represented columns are tiny differences of large factors (residual
    blocks): the cancellation happens inside backward-stable products
    instead of between O(||factor||^2) Gram entries.
    """
    if W.r_hat == 0 or W.r_til == 0 or W.ell == 0:
        return np.zeros(W.ell)
    core = W.sigma if W.orthonormal else _fold(W)[2]
    return np.linalg.norm(core.reshape(W.ell, -1), axis=1)


def right_multiply(W, B):
    """Image under a thin right factor: columns of the result are W @ B.

    Bases are untouched; cores combine linearly, Sigma_out(i) =
    sum_j B[j, i] Sigma(j). Ranks never change.
    """
    B = np.asarray(B)
    if B.ndim != 2 or B.shape[0] != W.ell:
        raise DimensionMismatch(f"right_multiply: B has {B.shape}, block has ell={W.ell}")
    sigma = (B.T @ W.sigma.reshape(W.ell, -1)).reshape(B.shape[1], *W.sigma.shape[1:])
    return replace(W, sigma=sigma)


def truncate(W, eps, r_max=None):
    """Rank reduction by two-sided core compression.

    Folds the bases' triangular QR factors into the cores, C(j) = Ru
    Sigma(j) Rv^H (``fold_bases``; an ``orthonormal`` block skips the QR and
    cuts its own cores), then cuts each mode independently: the hat rank by
    the left singular vectors of the horizontal stack [C(0), ..., C(ell-1)],
    the tilde rank by those of the stack of conjugate-transposed slices —
    both taken from the same folded cores, each with relative tail
    tolerance eps/sqrt(2) and hard cap r_max. Each wide unfolding is
    reduced to its square triangular factor before the SVD
    (``svd_trunc_left``), and a basis with at least as many columns as rows
    skips its QR and is folded in whole (``qr_unless_wide``). The output
    has orthonormal bases and the compressed cores U1^H C(j) U2; its
    columns match W's to a combined relative error close to eps (the
    per-mode cuts interact, see the truncation tests).
    """
    if eps < 0:
        raise OutOfRange("truncate: eps must be >= 0")
    if r_max is not None and r_max < 1:
        raise OutOfRange("truncate: r_max must be >= 1")
    if W.ell == 0 or W.r_hat == 0 or W.r_til == 0:
        return BlockLowRank.empty(W.n_hat, W.n_til, W.ell, dtype=_dtype(W))
    if W.orthonormal:
        lift_u, lift_v, core = (lambda X: W.U @ X), (lambda X: W.V @ X), W.sigma
    else:
        lift_u, lift_v, core = _fold(W)
    ell, rh, rt = core.shape
    tol = eps / np.sqrt(2.0)
    # mode 1: rows indexed by the hat rank
    unf1 = np.swapaxes(core, 0, 1).reshape(rh, ell * rt)
    U1, s1 = svd_trunc_left(unf1, tol, r_max)
    # mode 2: rows indexed by the tilde rank, slices conjugate-transposed,
    # taken from the original folded core (not the mode-1 compressed one)
    unf2 = np.conj(np.swapaxes(core, 0, 2)).reshape(rt, ell * rh)
    U2, s2 = svd_trunc_left(unf2, tol, r_max)
    if s1.size == 0 or s2.size == 0:
        return BlockLowRank.empty(W.n_hat, W.n_til, W.ell, dtype=_dtype(W))
    new_core = U1.conj().T @ core @ U2
    return BlockLowRank(lift_u(U1), lift_v(U2), new_core, orthonormal=True)


def orthonormalize_svd(W, eps=0.0):
    """Orthonormal columns spanning a block's columns, from its cores.

    The column-mode counterpart of ``truncate``. Once both bases are
    orthonormal (``truncate(W, 0.0)`` unless ``W.orthonormal``), the
    columns' inner products are those of the vectorized cores, so the
    left singular vectors of the (r_hat r_til) x ell unfolding, taken
    back as cores on the same bases, are orthonormal columns with W's
    span. No Gram matrix is formed, which would square the column
    condition number: a direction is kept down to roundoff, and the kept
    columns are orthonormal to roundoff whatever the conditioning. One
    drop rule: ``svd_trunc``'s relative tail cut at eps, floored at
    max(shape) eps_mach s_max. Returns a block of at most ell columns
    (none when W is zero) with ``block_inner`` the identity.
    """
    if not W.orthonormal:
        W = truncate(W, 0.0)
    ell, rh, rt = W.sigma.shape
    M = W.sigma.reshape(ell, rh * rt).T
    Q, s, _ = svd_trunc(M, eps)
    floor = max(M.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    Q = Q[:, s > floor]
    return BlockLowRank(W.U, W.V, Q.T.reshape(Q.shape[1], rh, rt), orthonormal=True)


def rayleigh_ritz_3block(S1, S2, S3, A):
    """Projected eigenproblem on the stacked blocks [S1 S2 S3].

    Assembles the blockwise projected operator and Gram matrices term by
    term, H_ij = sum over A's terms (til, hat) of S_i^H (hat U_j, conj(til)
    V_j, Sigma_j), so every product is between two rank-r blocks, never
    against the s-fold ``apply_operator`` image. Only the blocks with
    i <= j are computed; those below the diagonal are their conjugate
    transposes. Symmetrizes both, and solves for the S1.ell smallest
    eigenpairs. S2/S3 may be None or empty (the iteration-1 case). Returns
    (C1, C2, C3, theta) with the eigenvector matrix partitioned by block
    rows; missing blocks get zero-width factors. Raises BtilNotSPD when
    the combined Gram is numerically singular (caller drops a block and
    retries).
    """
    blocks = [S for S in (S1, S2, S3) if S is not None and S.ell > 0]
    widths = [S.ell for S in blocks]
    images = [
        [BlockLowRank(hat @ S.U, til.conj() @ S.V, S.sigma) for til, hat in A.terms]
        for S in blocks
    ]
    m = len(blocks)
    Hb = [[None] * m for _ in range(m)]
    Gb = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            Hb[i][j] = sum(block_inner(blocks[i], T) for T in images[j])
            Gb[i][j] = block_inner(blocks[i], blocks[j])
            if j > i:
                Hb[j][i] = Hb[i][j].conj().T
                Gb[j][i] = Gb[i][j].conj().T
    H = np.block(Hb)
    G = np.block(Gb)
    H = 0.5 * (H + H.conj().T)
    G = 0.5 * (G + G.conj().T)
    theta, C = eig_sym_gen(H, G, S1.ell)
    parts = np.split(C, np.cumsum(widths)[:-1], axis=0)
    out = []
    i = 0
    for S in (S1, S2, S3):
        if S is not None and S.ell > 0:
            out.append(parts[i])
            i += 1
        else:
            out.append(np.zeros((0, S1.ell)))
    return out[0], out[1], out[2], theta


def residual_block(A, W, theta):
    """Residual block A W - W diag(theta), in block low-rank form.

    A term whose hat factor is an ``Identity`` puts U itself in the hat
    basis of ``apply_operator``'s image, and one whose tilde factor is an
    ``Identity`` puts V in the tilde basis; the shift then enters as
    -theta_j Sigma(j) in the core block that pairs those two, and the
    residual keeps the image's s-fold rank. An operator that lacks either
    term gets W's bases appended instead (``add``), rank (s + 1)-fold.
    """
    AW = apply_operator(A, W)
    i_hat = next((i for i, (_, hat) in enumerate(A.terms) if isinstance(hat, Identity)), None)
    i_til = next((i for i, (til, _) in enumerate(A.terms) if isinstance(til, Identity)), None)
    if i_hat is None or i_til is None:
        return add(AW, right_multiply(W, np.diag(-theta)))
    rh, rt = W.r_hat, W.r_til
    sigma = AW.sigma.astype(np.result_type(AW.sigma, theta), copy=False)
    sigma[:, i_hat * rh : (i_hat + 1) * rh, i_til * rt : (i_til + 1) * rt] -= (
        np.asarray(theta)[:, None, None] * W.sigma
    )
    return BlockLowRank(AW.U, AW.V, sigma)


@dataclass
class EigenResult:
    """Approximate eigenpairs plus run bookkeeping.

    ritz_values ascending; ritz_vectors holds the matching columns in block
    low-rank form; residual_norms are ||A u - theta u||_2 with unit-norm u.
    inside_flags marks contour membership for the filter solver and
    per-pair convergence for the iterative solver. diagnostics is a plain
    dict (per-node solver reports, rank histories, failure records).
    """

    ritz_values: np.ndarray
    ritz_vectors: BlockLowRank
    residual_norms: np.ndarray
    inside_flags: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.ritz_values)
        if len(self.residual_norms) != k or len(self.inside_flags) != k:
            raise DimensionMismatch("EigenResult: per-pair lists must share length")
