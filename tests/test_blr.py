"""Block low-rank algebra against dense oracles at desk scale."""

import numpy as np
import pytest

from conftest import kron_dense, make_rng, random_block, random_sym_kron_operator
from kroneig.blr import (
    BlockLowRank,
    KroneckerSumOperator,
    add,
    apply_operator,
    block_inner,
    column_norms,
    fold_bases,
    from_khatri_rao,
    orthonormalize_svd,
    rayleigh_ritz_3block,
    residual_block,
    right_multiply,
    to_dense,
    truncate,
)
from kroneig.dense import eig_sym_gen
from kroneig.errors import DimensionMismatch, SizeOverflow
from kroneig.problems import make_spec, schrodinger_kron
from kroneig.sketch import draw_khatri_rao, khatri_rao_dense


def test_to_dense_matches_definition():
    rng = make_rng(30)
    W = random_block(rng, 5, 4, 3, 2, 2)
    D = to_dense(W)
    assert D.shape == (20, 3)
    for j in range(3):
        col = (W.U @ W.sigma[j] @ W.V.T).reshape(-1, order="F")
        assert np.allclose(D[:, j], col, atol=1e-14)


def test_to_dense_cap():
    rng = make_rng(31)
    W = random_block(rng, 50, 50, 4, 2, 2)
    with pytest.raises(SizeOverflow):
        to_dense(W, cap=100)


def test_from_khatri_rao_is_exact():
    sk = draw_khatri_rao(n_til=6, n_hat=5, ell=4, seed=2)
    W = from_khatri_rao(sk)
    assert np.allclose(to_dense(W), khatri_rao_dense(sk), atol=1e-14)
    # Each sketch column contributes one basis direction per side.
    assert W.r_hat == 4 and W.r_til == 4


def test_core_shape_validation():
    rng = make_rng(32)
    with pytest.raises(DimensionMismatch):
        BlockLowRank(
            rng.standard_normal((5, 2)),
            rng.standard_normal((4, 2)),
            rng.standard_normal((3, 2, 3)),
        )


def test_empty_block():
    W = BlockLowRank.empty(5, 4, ell=3)
    assert to_dense(W).shape == (20, 3)
    assert np.all(to_dense(W) == 0.0)
    assert np.all(column_norms(W) == 0.0)


def test_apply_operator_matches_dense_and_rank_accounting():
    rng = make_rng(33)
    A = random_sym_kron_operator(rng, 5, 4, terms=3)
    W = random_block(rng, 5, 4, 3, 2, 2)
    AW = apply_operator(A, W)
    assert np.allclose(to_dense(AW), kron_dense(A) @ to_dense(W), atol=1e-12)
    # Each operator term appends one copy of each basis.
    assert AW.r_hat == 3 * W.r_hat and AW.r_til == 3 * W.r_til


def test_add_matches_dense():
    rng = make_rng(34)
    W1 = random_block(rng, 6, 5, 3, 2, 3)
    W2 = random_block(rng, 6, 5, 3, 4, 1)
    S = add(W1, W2)
    assert np.allclose(to_dense(S), to_dense(W1) + to_dense(W2), atol=1e-13)
    assert S.r_hat == 6 and S.r_til == 4
    with pytest.raises(DimensionMismatch):
        add(W1, random_block(rng, 6, 5, 2, 2, 2))


def test_right_multiply_matches_dense():
    rng = make_rng(35)
    W = random_block(rng, 6, 5, 4, 2, 2)
    B = rng.standard_normal((4, 3))
    WB = right_multiply(W, B)
    assert np.allclose(to_dense(WB), to_dense(W) @ B, atol=1e-13)
    # Basis sizes are untouched; only cores recombine.
    assert (WB.r_hat, WB.r_til, WB.ell) == (2, 2, 3)


def test_block_inner_matches_dense_gram():
    rng = make_rng(36)
    for complex_ in (False, True):
        W1 = random_block(rng, 6, 5, 3, 2, 2, complex_=complex_)
        W2 = random_block(rng, 6, 5, 4, 3, 2, complex_=complex_)
        G = block_inner(W1, W2)
        ref = to_dense(W1).conj().T @ to_dense(W2)
        assert G.shape == (3, 4)
        assert np.allclose(G, ref, atol=1e-12)


def test_column_norms_matches_dense():
    rng = make_rng(37)
    W = random_block(rng, 7, 6, 5, 3, 2, complex_=True)
    ref = np.linalg.norm(to_dense(W), axis=0)
    assert np.allclose(column_norms(W), ref, atol=1e-12)


def test_column_norms_cancellation_safe():
    # W - W represented as a concatenation: the dense columns are exactly
    # zero while the factors are O(1). The QR route must see the
    # cancellation instead of summing large Gram entries.
    rng = make_rng(38)
    W = random_block(rng, 8, 7, 3, 2, 2)
    Z = add(W, right_multiply(W, -np.eye(3)))
    assert np.all(column_norms(Z) < 1e-13)


def test_truncate_error_contract_and_flags():
    rng = make_rng(39)
    eps = 1e-3
    for _ in range(10):
        W = random_block(rng, 9, 8, 4, 5, 5)
        T = truncate(W, eps)
        assert T.orthonormal
        err = np.linalg.norm(to_dense(T) - to_dense(W))
        # Two sequential one-sided cuts at eps/sqrt(2) each.
        assert err <= 2.0 * eps * np.linalg.norm(to_dense(W)) + 1e-12
        assert np.allclose(T.U.T @ T.U, np.eye(T.r_hat), atol=1e-12)
        assert np.allclose(T.V.T @ T.V, np.eye(T.r_til), atol=1e-12)


def test_truncate_recovers_exact_rank():
    # Padded factors of true rank (2, 2) collapse back to rank (2, 2).
    rng = make_rng(40)
    core = random_block(rng, 9, 8, 3, 2, 2)
    pad = right_multiply(core, np.eye(3))
    grown = add(pad, right_multiply(core, 0.5 * np.eye(3)))
    assert (grown.r_hat, grown.r_til) == (4, 4)
    T = truncate(grown, 1e-12)
    assert (T.r_hat, T.r_til) == (2, 2)
    assert np.allclose(to_dense(T), to_dense(grown), atol=1e-10)


def test_truncate_r_max_binds():
    rng = make_rng(41)
    W = random_block(rng, 10, 9, 4, 6, 6)
    T = truncate(W, 0.0, r_max=3)
    assert max(T.r_hat, T.r_til) <= 3
    T2 = truncate(W, 0.0)
    assert np.allclose(to_dense(T2), to_dense(W), atol=1e-11)


def test_truncate_idempotent():
    rng = make_rng(42)
    W = random_block(rng, 9, 8, 4, 4, 4)
    T1 = truncate(W, 1e-8)
    T2 = truncate(T1, 1e-8)
    assert np.allclose(to_dense(T1), to_dense(T2), atol=1e-12)
    assert (T2.r_hat, T2.r_til) == (T1.r_hat, T1.r_til)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("ranks", [(7, 4), (7, 8)])
def test_truncate_wide_bases(ranks, complex_):
    # Bases with at least as many columns as rows skip their QR: U 5x7 on
    # one side, U 5x7 and V 6x8 on both.
    rng = make_rng(48)
    n_hat, n_til, ell = 5, 6, 3
    W = random_block(rng, n_hat, n_til, ell, *ranks, complex_=complex_)
    D = to_dense(W)
    T0 = truncate(W, 0.0)
    assert np.linalg.norm(to_dense(T0) - D) <= 1e-12 * np.linalg.norm(D)
    T = truncate(W, 0.0, r_max=3)
    assert T.orthonormal and T.r_hat == 3 and T.r_til == 3
    assert np.allclose(T.U.conj().T @ T.U, np.eye(3), atol=1e-12)
    assert np.allclose(T.V.conj().T @ T.V, np.eye(3), atol=1e-12)
    # Within the dense two-mode bound: the squared best rank-3 errors of
    # the mode unfoldings [X_0, ..., X_{ell-1}] and [X_0^H, ...] add up.
    X = [D[:, j].reshape((n_hat, n_til), order="F") for j in range(ell)]
    tails = [
        np.linalg.svd(np.hstack(mats), compute_uv=False)[3:]
        for mats in (X, [x.conj().T for x in X])
    ]
    bound = np.sqrt(sum(np.sum(t**2) for t in tails))
    assert np.linalg.norm(to_dense(T) - D) <= bound * (1 + 1e-10) + 1e-12
    Z = truncate(right_multiply(W, np.zeros((ell, ell))), 1e-8)
    assert (Z.U.shape, Z.V.shape, Z.sigma.shape) == ((n_hat, 0), (n_til, 0), (ell, 0, 0))


def test_orthonormalize_svd_keeps_span():
    rng = make_rng(43)
    W = random_block(rng, 8, 7, 4, 3, 3)
    Q = orthonormalize_svd(W)
    G = block_inner(Q, Q)
    assert np.allclose(G, np.eye(4), atol=1e-8)
    # The original columns project onto Q exactly.
    D, QD = to_dense(W), to_dense(Q)
    assert np.allclose(QD @ (QD.conj().T @ D), D, atol=1e-9)
    # Scaled identity Gram: columns 3x an orthonormal set have Q^H W = 3
    # times a unitary.
    base = truncate(random_block(rng, 8, 7, 3, 2, 2), 0.0)
    ortho = orthonormalize_svd(base)
    scaled = right_multiply(ortho, 3.0 * np.eye(3))
    B = block_inner(orthonormalize_svd(scaled), scaled)
    assert np.allclose(B.conj().T @ B, 9.0 * np.eye(3), atol=1e-10)


def test_orthonormalize_svd_drops_null_columns():
    rng = make_rng(44)
    W = random_block(rng, 8, 7, 3, 3, 3)
    # Duplicate a column: the 6-column block has numerical rank 3 wrt columns.
    WW = BlockLowRank(W.U, W.V, np.concatenate([W.sigma, W.sigma], axis=0))
    Q = orthonormalize_svd(WW)
    assert Q.ell == 3
    G = block_inner(Q, Q)
    assert np.allclose(G, np.eye(Q.ell), atol=1e-8)
    # Span is preserved: original columns project onto Q exactly.
    D, QD = to_dense(WW), to_dense(Q)
    assert np.allclose(QD @ (QD.conj().T @ D), D, atol=1e-8)


def test_orthonormalize_svd_drops_zero_column():
    rng = make_rng(47)
    W = random_block(rng, 8, 7, 4, 3, 3)
    Q = orthonormalize_svd(W)
    assert Q.ell == 4
    assert np.allclose(block_inner(Q, Q), np.eye(4), atol=1e-8)
    # A zero column makes the Gram singular: it is dropped.
    Z = BlockLowRank(W.U, W.V, np.concatenate([W.sigma[:3], 0.0 * W.sigma[3:]]))
    Q = orthonormalize_svd(Z)
    assert Q.ell == 3
    assert np.allclose(block_inner(Q, Q), np.eye(3), atol=1e-8)
    assert orthonormalize_svd(right_multiply(W, np.zeros((4, 4)))).ell == 0


def test_orthonormalize_svd_drops_equal_columns():
    # Two equal columns span one direction, whatever the column scale, so
    # one of them is dropped.
    rng = np.random.default_rng(5)
    sigma = rng.standard_normal((5, 4, 4))
    sigma[4] = sigma[0]
    for scale in (1.0, 1e-6, 1e6):
        W = BlockLowRank(rng.standard_normal((12, 4)), rng.standard_normal((11, 4)), scale * sigma)
        Q = orthonormalize_svd(W)
        assert Q.ell == 4
        assert np.allclose(block_inner(Q, Q), np.eye(4), atol=1e-8)


def test_orthonormalize_svd_keeps_ill_conditioned_columns():
    # Column singular values down to 1e-7: a Gram-based orthonormalization
    # squares them to 1e-14 and either loses orthogonality (Cholesky) or
    # drops the small directions (a 1e-12 Gram cut). From the cores every
    # column stays, orthonormal to roundoff, with the span kept.
    rng = make_rng(49)
    ell = 6
    B = orthonormalize_svd(random_block(rng, 9, 8, ell, 4, 4))
    left = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    right = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
    W = right_multiply(B, left @ np.diag(np.logspace(0, -7, ell)) @ right)
    Q = orthonormalize_svd(W)
    assert Q.ell == ell
    assert np.linalg.norm(block_inner(Q, Q) - np.eye(ell)) <= 1e-12
    D, QD = to_dense(W), to_dense(Q)
    assert np.linalg.norm(QD @ (QD.T @ D) - D) <= 1e-12 * np.linalg.norm(D)


def test_residual_block_matches_dense():
    rng = make_rng(48)
    A = random_sym_kron_operator(rng, 5, 4, terms=3)
    W = random_block(rng, 5, 4, 3, 2, 3)
    theta = rng.standard_normal(3)
    D = to_dense(W)
    ref = kron_dense(A) @ D - D @ np.diag(theta)
    assert np.allclose(to_dense(residual_block(A, W, theta)), ref, atol=1e-11)
    # no identity factor anywhere: W's bases are appended, rank (s + 1) r
    R = residual_block(A, W, theta)
    assert (R.r_hat, R.r_til) == (4 * 2, 4 * 3)


@pytest.mark.parametrize("complex_", [False, True])
def test_residual_block_on_shared_bases(complex_):
    # The Schrodinger operator's identity terms already hold U and V in the
    # image's bases, so the shift costs no rank: 3r, not 4r.
    rng = make_rng(49)
    A = schrodinger_kron(make_spec("sum-of-squares", 6))
    W = random_block(rng, 6, 6, 3, 2, 3, complex_=complex_)
    theta = 10.0 * rng.standard_normal(3)
    R = residual_block(A, W, theta)
    assert (R.r_hat, R.r_til) == (3 * 2, 3 * 3)
    D = to_dense(W)
    ref = kron_dense(A) @ D - D @ np.diag(theta)
    assert np.allclose(to_dense(R), ref, atol=1e-10 * np.linalg.norm(ref))
    assert np.allclose(column_norms(R), np.linalg.norm(ref, axis=0), rtol=1e-10)
    # one identity side only: still exact, through the appended bases
    K = A.terms[0][1]
    one_sided = KroneckerSumOperator((A.terms[0], (K, K)))
    D1 = kron_dense(one_sided) @ D - D @ np.diag(theta)
    R1 = residual_block(one_sided, W, theta)
    assert (R1.r_hat, R1.r_til) == (3 * 2, 3 * 3)
    assert np.allclose(to_dense(R1), D1, atol=1e-10 * np.linalg.norm(D1))


@pytest.mark.parametrize("complex_", [False, True])
def test_fold_bases_is_lossless(complex_):
    rng = make_rng(50)
    W = random_block(rng, 7, 6, 4, 3, 2, complex_=complex_)
    F = fold_bases(W)
    assert F.orthonormal and (F.r_hat, F.r_til) == (3, 2)
    assert np.allclose(F.U.conj().T @ F.U, np.eye(3), atol=1e-14)
    assert np.allclose(F.V.conj().T @ F.V, np.eye(2), atol=1e-14)
    assert np.allclose(to_dense(F), to_dense(W), atol=1e-12)
    # the norms read the folded cores, and agree with the unfolded block's
    assert np.allclose(column_norms(F), column_norms(W), rtol=1e-13)
    assert np.allclose(column_norms(F), np.linalg.norm(to_dense(W), axis=0), rtol=1e-12)
    assert fold_bases(F) is F
    # a wide basis (more columns than rows) folds in whole
    wide = random_block(rng, 3, 6, 2, 5, 2)
    Fw = fold_bases(wide)
    assert Fw.r_hat == 3 and np.allclose(to_dense(Fw), to_dense(wide), atol=1e-12)
    zero = fold_bases(random_block(rng, 5, 4, 2, 0, 2))
    assert (zero.r_hat, zero.r_til, zero.ell) == (0, 0, 2)


def test_truncate_of_folded_block_matches():
    # truncate skips the QR of an orthonormal block and cuts its cores:
    # folding first does not change what it keeps
    rng = make_rng(51)
    W = random_block(rng, 12, 11, 3, 6, 5)
    direct = truncate(W, 1e-2, r_max=4)
    folded = truncate(fold_bases(W), 1e-2, r_max=4)
    assert (folded.r_hat, folded.r_til) == (direct.r_hat, direct.r_til)
    assert np.allclose(to_dense(folded), to_dense(direct), atol=1e-12)


def test_rayleigh_ritz_per_term_matches_full_images():
    # Per-term products on the upper blocks only equal the projection on
    # the s-fold apply_operator images with every block computed.
    rng = make_rng(52)
    A = random_sym_kron_operator(rng, 7, 6, terms=3, spd_shift=8.0)
    S = [
        orthonormalize_svd(random_block(rng, 7, 6, ell, 3, 3, complex_=True))
        for ell in (3, 2, 2)
    ]
    C1, C2, C3, theta = rayleigh_ritz_3block(*S, A)
    AS = [apply_operator(A, Sj) for Sj in S]
    H = np.block([[block_inner(Si, ASj) for ASj in AS] for Si in S])
    G = np.block([[block_inner(Si, Sj) for Sj in S] for Si in S])
    H = 0.5 * (H + H.conj().T)
    G = 0.5 * (G + G.conj().T)
    ref, _ = eig_sym_gen(H, G, 3)
    scale = np.linalg.norm(H, 2)
    assert np.max(np.abs(theta - ref)) <= 1e-12 * scale
    C = np.vstack([C1, C2, C3])
    assert np.max(np.abs(C.conj().T @ G @ C - np.eye(3))) <= 1e-12
    assert np.max(np.abs(C.conj().T @ H @ C - np.diag(theta))) <= 1e-12 * scale


def test_random_composition_chains():
    # Random pipelines of the primitive operations, mirrored densely.
    rng = make_rng(47)
    for trial in range(60):
        n_hat = int(rng.integers(3, 9))
        n_til = int(rng.integers(3, 9))
        ell = int(rng.integers(1, 5))
        W = random_block(rng, n_hat, n_til, ell, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        D = to_dense(W)
        A = random_sym_kron_operator(rng, n_hat, n_til, terms=2)
        Ad = kron_dense(A)
        for _ in range(int(rng.integers(1, 5))):
            op = rng.integers(0, 4)
            if op == 0:
                W = apply_operator(A, W)
                D = Ad @ D
            elif op == 1:
                other = random_block(rng, n_hat, n_til, ell, 2, 2)
                W = add(W, other)
                D = D + to_dense(other)
            elif op == 2:
                B = rng.standard_normal((ell, ell))
                W = right_multiply(W, B)
                D = D @ B
            else:
                W = truncate(W, 1e-13)
        scale = max(np.linalg.norm(D), 1.0)
        assert np.linalg.norm(to_dense(W) - D) <= 1e-10 * scale
