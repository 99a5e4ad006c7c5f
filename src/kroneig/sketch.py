"""Gaussian and Khatri-Rao random sketches and their quality diagnostics.

A Khatri-Rao sketch keeps a pair of small Gaussian factors (tilde: n_til x
ell, hat: n_hat x ell) and represents the tall matrix whose column j is
``scale * kron(tilde[:, j], hat[:, j])`` without materializing it. The
module also provides the sample-size bound calculators for the single-vector
(JL moment) and subspace-embedding regimes, and the Monte Carlo experiments
that measure embedding distortion and pseudoinverse norms for both sketch
families.

Randomness comes exclusively from numpy's Philox counter-based bit
generator, seeded through ``numpy.random.SeedSequence``, so every (seed ->
matrix) mapping is reproducible across platforms and safe to split across
workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .dense import qr_econ, two_norm
from .errors import DimensionMismatch, OutOfRange, SizeOverflow

__all__ = [
    "KhatriRaoSketch",
    "OseBoundParams",
    "SweepConfig",
    "gaussian",
    "draw_khatri_rao",
    "khatri_rao_dense",
    "jl_moment_sample_bound",
    "ose_sample_bound",
    "embedding_distortion",
    "pinv_norm",
    "ose_trial_sweep",
    "lp_moment_estimate",
]

# Hard cap on dense materialization of a sketch (entries), overridable per call.
DENSE_CAP = 10**7


def _rng(seed):
    """Philox generator from an int, tuple of ints, or SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(ss))


def gaussian(rows, cols, seed):
    """Dense (rows x cols) matrix of i.i.d. standard normals.

    Identical seeds give bit-identical matrices (Philox counter-based
    stream); distinct seeds give independent streams.
    """
    if rows < 1 or cols < 1:
        raise OutOfRange("gaussian: rows and cols must be >= 1")
    return _rng(seed).standard_normal((rows, cols))


@dataclass(frozen=True)
class KhatriRaoSketch:
    """Columnwise-Kronecker random matrix held in factored form.

    Fields
    ------
    tilde : (n_til, ell) ndarray
    hat : (n_hat, ell) ndarray
    scale : float, 1 or 1/sqrt(ell)

    Column j of the represented matrix is ``scale * kron(tilde_j, hat_j)``,
    a vector of length n_til * n_hat.
    """

    tilde: np.ndarray
    hat: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if self.tilde.shape[1] != self.hat.shape[1]:
            raise DimensionMismatch(
                "KhatriRaoSketch: factor column counts differ "
                f"({self.tilde.shape[1]} vs {self.hat.shape[1]})"
            )

    @property
    def n_til(self):
        return self.tilde.shape[0]

    @property
    def n_hat(self):
        return self.hat.shape[0]

    @property
    def ell(self):
        return self.tilde.shape[1]

    @property
    def n(self):
        return self.n_til * self.n_hat


def draw_khatri_rao(n_til, n_hat, ell, seed, scaled=True):
    """Draw a KhatriRaoSketch from two freshly split Gaussian streams."""
    if min(n_til, n_hat, ell) < 1:
        raise OutOfRange("draw_khatri_rao: dimensions must be >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seed_til, seed_hat = root.spawn(2)
    tilde = _rng(seed_til).standard_normal((n_til, ell))
    hat = _rng(seed_hat).standard_normal((n_hat, ell))
    scale = 1.0 / math.sqrt(ell) if scaled else 1.0
    return KhatriRaoSketch(tilde, hat, scale)


def _kr_columns(tilde, hat):
    """Columns kron(tilde_j, hat_j) as a dense (n_til*n_hat, ell) array."""
    n_til, ell = tilde.shape
    n_hat = hat.shape[0]
    return (tilde[:, None, :] * hat[None, :, :]).reshape(n_til * n_hat, ell)


def khatri_rao_dense(sk, cap=DENSE_CAP):
    """Materialize the sketch densely; guarded by an entry cap.

    Intended for desk-scale verification only; large runs keep the pair form.
    """
    if sk.n * sk.ell > cap:
        raise SizeOverflow(
            f"khatri_rao_dense: {sk.n} x {sk.ell} exceeds cap of {cap} entries"
        )
    return sk.scale * _kr_columns(sk.tilde, sk.hat)


def jl_moment_sample_bound(epsilon, delta):
    """Sample count guaranteeing the single-vector moment embedding property.

    Returns ``(ell, p)`` with ``p = ceil(log(1/delta) / 2)`` and
    ``ell = ceil(C^2 log(1/delta) / eps^2 + C log^2(1/delta) / eps)`` for
    ``C = 128 e^4``. Valid for ``epsilon in (0, 1]`` and
    ``delta in (0, e^-8]``. Evaluated in 50-digit arithmetic so the ceiling
    is exact.
    """
    if not 0.0 < epsilon <= 1.0:
        raise OutOfRange(f"jl_moment_sample_bound: epsilon={epsilon} not in (0, 1]")
    if not 0.0 < delta <= float(math.exp(-8.0)):
        raise OutOfRange(f"jl_moment_sample_bound: delta={delta} not in (0, e^-8]")
    with mpmath.workdps(50):
        C = 128 * mpmath.e**4
        L = mpmath.log(1 / mpmath.mpf(delta))
        eps = mpmath.mpf(epsilon)
        p = int(mpmath.ceil(L / 2))
        ell = int(mpmath.ceil(C**2 * L / eps**2 + C * L**2 / eps))
    return ell, p


def ose_sample_bound(params):
    """Sample count guaranteeing the rank-k subspace embedding property.

    ``ell = ceil(C (k^{3/2}/eps^2 + k log(1/delta)/eps^2 +
    sqrt(k) log^2(1/delta)/eps))`` with ``C = (2000 e^4)^2``, evaluated in
    50-digit arithmetic.
    """
    params.validate()
    with mpmath.workdps(50):
        C = (2000 * mpmath.e**4) ** 2
        L = mpmath.log(1 / mpmath.mpf(params.delta))
        eps = mpmath.mpf(params.epsilon)
        k = mpmath.mpf(params.k)
        ell = int(mpmath.ceil(C * (k**1.5 / eps**2 + k * L / eps**2 + k**0.5 * L**2 / eps)))
    return ell


@dataclass(frozen=True)
class OseBoundParams:
    """Parameters of the subspace-embedding sample bound."""

    epsilon: float
    delta: float
    k: int

    def validate(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise OutOfRange(f"OseBoundParams: epsilon={self.epsilon} not in (0, 1]")
        if not 0.0 < self.delta < 0.5:
            raise OutOfRange(f"OseBoundParams: delta={self.delta} not in (0, 1/2)")
        if self.k < 1:
            raise OutOfRange(f"OseBoundParams: k={self.k} must be >= 1")


def embedding_distortion(Omega, U):
    """Largest eigenvalue deviation |s^2 - 1| of the sketched basis.

    Returns ``||(Omega^H U)^H (Omega^H U) - I||_2``; 0 means the sketch acts
    isometrically on span(U). U must have orthonormal columns.
    """
    Omega = np.asarray(Omega)
    U = np.asarray(U)
    if Omega.shape[0] != U.shape[0]:
        raise DimensionMismatch(
            f"embedding_distortion: row counts differ ({Omega.shape[0]} vs {U.shape[0]})"
        )
    B = Omega.conj().T @ U
    G = B.conj().T @ B
    return two_norm(G - np.eye(G.shape[0]))


def pinv_norm(M):
    """Spectral norm of the pseudoinverse, 1/sigma_min; +inf if singular."""
    M = np.asarray(M)
    if M.shape[0] < M.shape[1]:
        raise OutOfRange(f"pinv_norm expects a tall matrix, got {M.shape}")
    if M.shape[1] == 0:
        return 0.0
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    if smin == 0.0:
        return math.inf
    return float(1.0 / smin)


def lp_moment_estimate(sampler, a, s, nsamples, seed=0, factor_shape=None):
    """Monte Carlo estimate of the L^s norm of a sketched inner product.

    sampler "gaussian_inner": X = <Z, a> with Z i.i.d. standard normal.
    sampler "kr_inner": X = <kron(omega_til, omega_hat), a>; requires
    ``factor_shape = (n_til, n_hat)`` with ``n_til * n_hat == len(a)``.
    Returns ``(mean |X|^s)^(1/s)`` over nsamples draws.
    """
    a = np.asarray(a, dtype=float)
    if nsamples < 10**3:
        raise OutOfRange("lp_moment_estimate: nsamples must be >= 1000")
    if s < 1:
        raise OutOfRange("lp_moment_estimate: s must be >= 1")
    rng = _rng(seed)
    if sampler == "gaussian_inner":
        acc = 0.0
        done = 0
        while done < nsamples:
            m = min(nsamples - done, 100_000)
            X = rng.standard_normal((m, a.size)) @ a
            acc += np.sum(np.abs(X) ** s)
            done += m
    elif sampler == "kr_inner":
        if factor_shape is None:
            raise OutOfRange("lp_moment_estimate: kr_inner needs factor_shape")
        n_til, n_hat = factor_shape
        if n_til * n_hat != a.size:
            raise DimensionMismatch(
                f"lp_moment_estimate: factor_shape {factor_shape} does not tile {a.size}"
            )
        # <kron(t, h), a> = h^T mat(a) t with mat(a) of shape n_hat x n_til
        A = a.reshape((n_hat, n_til), order="F")
        acc = 0.0
        done = 0
        while done < nsamples:
            m = min(nsamples - done, 100_000)
            T = rng.standard_normal((m, n_til))
            H = rng.standard_normal((m, n_hat))
            X = np.sum((H @ A) * T, axis=1)
            acc += np.sum(np.abs(X) ** s)
            done += m
    else:
        raise OutOfRange(f"lp_moment_estimate: unknown sampler {sampler!r}")
    return float((acc / nsamples) ** (1.0 / s))


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of the pseudoinverse-norm trial sweep.

    The ambient dimension is n_til * n_hat (both sketch families draw
    matrices of that height; the Khatri-Rao family uses the factor pair).
    ``ell_values`` defines the fixed statistics grid; the frontier search
    per k scans ell upward from k until the exceedance probability drops
    below ``target_prob``, up to ``frontier_cap_factor * k`` columns.
    """

    n_til: int
    n_hat: int
    k_values: tuple
    ell_values: tuple = ()
    trials: int = 1000
    threshold: float = 5.0
    target_prob: float = 1.0 / 50.0
    families: tuple = ("gaussian", "khatri-rao")
    u_modes: tuple = ("random", "rank-one")
    seed: int = 0
    frontier: bool = True
    frontier_cap_factor: int = 8
    threads: int = 1

    @property
    def n(self):
        return self.n_til * self.n_hat


def _draw_basis(rng, cfg, k, mode):
    """Orthonormal test basis: haar-like random, or Kronecker rank-one
    columns kron(u, v_j) with a shared random unit u and orthonormal v_j."""
    if mode == "random":
        Q, _ = qr_econ(rng.standard_normal((cfg.n, k)))
        return Q
    if mode == "rank-one":
        u = rng.standard_normal(cfg.n_til)
        u /= np.linalg.norm(u)
        V, _ = qr_econ(rng.standard_normal((cfg.n_hat, k)))
        return np.kron(u[:, None], V)
    raise OutOfRange(f"ose_trial_sweep: unknown U mode {mode!r}")


def _cell_stats(cfg, family, mode, k, ell):
    """Pseudoinverse-norm statistics for one (family, U mode, k, ell) cell.

    The cell owns one Philox stream keyed by (seed, family, mode, k, ell),
    so any recomputation (frontier scan revisiting a grid cell, different
    thread counts) reproduces identical samples.
    """
    fam_idx = 0 if family == "gaussian" else 1
    mode_idx = 0 if mode == "random" else 1
    rng = _rng(np.random.SeedSequence((cfg.seed, fam_idx, mode_idx, k, ell)))
    scale = 1.0 / math.sqrt(ell)
    vals = np.empty(cfg.trials)
    for t in range(cfg.trials):
        U = _draw_basis(rng, cfg, k, mode)
        if family == "gaussian":
            OtU = scale * (rng.standard_normal((cfg.n, ell)).T @ U)
        else:
            tilde = rng.standard_normal((cfg.n_til, ell))
            hat = rng.standard_normal((cfg.n_hat, ell))
            OtU = scale * (_kr_columns(tilde, hat).T @ U)
        vals[t] = pinv_norm(OtU)
    finite = vals[np.isfinite(vals)]
    return {
        "family": family,
        "u_mode": mode,
        "n": cfg.n,
        "k": k,
        "ell": ell,
        "trials": cfg.trials,
        "threshold": cfg.threshold,
        "p_exceed": float(np.mean(vals >= cfg.threshold)),
        "max": float(np.max(vals)),
        "p95": float(np.percentile(finite, 95)) if finite.size else math.inf,
        "median": float(np.median(finite)) if finite.size else math.inf,
    }


def ose_trial_sweep(cfg):
    """Monte Carlo sweep of ||(Omega^T U)^+||_2 over sketch families.

    For every (family, U mode, k, ell) grid cell reports the empirical
    exceedance probability P[pinv_norm >= threshold], max, 95th percentile
    and median over ``cfg.trials`` independent trials. When
    ``cfg.frontier`` is set, additionally reports per (family, U mode, k)
    the smallest ell with exceedance probability strictly below
    ``cfg.target_prob`` (-1 when not reached within the scan cap).

    Returns ``(cells, frontier)``, both lists of flat dicts ready for CSV.
    """
    if cfg.trials < 1:
        raise OutOfRange("ose_trial_sweep: trials must be >= 1")
    cache = {}

    def stats(family, mode, k, ell):
        key = (family, mode, k, ell)
        if key not in cache:
            cache[key] = _cell_stats(cfg, family, mode, k, ell)
        return cache[key]

    grid = [
        (fam, mode, k, ell)
        for fam in cfg.families
        for mode in cfg.u_modes
        for k in cfg.k_values
        for ell in cfg.ell_values
        if ell >= k
    ]
    if cfg.threads > 1 and len(grid) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = {key: pool.submit(stats, *key) for key in grid}
            for f in futures.values():
                f.result()
    cells = [stats(*key) for key in grid]

    frontier = []
    if cfg.frontier:
        for fam in cfg.families:
            for mode in cfg.u_modes:
                for k in cfg.k_values:
                    cap = cfg.frontier_cap_factor * k
                    found = -1
                    # exceedance is empirically monotone decreasing in ell,
                    # so an upward scan finds the frontier
                    for ell in range(k, cap + 1):
                        if stats(fam, mode, k, ell)["p_exceed"] < cfg.target_prob:
                            found = ell
                            break
                    frontier.append(
                        {
                            "family": fam,
                            "u_mode": mode,
                            "n": cfg.n,
                            "k": k,
                            "trials": cfg.trials,
                            "threshold": cfg.threshold,
                            "target_prob": cfg.target_prob,
                            "ell_frontier": found,
                        }
                    )
    return cells, frontier
