"""Exception taxonomy shared across the library.

Every error raised by kroneig derives from :class:`KroneigError`, so callers
can catch library failures without catching programming errors. Solvers that
return a best-effort result with a flag (max-iteration exits, non-converged
eigenpairs) do NOT raise; only genuine contract violations do.
"""


class KroneigError(Exception):
    """Base class for all library errors."""


class ConfigError(KroneigError):
    """Invalid user-facing configuration (CLI exits with status 2)."""


class DimensionMismatch(KroneigError):
    """Operands have incompatible shapes or column counts."""


class OutOfRange(KroneigError):
    """A numeric parameter lies outside its documented domain."""


class SizeOverflow(KroneigError):
    """A dense materialization would exceed the configured entry cap."""


class NotPositiveDefinite(KroneigError):
    """Cholesky factorization failed; the matrix is not numerically SPD."""


class DegenerateInterval(KroneigError):
    """A spectral interval for shift selection is empty or contains 0."""


class SingularShiftedSolve(KroneigError):
    """A shifted linear solve hit a (numerically) singular matrix."""


class PoleHit(KroneigError):
    """Rational filter evaluated exactly at a quadrature node."""


class RankDeficient(KroneigError):
    """A matrix required to have full rank is rank-deficient."""


class DegenerateSubspace(KroneigError):
    """A subspace basis has (numerically) dependent columns."""


class StructureMismatch(KroneigError):
    """An operator lacks the structural pattern an operation requires."""
