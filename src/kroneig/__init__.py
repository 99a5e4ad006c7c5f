"""kroneig: low-rank interior eigensolvers for Kronecker-sum operators.

The library provides randomized Khatri-Rao sketches with embedding
guarantees, typed Kronecker factors (identity, banded, dense), a block
low-rank vector format with truncation, a low-rank multiterm Sylvester
solver (a Galerkin family on one shared tensor basis, grown by two-term
solves in the eigenbasis of the separable part), and two eigensolvers
built on top: a contour-integral rational-filter method, whose node
solves are that Galerkin family, and a LOBPCG variant with rank
truncation and a factored-ADI block preconditioner. Test operators are
2D Schrodinger discretizations with separable potentials.
"""

__version__ = "0.1.0"

from . import blr, contour, dense, factors, lobpcg, problems, sketch, sylvester
from .errors import KroneigError

__all__ = [
    "blr",
    "contour",
    "dense",
    "factors",
    "lobpcg",
    "problems",
    "sketch",
    "sylvester",
    "KroneigError",
    "__version__",
]
