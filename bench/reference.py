"""Reference eigenvalues and residuals, computed apart from kroneig.

The matrix is the 5-point finite-difference Schrodinger operator
-Lap + V on the interior grid of [-1, 1]^2 (h = 2/(n+1)), with
V(x, y) = (x^2 + y^2 - xy)/2, assembled here as a scipy sparse matrix
from the grid alone. Unknown p = i_til * n + i_hat matches the column-major
vec of an n_hat x n_til matrix, the convention of kroneig's block format.
Reference eigenvalues come from scipy.sparse.linalg.eigsh in shift-invert
mode. For the n=700 workload this takes about 22 s and 1 GB, so its
eigenvalues are stored in this directory; recompute them with

    python3 bench/reference.py contour-wide
"""

import json
import os
import sys

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
STORED = {"contour-wide": os.path.join(HERE, "reference_contour-wide.json")}
# eigenvalues computed around the contour center; more than the circle holds
CONTOUR_K = 10


def schrodinger_matrix(n):
    """Sparse n^2 x n^2 matrix of -Lap + V on the interior grid."""
    h = 2.0 / (n + 1)
    x = -1.0 + h * np.arange(1, n + 1)
    T = scipy.sparse.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ) / h**2
    eye = scipy.sparse.identity(n)
    xs = np.tile(x, n)  # hat coordinate, fastest index
    ys = np.repeat(x, n)  # tilde coordinate
    V = 0.5 * (xs**2 + ys**2 - xs * ys)
    A = scipy.sparse.kron(eye, T) + scipy.sparse.kron(T, eye) + scipy.sparse.diags(V)
    return A.tocsr()


def compute_eigenvalues(name, A=None):
    """Ascending reference eigenvalues for a workload.

    Contour workloads: the CONTOUR_K eigenvalues nearest the circle's
    center. LOBPCG: the k + 2 smallest (the operator is positive definite,
    so shift-invert about 0 finds them).
    """
    w = WORKLOADS[name]
    if A is None:
        A = schrodinger_matrix(w["n"])
    A = A.tocsc()
    if w["solver"] == "contour":
        vals = scipy.sparse.linalg.eigsh(
            A, k=CONTOUR_K, sigma=w["center"], return_eigenvectors=False
        )
    else:
        vals = scipy.sparse.linalg.eigsh(
            A, k=w["k"] + 2, sigma=0.0, return_eigenvectors=False
        )
    return np.sort(vals)


def eigenvalues(name, A=None):
    """Stored eigenvalues where this directory holds them, else computed."""
    path = STORED.get(name)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data["n"] != WORKLOADS[name]["n"]:
            raise ValueError(f"{path} is for n={data['n']}; recompute it")
        return np.asarray(data["eigenvalues"])
    return compute_eigenvalues(name, A)


def ritz_vectors(U, V, sigma):
    """Dense columns vec(U sigma_j V^H), each normalized to unit length."""
    Vh = V.conj().T
    cols = [(U @ s @ Vh).reshape(-1, order="F") for s in sigma]
    X = np.stack(cols, axis=1) if cols else np.zeros((U.shape[0] * V.shape[0], 0))
    norms = np.linalg.norm(X, axis=0)
    return X / np.where(norms > 0, norms, 1.0)


def residuals(A, X, theta):
    """||A x_j - theta_j x_j||_2 for unit columns x_j."""
    R = A @ X - X * theta[None, :]
    return np.linalg.norm(R, axis=0)


def main(argv):
    if len(argv) != 1 or argv[0] not in STORED:
        print(f"usage: python3 bench/reference.py {{{','.join(STORED)}}}", file=sys.stderr)
        return 2
    name = argv[0]
    vals = compute_eigenvalues(name)
    data = {
        "workload": name,
        "n": WORKLOADS[name]["n"],
        "center": WORKLOADS[name]["center"],
        "k": CONTOUR_K,
        "method": "scipy.sparse.linalg.eigsh, shift-invert about the center",
        "scipy": scipy.__version__,
        "command": f"python3 bench/reference.py {name}",
        "eigenvalues": [float(v) for v in vals],
    }
    with open(STORED[name], "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(json.dumps(data["eigenvalues"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
