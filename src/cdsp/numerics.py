"""Matrix primitives: the clamped Cholesky factor of a Hermitian PSD matrix
(``cholesky_herm``) and an LU solve (``solve_linear``).

``poly_roots`` and ``synthetic_division`` are thin numpy wrappers over
ascending-degree coefficient arrays; no pipeline stage calls them, but the
benchmark's tracer wraps both by name.
"""

from __future__ import annotations

import numpy as np

from .errors import NotARoot, NotPSD, Singular

# cholesky_herm's bound on ||U^H U - M|| relative to ||M||
RECON_TOL = 1e-9
# cholesky_herm clamps a pivot at or below CLAMP_TOL * pivot_scale(M)
CLAMP_TOL = 1e-14
# synthetic_division's bound on |p(root)| relative to sum_i |p_i| |root|^i
ROOT_TOL = 1e-8


def poly_roots(p) -> np.ndarray:
    """All complex roots, with multiplicity, of the ascending-degree p: the
    eigenvalues of its companion matrix (``np.roots``)."""
    return np.roots(np.asarray(p, dtype=complex)[::-1])


def synthetic_division(p, root) -> np.ndarray:
    """Ascending quotient of p by (z - root).

    Raises NotARoot if the remainder p(root) exceeds ROOT_TOL times
    sum_i |p_i| |root|^i.
    """
    p = np.asarray(p, dtype=complex)
    q, rem = np.polydiv(p[::-1], [1.0, -root])
    residual = abs(rem[-1])
    if residual > ROOT_TOL * float(np.sum(np.abs(p) * abs(root) ** np.arange(len(p)))):
        raise NotARoot(f"residual {residual:.3e} at claimed root")
    return q[::-1]


def herm_check(M: np.ndarray, tol: float = 1e-12) -> None:
    M = np.asarray(M, dtype=complex)
    scale = max(float(np.max(np.abs(M))), 1e-300)
    if np.max(np.abs(M - M.conj().T)) > tol * scale * max(M.shape[0], 1):
        raise ValueError("matrix is not Hermitian within tolerance")


def pivot_scale(M) -> float:
    """The trace of a Hermitian M, or its largest entry if that is larger."""
    return max(float(np.trace(M).real), float(np.max(np.abs(M))), 1e-300)


def cholesky_herm(M) -> np.ndarray:
    """Upper-triangular U with M = U^H U for a Hermitian PSD matrix.

    Small negative pivots (>= -1e-8 * trace) are clamped to zero and the
    corresponding row skipped; a pivot below that raises NotPSD.
    """
    A = np.array(M, dtype=complex)
    herm_check(A)
    A = 0.5 * (A + A.conj().T)
    n = A.shape[0]
    tr = pivot_scale(A)
    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        d = A[j, j].real - float(np.sum(np.abs(L[j, :j]) ** 2))
        if d < -1e-8 * tr:
            raise NotPSD(f"pivot {d:.3e} at index {j}", d, j)
        if d <= CLAMP_TOL * tr:
            # clamped pivot: row contributes nothing
            continue
        L[j, j] = np.sqrt(d)
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ np.conj(L[j, :j])) / L[j, j]
    U = L.conj().T
    recon = U.conj().T @ U
    if np.linalg.norm(recon - A) > RECON_TOL * max(np.linalg.norm(A), 1e-300):
        raise NotPSD("reconstruction error too large after pivot clamping")
    return U


def solve_linear(M, rhs) -> np.ndarray:
    """Solve M X = rhs (rhs a vector or a matrix of columns) by LAPACK's LU.

    Raises Singular when the factorization meets an exactly zero pivot.
    """
    try:
        return np.linalg.solve(np.asarray(M, dtype=complex),
                               np.asarray(rhs, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise Singular(str(exc)) from exc
