"""Complex scalar / polynomial / matrix primitives.

Polynomials are 1-D complex ndarrays in ascending degree order; matrices are
2-D complex ndarrays.  Everything here is pure and operates on immutable
values (arrays are never mutated in place by callers' view).
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, NotARoot, NotPSD, Singular

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# cholesky_herm's bound on ||U^H U - M|| relative to ||M||
RECON_TOL = 1e-9
# cholesky_herm clamps a pivot at or below CLAMP_TOL * pivot_scale(M)
CLAMP_TOL = 1e-14


def as_poly(coeffs) -> np.ndarray:
    """Normalize to a complex ascending-degree coefficient array, stripping
    trailing (near-)zero leading coefficients."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    nz = np.nonzero(np.abs(c) > 1e-300)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)


def poly_eval(p, z):
    """Horner evaluation of p at z (scalar or array)."""
    p = np.asarray(p, dtype=complex)
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in p[::-1]:
        acc = acc * z + c
    return acc if acc.shape else complex(acc)


def poly_derivative(p) -> np.ndarray:
    """Coefficient-wise formal derivative."""
    p = as_poly(p)
    if len(p) == 1:
        return np.zeros(1, dtype=complex)
    return p[1:] * np.arange(1, len(p), dtype=complex)


def _poly_scale_at(p: np.ndarray, z: complex) -> float:
    """Magnitude scale of p near z, for residual normalization."""
    az = abs(z)
    return float(np.sum(np.abs(p) * az ** np.arange(len(p)))) + 1e-300


def poly_roots(p, tol: float = 1e-12, max_sweeps: int = 500) -> np.ndarray:
    """All complex roots with multiplicity via Aberth-Ehrlich simultaneous
    iteration, followed by Newton polishing.

    Initial guesses sit on a circle of radius 1 + max coefficient ratio,
    spread by golden-angle phases; robust for the clustered cube-root
    configurations this pipeline produces.
    """
    p = as_poly(p)
    n = len(p) - 1
    if n < 1:
        raise ValueError("poly_roots requires degree >= 1")
    # deflate exact zero roots (vanishing low-order coefficients)
    lead_scale = np.max(np.abs(p))
    nlow = 0
    while nlow < n and abs(p[nlow]) <= 1e-300 * lead_scale:
        nlow += 1
    zeros_at_origin = np.zeros(nlow, dtype=complex)
    p = p[nlow:]
    n = len(p) - 1
    if n == 0:
        return zeros_at_origin
    mon = p / p[-1]
    r0 = 1.0 + np.max(np.abs(mon[:-1]))
    ks = np.arange(n)
    z = r0 * np.exp(1j * (GOLDEN_ANGLE * ks + 0.5)) * (1.0 + 0.05 * ks / max(n, 1))
    dp = poly_derivative(mon)
    for _ in range(max_sweeps):
        pv = poly_eval(mon, z)
        scale = np.array([_poly_scale_at(mon, zi) for zi in z])
        if np.all(np.abs(pv) <= tol * scale):
            break
        dv = poly_eval(dp, z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repel = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repel
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        z = z - step
    else:
        raise NonConvergence("Aberth-Ehrlich failed to reach residual target")
    # Newton polish
    for _ in range(4):
        pv = poly_eval(mon, z)
        dv = poly_eval(dp, z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        z = z - pv / dv
    pv = np.abs(poly_eval(mon, z))
    scale = np.array([_poly_scale_at(mon, zi) for zi in z])
    if np.any(pv > max(tol, 1e-10) * scale):
        raise NonConvergence("root polishing left a large residual")
    return np.concatenate([zeros_at_origin, z])


def synthetic_division(p, root, tol: float = 1e-8) -> np.ndarray:
    """Quotient of p by (z - root); the remainder must be negligible.

    Raises NotARoot if |p(root)| exceeds tol times the local scale of p.
    """
    p = as_poly(p)
    scale = _poly_scale_at(p, root)
    if abs(poly_eval(p, root)) > tol * scale:
        raise NotARoot(f"residual {abs(poly_eval(p, root)):.3e} at claimed root")
    n = len(p) - 1
    q = np.zeros(n, dtype=complex)
    acc = p[n]
    for i in range(n - 1, -1, -1):
        q[i] = acc
        acc = p[i] + acc * root
    return q


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
