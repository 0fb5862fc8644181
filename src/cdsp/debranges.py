"""Hermitian form S(z,u) = sum_j p_j(z) conj(p_j(u)), its coefficient matrix,
triangular factor, Schur function and kernel.

S is assembled from the rational expansion in the factors of the outer
function O = p/q,

    S(z,u) = q(z) conj(q(u)) - p(z) conj(p(u))
             - (1 - z conj(u)) sum_{j,i} W[j,i] d_j(z) conj(d_i(u)),

whose deflated numerators d_j = p/(z - zeta_j) are products that omit the
factor (z - zeta_j) (``OuterData.parts``), so S can be evaluated anywhere,
including at the atoms and at the exterior roots.  Its coefficient matrix C
is a discrete Fourier transform of S on the unit circle (``extract_C``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .dirichlet import DirichletData
from .errors import IllConditioned


@dataclass(frozen=True)
class HermForm:
    C: np.ndarray  # coefficient of z^m conj(u)^n at C[m-1, n-1], m,n = 1..k
    P: np.ndarray  # upper triangular, rows are coefficient vectors of p_j over z^1..z^k


def eval_S(dd: DirichletData, z, u) -> np.ndarray:
    """S on the grid of two 1-D point arrays: the len(z) x len(u) matrix
    outer(q(z), conj q(u)) - outer(p(z), conj p(u))
    - (1 - outer(z, conj u)) o (D(z)^T W conj D(u)), D the deflated
    numerators; polynomial in z and conj(u) after cancellation.  When u is
    z (the roots in ``PipelineResult``, the nodes in ``extract_C``) the
    parts are evaluated once and reused for u."""
    same = u is z
    z = np.asarray(z, dtype=complex)
    qz, pz, dz = dd.outer.parts(z)
    if same:
        u, qu, pu, du = z, qz, pz, dz
    else:
        u = np.asarray(u, dtype=complex)
        qu, pu, du = dd.outer.parts(u)
    return (np.outer(qz, np.conj(qu)) - np.outer(pz, np.conj(pu))
            - (1.0 - np.outer(z, np.conj(u))) * (dz.T @ dd.W @ np.conj(du)))


def extract_C(dd: DirichletData) -> HermForm:
    """Coefficients of z^m conj(u)^n (m,n = 1..k) from S on the k rotated
    k-th roots of unity, where V[a, m-1] = node_a^m has V^H V = k I: so
    S_grid = V C V^H gives C = V^H S_grid V / k^2, with no solve and no
    conditioning loss at any k.  The refit V C V^H of the Hermitized C
    misses S_grid by (S_grid^H - S_grid) / 2, which a correct evaluation
    of S leaves at rounding level, so S_grid itself is checked."""
    k = dd.measure.k
    nodes = np.exp(2j * np.pi * np.arange(k) / k + 0.37j)
    V = nodes[:, None] ** np.arange(1, k + 1)
    S_grid = eval_S(dd, nodes, nodes)
    scale = max(float(np.max(np.abs(S_grid))), 1e-300)
    if np.max(np.abs(S_grid - S_grid.conj().T)) > 2e-9 * scale:
        raise IllConditioned("coefficient refit residual too large")
    C = V.conj().T @ S_grid @ V / k ** 2
    C = 0.5 * (C + C.conj().T)
    return HermForm(C, factor_P(C))


def factor_P(C: np.ndarray) -> np.ndarray:
    """Upper triangular P with nonnegative diagonal such that the rows of P
    reproduce S: conj(C) = P^H P.

    LAPACK's C = L L^H gives conj(C) = (L^T)^H L^T, so P = L^T.  A C that
    LAPACK rejects, or whose smallest pivot falls where ``cholesky_herm``
    would clamp it, goes to ``cholesky_herm``, which clamps semidefinite
    pivots and raises NotPSD on indefinite C."""
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return nx.cholesky_herm(np.conj(C))
    # a NaN pivot fails the comparison, so it falls back too
    if not np.min(np.diag(L).real) ** 2 > nx.CLAMP_TOL * nx.pivot_scale(C):
        return nx.cholesky_herm(np.conj(C))
    return L.T


def eval_schur(dd: DirichletData, hf: HermForm, z: complex) -> np.ndarray:
    """Row vector B(z) = (p_1/q, ..., p_k/q): the rows of P over the pole
    polynomial q of the outer function."""
    zp = np.array([z ** m for m in range(1, len(hf.P) + 1)], dtype=complex)
    return (hf.P @ zp) / dd.outer.parts(z)[0]


def kernel_KB(dd: DirichletData, hf: HermForm, z: complex, w: complex) -> complex:
    """(1 - B(z) B(w)^*) / (1 - z conj(w))."""
    bz = eval_schur(dd, hf, z)
    bw = eval_schur(dd, hf, w)
    return complex((1.0 - np.sum(bz * np.conj(bw))) / (1.0 - z * np.conj(w)))
