"""Spectral factorization of the weight polynomial attached to a measure.

For atoms zeta_j with weights c_j the Laurent polynomial

    T(z) = prod_j |z - zeta_j|^2 + sum_j c_j prod_{i != j} |z - zeta_i|^2

is real and strictly positive on |z| = 1, so it factors as
d * prod_j |z - alpha_j|^2 with every alpha_j strictly outside the closed
unit disc and d = 1 / prod_j |alpha_j| > 0.

On the circle T / prod_j |z - zeta_j|^2 = 1 - z sum_j c_j zeta_j / (z - zeta_j)^2
= 1 - e^T (zI - A)^{-1} b, with A the direct sum of the 2x2 Jordan blocks at
the atoms, e stacking e_1 and b_j = c_j zeta_j (1, zeta_j); by the matrix
determinant lemma the 2k roots of z^k T are the eigenvalues of A + b e^T
(Golub, SIAM Rev. 15, 1973).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import PairingFailure, RootOnCircle
from .measure import Measure

CIRCLE_MARGIN = 1e-7


@dataclass(frozen=True)
class TrigPoly:
    """Laurent coefficients t_m, m = -k..k, stored ascending in m."""
    k: int
    t: np.ndarray

    def coeff(self, m: int) -> complex:
        return complex(self.t[m + self.k])


@dataclass(frozen=True)
class FejerRiesz:
    alphas: np.ndarray  # k exterior roots
    d: float


def _abs_sq_factor(zeta: complex) -> np.ndarray:
    """Laurent coefficients of |z - zeta|^2 on the circle, m = -1..1."""
    return np.array([-zeta, 2.0, -np.conj(zeta)], dtype=complex)


def build_trig(m: Measure) -> TrigPoly:
    """Exact polynomial convolution of the (z - zeta)(1/z - conj(zeta))
    factors; no sampling involved."""
    factors = [_abs_sq_factor(z) for z in m.points]
    total = reduce(np.convolve, factors)
    for j, cj in enumerate(m.weights):
        # the product that omits atom j spans -(k-1)..k-1: pad it to -k..k
        rest = reduce(np.convolve, factors[:j] + factors[j + 1:], np.ones(1, dtype=complex))
        total = total + cj * np.pad(rest, 1)
    return TrigPoly(m.k, total)


def omit_one(x: np.ndarray) -> np.ndarray:
    """prod_{l != j} x[..., l] for every j, as the prefix product before j
    times the suffix product after it: O(k) work per row and no division,
    so a row with an exact zero at l gives exact zeros at every j != l."""
    out = np.ones_like(x)
    out[..., 1:] = np.cumprod(x[..., :-1], axis=-1)
    out[..., :-1] *= np.cumprod(x[..., :0:-1], axis=-1)[..., ::-1]
    return out


def trig_values(m: Measure, z) -> np.ndarray:
    """T at points z on the circle, summed in product form; every term is
    nonnegative and the omit-one products keep T finite at the atoms."""
    z = np.asarray(z, dtype=complex)
    sq = np.abs(z[..., None] - m.points) ** 2
    return np.prod(sq, axis=-1) + omit_one(sq) @ m.weights


def factorize(m: Measure) -> FejerRiesz:
    """Split the 2k roots of z^k T(z) into reflection pairs and return the
    exterior half together with the positive constant d."""
    k = m.k
    zetas = m.points
    w = m.weights * zetas
    A = np.diag(np.repeat(zetas, 2)) + np.diag(np.tile([1.0, 0.0], k)[:-1], 1)
    A[:, ::2] += np.column_stack([w, w * zetas]).reshape(-1, 1)  # + b e^T
    roots = np.linalg.eigvals(A)
    mods = np.abs(roots)
    if np.any((mods > 1.0 - CIRCLE_MARGIN) & (mods < 1.0 + CIRCLE_MARGIN)):
        raise RootOnCircle("factorization root within margin of the unit circle")
    outside = roots[mods > 1.0]
    inside = roots[mods < 1.0]
    if len(outside) != k or len(inside) != k:
        raise PairingFailure(f"expected {k} exterior roots, got {len(outside)}")
    # each exterior root must sit next to its own reflected interior root
    dist = (np.abs(outside[:, None] - 1.0 / np.conj(inside)[None, :])
            / np.maximum(np.abs(outside), 1.0)[:, None])
    match = np.argmin(dist, axis=1)
    # plain Python for the permutation test and the sort below: np.unique and
    # np.lexsort, which nothing else in the pipeline calls, add about 0.85 MB
    # to the resident set on first use (numpy 2.4, Linux x86-64)
    if np.max(dist[np.arange(k), match]) > CIRCLE_MARGIN * 10 or len(set(match.tolist())) < k:
        raise PairingFailure("reflection pairing mismatch")
    # a pair collapsing onto itself is a circle root split by solver noise
    if np.min(np.abs(outside - inside[match])) < 1e-6:
        raise RootOnCircle("reflection pair collapses onto the unit circle")
    # angle in turns, folded into [0, 1) on a 1e-9 grid, so that signed zeros
    # and solver noise cannot reorder roots of equal angle
    turns = np.mod(np.round(np.angle(outside) / (2 * np.pi) * 1e9), 1e9)
    alphas = outside[sorted(range(k), key=lambda i: (turns[i], abs(outside[i])))]
    # the z^{2k} coefficients of z^k T = d prod (z - alpha_j)(1 - conj(alpha_j) z)
    # and of prod (z - zeta_j)(1 - conj(zeta_j) z) give d prod conj(alpha_j)
    # = prod conj(zeta_j); verify_identity checks the whole identity
    d = float(1.0 / np.prod(np.abs(alphas)))
    return FejerRiesz(alphas, d)


def verify_identity(m: Measure, fr: FejerRiesz) -> float:
    """Max relative residual of the factorization identity T = d prod
    |z - alpha_j|^2 on 8k+32 equi-spaced circle samples."""
    n = 8 * m.k + 32
    zs = np.exp(2j * np.pi * np.arange(n) / n)
    lhs = trig_values(m, zs)
    rhs = fr.d * np.prod(np.abs(zs[:, None] - fr.alphas[None, :]) ** 2, axis=1)
    return float(np.max(np.abs(lhs - rhs) / lhs))
