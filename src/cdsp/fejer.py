"""Spectral factorization of the weight polynomial attached to a measure.

For atoms zeta_j with weights c_j the Laurent polynomial

    T(z) = prod_j |z - zeta_j|^2 + sum_j c_j prod_{i != j} |z - zeta_i|^2

is real and strictly positive on |z| = 1, so it factors as
d * prod_j |z - alpha_j|^2 with every alpha_j strictly outside the closed
unit disc and d > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
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

    def eval_circle(self, z):
        """Evaluate at points on (or near) the unit circle."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for m in range(-self.k, self.k + 1):
            acc = acc + self.coeff(m) * z ** m
        return acc


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
    pts = m.points
    wts = m.weights
    k = m.k
    full = np.ones(1, dtype=complex)
    for z in pts:
        full = np.convolve(full, _abs_sq_factor(z))
    # full has degree span -k..k already
    total = _pad_center(full, k)
    for j, cj in enumerate(wts):
        part = np.ones(1, dtype=complex)
        for i, zi in enumerate(pts):
            if i != j:
                part = np.convolve(part, _abs_sq_factor(zi))
        total = total + cj * _pad_center(part, k)
    return TrigPoly(k, total)


def _pad_center(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Pad Laurent coefficients centred on m=0 out to span -k..k."""
    half = (len(coeffs) - 1) // 2
    out = np.zeros(2 * k + 1, dtype=complex)
    out[k - half: k + half + 1] = coeffs
    return out


def factorize(t: TrigPoly, root_tol: float = 1e-12) -> FejerRiesz:
    """Split the 2k roots of z^k t(z) into reflection pairs and return the
    exterior half together with the positive constant d."""
    k = t.k
    poly = t.t  # z^k * t(z) as an ordinary polynomial, ascending
    roots = nx.poly_roots(poly, tol=root_tol)
    mods = np.abs(roots)
    if np.any((mods > 1.0 - CIRCLE_MARGIN) & (mods < 1.0 + CIRCLE_MARGIN)):
        raise RootOnCircle("factorization root within margin of the unit circle")
    outside = roots[mods > 1.0]
    inside = roots[mods < 1.0]
    if len(outside) != k or len(inside) != k:
        raise PairingFailure(f"expected {k} exterior roots, got {len(outside)}")
    # greedy nearest-match of each exterior root against reflected interior roots
    reflected = 1.0 / np.conj(inside)
    remaining = list(range(k))
    for a in outside:
        dists = [abs(a - reflected[i]) / max(abs(a), 1.0) for i in remaining]
        best = int(np.argmin(dists))
        if dists[best] > CIRCLE_MARGIN * 10:
            raise PairingFailure("reflection pairing mismatch")
        # a pair collapsing onto itself is a circle root split by solver noise
        if abs(a - inside[remaining[best]]) < 1e-6:
            raise RootOnCircle("reflection pair collapses onto the unit circle")
        remaining.pop(best)
    alphas = np.array(sorted(outside, key=lambda a: (np.angle(a), abs(a))),
                      dtype=complex)
    z0 = np.exp(0.7j)
    d0 = t.eval_circle(z0).real / np.prod(np.abs(z0 - alphas) ** 2)
    # cross-check the constant on an equi-spaced sample
    zs = np.exp(2j * np.pi * np.arange(4 * k + 16) / (4 * k + 16) + 0.123j)
    lhs = t.eval_circle(zs).real
    rhs = np.prod(np.abs(zs[:, None] - alphas[None, :]) ** 2, axis=1)
    ds = lhs / rhs
    if np.max(np.abs(ds - d0)) > 1e-8 * abs(d0):
        raise PairingFailure("factorization constant is not constant across samples")
    d = float(np.mean(ds))
    if d <= 0:
        raise PairingFailure("factorization constant is not positive")
    return FejerRiesz(alphas, d)


def verify_identity(t: TrigPoly, fr: FejerRiesz) -> float:
    """Max relative residual of the factorization identity t = d prod
    |z - alpha_j|^2 on 8k+32 equi-spaced circle samples."""
    n = 8 * t.k + 32
    zs = np.exp(2j * np.pi * np.arange(n) / n)
    lhs = t.eval_circle(zs).real
    rhs = fr.d * np.prod(np.abs(zs[:, None] - fr.alphas[None, :]) ** 2, axis=1)
    return float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))
