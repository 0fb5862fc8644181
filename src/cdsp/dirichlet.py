"""Outer function, atom basis functions, Gram matrix and reproducing kernels.

The outer-type function O = p/q has simple zeros at the atoms and poles at
the exterior factorization roots; the basis functions

    f_j(z) = O(z) / (O'(zeta_j) (z - zeta_j))

have a removable singularity at zeta_j, which is cancelled analytically by
deflating p with synthetic division before any evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .errors import DegenerateAtom, PoleHit
from .fejer import FejerRiesz
from .measure import Measure


@dataclass(frozen=True)
class OuterData:
    p: np.ndarray      # (e^{i theta}/sqrt(d)) prod (z - zeta_j), ascending coeffs
    q: np.ndarray      # prod (z - alpha_j)
    theta: float

    def eval(self, z):
        return nx.poly_eval(self.p, z) / nx.poly_eval(self.q, z)


@dataclass(frozen=True)
class DirichletData:
    measure: Measure
    outer: OuterData
    fprime_at_zeta: np.ndarray   # O'(zeta_j), nonzero
    deflated: tuple              # deflated[j] = p / (z - zeta_j), exact division
    D: np.ndarray                # k x k Hermitian Gram of the f_j
    B: np.ndarray                # D^{-1}
    gram_asymmetry: float        # max |D - D^H| before Hermitianization


def build_outer(m: Measure, fr: FejerRiesz) -> OuterData:
    """Normalize the phase so the outer function is positive at the origin."""
    p_raw = nx.poly_from_roots(m.points)
    q = nx.poly_from_roots(fr.alphas)
    ratio = p_raw[0] / q[0]
    theta = float(-np.angle(ratio))
    phase = np.exp(1j * theta)
    # snap to an exact real phase when the ratio is essentially real
    if abs(ratio.imag) <= 1e-12 * abs(ratio):
        phase = 1.0 if ratio.real > 0 else -1.0
        theta = 0.0 if ratio.real > 0 else float(np.pi)
    p = (phase / np.sqrt(fr.d)) * p_raw
    val0 = p[0] / q[0]
    assert abs(val0.imag) <= 1e-10 * abs(val0) and val0.real > 0
    return OuterData(p, q, theta)


def build_dirichlet(m: Measure, fr: FejerRiesz) -> DirichletData:
    outer = build_outer(m, fr)
    pts = np.array(m.points, dtype=complex)
    wts = np.array(m.weights, dtype=float)
    k = m.k
    deflated = tuple(nx.synthetic_division(outer.p, z) for z in pts)
    qz = nx.poly_eval(outer.q, pts)
    fprime = np.array([nx.poly_eval(deflated[j], pts[j]) / qz[j] for j in range(k)])
    if np.any(np.abs(fprime) <= 1e-10):
        raise DegenerateAtom("outer derivative vanishes at an atom")
    D = np.zeros((k, k), dtype=complex)
    qprime = nx.poly_derivative(outer.q)
    for i in range(k):
        # f_i = u/q with u = deflated_i / O'(zeta_i); diagonal is c_i zeta_i f_i'(zeta_i)
        u = deflated[i] / fprime[i]
        du = nx.poly_derivative(u)
        z = pts[i]
        fp = (nx.poly_eval(du, z) * qz[i] - nx.poly_eval(u, z) * nx.poly_eval(qprime, z)) / qz[i] ** 2
        D[i, i] = wts[i] * z * fp
        for j in range(k):
            if j != i:
                D[i, j] = 1.0 / (fprime[i] * np.conj(fprime[j]) * (1.0 - z * np.conj(pts[j])))
    asym = float(np.max(np.abs(D - D.conj().T)))
    D = 0.5 * (D + D.conj().T)
    B = nx.solve_linear(D, np.eye(k, dtype=complex))
    return DirichletData(m, outer, fprime, deflated, D, B, asym)


def eval_f(dd: DirichletData, j: int, z) -> complex:
    """Basis function f_j evaluated through its deflated polynomial; finite
    at z = zeta_j, raises PoleHit at the poles of the outer function."""
    qv = nx.poly_eval(dd.outer.q, z)
    if np.min(np.abs(np.atleast_1d(qv))) < 1e-13:
        raise PoleHit("evaluation at a pole of the outer function")
    return nx.poly_eval(dd.deflated[j], z) / (dd.fprime_at_zeta[j] * qv)


def eval_f_vector(dd: DirichletData, z) -> np.ndarray:
    qv = nx.poly_eval(dd.outer.q, z)
    return np.array([nx.poly_eval(dd.deflated[j], z) for j in range(dd.measure.k)]) \
        / (dd.fprime_at_zeta * qv)


def kernel_omu(dd: DirichletData, z: complex, lam: complex) -> complex:
    """Kernel of the closed subspace O H^2: O(z) conj(O(lam)) Szego factor."""
    return dd.outer.eval(z) * np.conj(dd.outer.eval(lam)) / (1.0 - np.conj(lam) * z)


def kernel_perp(dd: DirichletData, z: complex, lam: complex) -> complex:
    """Kernel of the orthogonal complement, via the inverse Gram matrix."""
    fz = eval_f_vector(dd, z)
    flam = eval_f_vector(dd, lam)
    g_conj = dd.B @ flam
    return complex(fz @ np.conj(g_conj))


def kernel_full(dd: DirichletData, z: complex, lam: complex) -> complex:
    """Reproducing kernel of the whole space (orthogonal decomposition)."""
    return kernel_omu(dd, z, lam) + kernel_perp(dd, z, lam)
