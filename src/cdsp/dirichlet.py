"""Outer function, atom basis functions, Gram matrix and reproducing kernels.

The outer-type function O = p/q has simple zeros at the atoms and poles at
the exterior factorization roots; the basis functions

    f_j(z) = O(z) / (O'(zeta_j) (z - zeta_j))

have a removable singularity at zeta_j. O is held as its zeros, poles and
one constant; ``OuterData.parts`` forms p/(z - zeta_j) as the product that
omits the factor (z - zeta_j), so the cancellation is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .errors import DegenerateAtom
from .fejer import FejerRiesz, omit_one
from .measure import Measure


@dataclass(frozen=True)
class OuterData:
    """O = p/q with p = c prod (z - zeta_l) and q = prod (z - alpha_r)."""
    zetas: np.ndarray  # the atoms, zeros of O
    alphas: np.ndarray  # the exterior factorization roots, poles of O
    c: float           # 1 / sqrt(d)

    def parts(self, z):
        """(q(z), p(z), p_j(z)) for z of any shape; p_j = c prod_{l != j}
        (z - zeta_l) = p/(z - zeta_j) carries a leading axis of length k."""
        z = np.asarray(z, dtype=complex)
        lin = z[..., None] - self.zetas
        q = np.prod(z[..., None] - self.alphas, axis=-1)
        p = self.c * np.prod(lin, axis=-1)
        pj = self.c * np.moveaxis(omit_one(lin), -1, 0)
        return q, p, pj

    def eval(self, z):
        q, p, _ = self.parts(z)
        return p / q


@dataclass(frozen=True)
class DirichletData:
    measure: Measure
    outer: OuterData
    fprime_at_zeta: np.ndarray   # O'(zeta_j), nonzero
    D: np.ndarray                # k x k Hermitian Gram of the f_j
    B: np.ndarray                # D^{-1}
    W: np.ndarray                # W[j,i] = conj(B[j,i]) / (O'(zeta_j) conj(O'(zeta_i)))
    gram_asymmetry: float        # max |D - D^H| before Hermitianization


def build_outer(m: Measure, fr: FejerRiesz) -> OuterData:
    """O(0) = c prod zeta_j / prod alpha_j = c d (``fejer.factorize``), so
    c = 1/sqrt(d) makes the outer function positive at the origin."""
    return OuterData(m.points, fr.alphas, 1.0 / np.sqrt(fr.d))


def build_dirichlet(m: Measure, fr: FejerRiesz) -> DirichletData:
    outer = build_outer(m, fr)
    pts, k = outer.zetas, m.k
    qz, _, pj = outer.parts(pts)
    fprime = np.diagonal(pj) / qz
    if np.any(np.abs(fprime) <= 1e-10):
        raise DegenerateAtom("outer derivative vanishes at an atom")
    # f_i(zeta_i) = 1, so f_i'(zeta_i) is the logarithmic derivative of
    # prod_{l != i} (z - zeta_l) / q at zeta_i
    inv = 1.0 / np.where(np.eye(k, dtype=bool), np.inf, pts[:, None] - pts[None, :])
    fp = inv.sum(axis=1) - np.sum(1.0 / (pts[:, None] - outer.alphas[None, :]), axis=1)
    off = np.outer(fprime, np.conj(fprime)) * (1.0 - np.outer(pts, np.conj(pts)))
    D = (1.0 / np.where(np.eye(k, dtype=bool), np.inf, off)
         + np.diag(m.weights * pts * fp))
    asym = float(np.max(np.abs(D - D.conj().T)))
    D = 0.5 * (D + D.conj().T)
    B = nx.solve_linear(D, np.eye(k, dtype=complex))
    W = np.conj(B) / np.outer(fprime, np.conj(fprime))
    return DirichletData(m, outer, fprime, D, B, W, asym)


def eval_f_vector(dd: DirichletData, z) -> np.ndarray:
    """The basis functions f_1..f_k at z, through their deflated numerators,
    so finite at the atoms."""
    qv, _, pj = dd.outer.parts(z)
    return pj / (dd.fprime_at_zeta * qv)


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
