"""Independent operator-level cross-check on a truncated monomial model.

The shift acts on coefficient vectors of polynomials; its Gram matrix in
the weighted Dirichlet inner product has the closed form

    <z^n, z^m> = delta_nm + min(n, m) * s[n - m],   s[l] = sum_j c_j zeta_j^l

so G is built from the 2N - 1 values of the Toeplitz symbol s, and is
validated against direct 2-D quadrature of the defining integral before
being trusted (see gram_quadrature).

The shift is a 2-isometry whose defect M_z^* M_z - I has rank k: on the
model, H - Gm = sum_j c_j u_j u_j^H with u_j[i] = conj(zeta_j)^i, where
Gm = G[:-1, :-1] and H = G[1:, 1:].  The Cauchy dual is built from that
rank-k defect (see cauchy_dual_matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable, List

import numpy as np

from .errors import Overflow, Singular
from .measure import Measure


@dataclass(frozen=True)
class MonomialModel:
    N: int
    G: np.ndarray  # G[i, j] = <z^j, z^i>, so ||v||^2 = v^H G v
    measure: Measure


def monomial_gram(m: Measure, N: int) -> MonomialModel:
    if N < 4:
        raise ValueError("model needs N >= 4")
    pts = np.array(m.points, dtype=complex)
    wts = np.array(m.weights, dtype=float)
    idx = np.arange(N)
    mins = np.minimum(idx[:, None], idx[None, :]).astype(float)
    lags = np.arange(-(N - 1), N)
    symbol = np.sum(wts[:, None] * pts[:, None] ** lags, axis=0)  # s[l] at lags + N - 1
    phase = symbol[idx[None, :] - idx[:, None] + (N - 1)]  # s[j - i] at G[i, j]
    G = np.eye(N, dtype=complex) + mins * phase
    return MonomialModel(N, 0.5 * (G + G.conj().T), m)


def gram_quadrature(m: Measure, N: int, n_rad: int = 64,
                    angle_factor: float = 48.0, min_angle: int = 256) -> np.ndarray:
    """Gram matrix by direct quadrature of the weighted area integral:
    Gauss-Legendre in radius, trapezoid in angle.

    The harmonic weight concentrates in a band of width ~(1-r) around each
    atom, so the angular point count per ring scales like 1/(1-r); a fixed
    angular grid cannot resolve the outermost rings.
    """
    xs, ws = np.polynomial.legendre.leggauss(n_rad)
    rs = 0.5 * (xs + 1.0)
    wr = 0.5 * ws
    pts = np.array(m.points, dtype=complex)
    wts = np.array(m.weights, dtype=float)
    kmax = N - 1
    # ring-wise Fourier coefficients of the weight, c[k] for k = -(N-1)..N-1
    four = np.zeros((n_rad, 2 * kmax + 1), dtype=complex)
    for i, r in enumerate(rs):
        M = int(max(min_angle, np.ceil(angle_factor / (1.0 - r))))
        th = 2.0 * np.pi * np.arange(M) / M
        z = r * np.exp(1j * th)
        P = np.zeros(M)
        for zeta, c in zip(pts, wts):
            P += c * (1.0 - r * r) / np.abs(z - zeta) ** 2
        spec = np.fft.fft(P)
        for k in range(-kmax, kmax + 1):
            four[i, k + kmax] = (2.0 * np.pi / M) * spec[-k % M]
    G = np.eye(N, dtype=complex)
    for n in range(1, N):
        for mm in range(1, N):
            k = n - mm
            radial = np.sum(wr * rs ** (n + mm - 1) * four[:, k + kmax])
            G[mm, n] += (n * mm / np.pi) * radial
    return 0.5 * (G + G.conj().T)


def apply_mz(mm: MonomialModel, v: np.ndarray) -> np.ndarray:
    """Coefficient shift up by one; the model must have headroom."""
    v = np.asarray(v, dtype=complex)
    if abs(v[-1]) > 0:
        raise Overflow("top coefficient nonzero; shift would leave the model")
    out = np.zeros_like(v)
    out[1:] = v[:-1]
    return out


def norm_sq(mm: MonomialModel, v: np.ndarray) -> float:
    return float(np.real(np.conj(v) @ (mm.G @ v)))


def orbit_norms(mm: MonomialModel, v: np.ndarray, n: int,
                step: Callable[[np.ndarray], np.ndarray]) -> List[float]:
    """[||v||^2, ||T v||^2, ..., ||T^n v||^2] with T applied by ``step``;
    one norm_sq per vector of the orbit."""
    norms = [norm_sq(mm, v)]
    w = v
    for _ in range(n):
        w = step(w)
        norms.append(norm_sq(mm, w))
    return norms


def agler_forms(norms: List[float]) -> List[float]:
    """B_0, ..., B_n from norms[k] = ||T^k v||^2, each as the left-to-right
    sum  B_n = sum_k (-1)^k C(n, k) ||T^k v||^2."""
    forms = []
    for n in range(len(norms)):
        total = 0.0
        for k in range(n + 1):
            total += (-1) ** k * comb(n, k) * norms[k]
        forms.append(total)
    return forms


def bn_form(mm: MonomialModel, n: int, v: np.ndarray) -> float:
    """<B_n(M_z) v, v> via the norms-only telescoping evaluation; exact
    within the truncation given n steps of headroom."""
    v = np.asarray(v, dtype=complex)
    if np.any(np.abs(v[mm.N - n:]) > 0):
        raise Overflow(f"vector needs {n} coefficients of headroom")
    return agler_forms(orbit_norms(mm, v, n, partial(apply_mz, mm)))[n]


def cauchy_dual_matrix(mm: MonomialModel) -> np.ndarray:
    """Matrix of T (T^* T)^{-1} on the truncated model, with T^* the
    G-adjoint of the shift.

    The truncated shift annihilates the top basis vector, so T^*T is formed
    on the one-step-smaller domain where it is invertible; the final column
    of the result (where the dual cannot be represented in the model) is
    zero and probe vectors must stay clear of it.
    """
    N = mm.N
    G = mm.G
    H = G[1:, 1:]                         # <T e_j, T e_i>
    # T^*T = Gm^{-1} H on the domain with Gm = G[:-1, :-1] = H - U diag(c) U^H,
    # so (T^*T)^{-1} = H^{-1} Gm = I - H^{-1} U diag(c) U^H: k right-hand sides
    pts = np.array(mm.measure.points, dtype=complex)
    wts = np.array(mm.measure.weights, dtype=float)
    U = pts.conj()[None, :] ** np.arange(N - 1)[:, None]
    try:
        HiU = np.linalg.solve(H, U)
    except np.linalg.LinAlgError as exc:
        raise Singular("T^*T not invertible on the model") from exc
    Tp = np.zeros((N, N), dtype=complex)
    # T moves row i of (T^*T)^{-1} to row i + 1
    Tp[1:, : N - 1] = np.eye(N - 1) - HiU @ (wts[:, None] * U.conj().T)
    return Tp


def dual_norm(mm: MonomialModel, Tp: np.ndarray) -> float:
    """Norm of the Cauchy dual restricted to its domain (the model minus
    the top basis vector, where the construction is meaningful)."""
    N = mm.N
    R = np.linalg.cholesky(mm.G).conj().T
    Rm = np.linalg.cholesky(mm.G[:-1, :-1]).conj().T
    mid = R @ Tp[:, : N - 1] @ np.linalg.inv(Rm)
    return float(np.linalg.norm(mid, 2))


def bn_dual_probe(m: Measure, n_max: int, trials: int, N: int,
                  seed: int = 0) -> dict:
    """Most negative normalized Agler form value of the Cauchy dual over
    random test vectors, with an N vs 2N stabilization comparison.

    ``per_size[size]`` also carries the model and its dual matrix under
    "model" and "dual", so a caller can reuse them instead of rebuilding."""
    rng = np.random.default_rng(seed)
    results = {}
    for size in (N, 2 * N):
        mm = monomial_gram(m, size)
        Tp = cauchy_dual_matrix(mm)
        worst = 0.0
        witness = None
        for trial in range(trials):
            v = np.zeros(size, dtype=complex)
            support = size // 2
            v[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
            norms = orbit_norms(mm, v, n_max, lambda w: Tp @ w)
            forms = agler_forms(norms)
            for n in range(1, n_max + 1):
                val = forms[n] / norms[0]
                if val < worst:
                    worst = val
                    witness = (n, trial)
        results[size] = {"most_negative": worst, "witness": witness,
                         "model": mm, "dual": Tp}
    a, b = results[N]["most_negative"], results[2 * N]["most_negative"]
    caution = abs(a - b) > 0.1 * max(abs(a), abs(b), 1e-12)
    return {"N": N, "per_size": results, "most_negative": b,
            "witness": results[2 * N]["witness"], "truncation_caution": caution}
