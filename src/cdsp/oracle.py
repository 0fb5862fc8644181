"""Independent operator-level cross-check on a truncated monomial model.

The shift acts on coefficient vectors of polynomials; its Gram matrix in
the weighted Dirichlet inner product has the closed form

    <z^n, z^m> = delta_nm + min(n, m) * s[n - m],   s[l] = sum_j c_j zeta_j^l

so G is built from the 2N - 1 values of the Toeplitz symbol s (the tests
validate it against direct 2-D quadrature of the defining integral).

The shift is a 2-isometry whose defect M_z^* M_z - I has rank k: on the
model, H - Gm = sum_j c_j u_j u_j^H with u_j[i] = conj(zeta_j)^i, where
Gm = G[:-1, :-1] and H = G[1:, 1:].  The Cauchy dual and its norm are
read from that rank-k defect (see dual_step, cauchy_dual_matrix and
dual_norm).

Vectors are coefficient columns.  norm_sq, orbit_norms and agler_forms
also take a block X, whose "norm" is the Gram matrix X^H G X: one orbit of
the first s coordinate vectors gives an operator's Agler forms on their
whole span, and agler_eigs reads each form's extreme values there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Callable, List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import Singular
from .measure import Measure


@dataclass(frozen=True)
class MonomialModel:
    N: int
    G: np.ndarray  # G[i, j] = <z^j, z^i>, so ||v||^2 = v^H G v
    measure: Measure

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("model needs N >= 4")

    @cached_property
    def defect(self):
        """(U, c, H^{-1} U) for the rank-k defect H - Gm = U diag(c) U^H,
        solved once per model for dual_step, cauchy_dual_matrix and dual_norm."""
        U = self.measure.points.conj()[None, :] ** np.arange(self.N - 1)[:, None]
        try:
            return U, self.measure.weights, np.linalg.solve(self.G[1:, 1:], U)
        except np.linalg.LinAlgError as exc:
            raise Singular("T^*T not invertible on the model") from exc


def monomial_gram(m: Measure, N: int) -> MonomialModel:
    """The model of size N.  Each entry of G depends only on (i, j), so the
    leading n x n block of the size-N model's G is the size-n model's G,
    bit for bit."""
    lags = np.arange(-(N - 1), N)
    symbol = np.sum(m.weights[:, None] * m.points[:, None] ** lags, axis=0)  # s[l] at lags + N - 1
    # int32 halves the N x N temporary min(i, j): at 2N = 128 an int64 one is
    # large enough to be served from fresh memory pages on each call
    idx = np.arange(N, dtype=np.int32)
    # row i of the reversed windows is symbol[N - 1 - i:], so s[j - i] sits at G[i, j]
    G = np.multiply(np.minimum.outer(idx, idx), sliding_window_view(symbol, N)[::-1])
    G[idx, idx] += 1.0
    G += G.conj().T  # conj() copies, so the transpose does not alias G
    G *= 0.5
    return MonomialModel(N, G, m)


def norm_sq(mm: MonomialModel, v: np.ndarray):
    """v^H G v: a real number for a vector, the Hermitian Gram matrix of the
    columns for a block."""
    Gv = mm.G @ v
    return (v.conj() @ Gv).real if v.ndim == 1 else v.conj().T @ Gv


def orbit_norms(mm: MonomialModel, v: np.ndarray, n: int,
                step: Callable[[np.ndarray], np.ndarray]) -> List:
    """[||v||^2, ||T v||^2, ..., ||T^n v||^2] with T applied by ``step``;
    one norm_sq per power, of a vector or of a whole block (whose "norms"
    are Gram matrices)."""
    norms = [norm_sq(mm, v)]
    w = v
    for _ in range(n):
        w = step(w)
        norms.append(norm_sq(mm, w))
    return norms


def agler_forms(norms: List) -> List:
    """B_0, ..., B_n from norms[k] = ||T^k v||^2, each as the left-to-right
    sum  B_n = sum_k (-1)^k C(n, k) ||T^k v||^2 (entrywise for a block's
    Gram matrices).  One cumulative sum along k forms every B_n in that order,
    so it gives the bits of a loop that adds the terms one by one."""
    x = np.asarray(norms)
    coef = _signed_binomials(len(norms))
    terms = coef.reshape(coef.shape + (1,) * (x.ndim - 1)) * x  # [n, k, ...]
    ks = np.arange(len(norms))
    return list(np.cumsum(terms, axis=1)[ks, ks])


@lru_cache(maxsize=8)
def _signed_binomials(size: int) -> np.ndarray:
    """coef[n, k] = (-1)^k C(n, k) for n, k < size (zero above k = n)."""
    return np.array([[(-1) ** k * comb(n, k) for k in range(size)]
                     for n in range(size)], dtype=float)


def dual_step(mm: MonomialModel) -> Callable[[np.ndarray], np.ndarray]:
    """T (T^*T)^{-1} as a step for orbit_norms: the product with
    cauchy_dual_matrix(mm), applied to a vector or block w through the rank-k
    defect with two (N - 1) x k products instead of one N x N product.
    Like the matrix, it ignores w's top coefficient."""
    U, c, HiU = mm.defect
    cUh = c[:, None] * U.conj().T

    def step(w: np.ndarray) -> np.ndarray:
        out = np.empty(w.shape, dtype=complex)
        out[0] = 0.0
        np.subtract(w[:-1], HiU @ (cUh @ w[:-1]), out=out[1:])
        return out

    return step


def cauchy_dual_matrix(mm: MonomialModel) -> np.ndarray:
    """Matrix of T (T^* T)^{-1} on the truncated model, with T^* the
    G-adjoint of the shift; the dense reference for dual_step.

    The truncated shift annihilates the top basis vector, so T^*T is formed
    on the one-step-smaller domain where it is invertible; the final column
    of the result (where the dual cannot be represented in the model) is
    zero and probe vectors must stay clear of it.
    """
    N = mm.N
    # T^*T = Gm^{-1} H on the domain with Gm = H - U diag(c) U^H,
    # so (T^*T)^{-1} = H^{-1} Gm = I - H^{-1} U diag(c) U^H: k right-hand sides
    U, c, HiU = mm.defect
    # written in place, as N x N temporaries at 2N = 128 cost fresh memory pages
    Tp = np.zeros((N, N), dtype=complex)
    inv = Tp[1:, : N - 1]  # T moves row i of (T^*T)^{-1} to row i + 1
    np.matmul(HiU, c[:, None] * U.conj().T, out=inv)
    np.negative(inv, out=inv)
    diag = np.arange(N - 1)
    inv[diag, diag] += 1.0
    return Tp


def dual_norm(mm: MonomialModel) -> float:
    """Norm of the Cauchy dual restricted to its domain (the model minus
    the top basis vector, where the construction is meaningful).

    ||T'||^2 = ||T'^* T'|| = ||(T^*T)^{-1}||, and (T^*T)^{-1} =
    I - H^{-1} U diag(c) U^H is self-adjoint for Gm.  It is 1 on the kernel
    of U^H, and its other eigenvalues are 1 - mu for the largest
    min(N - 1, k) eigenvalues mu of the k x k Hermitian
    diag(c)^{1/2} U^H H^{-1} U diag(c)^{1/2} (the atoms are distinct, so
    U has full rank).
    """
    U, c, HiU = mm.defect
    k = len(c)
    rank = min(mm.N - 1, k)
    r = np.sqrt(c)
    mu = np.linalg.eigvalsh(r[:, None] * (U.conj().T @ HiU) * r)  # ascending
    top = 1.0 - mu[k - rank]
    if rank < mm.N - 1:
        top = max(top, 1.0)
    return float(np.sqrt(top))


def agler_eigs(forms: List[np.ndarray]):
    """Eigenvalues lam[n - 1] (ascending) and eigenvectors vecs[n - 1] of each
    B_n, n >= 1, relative to forms[0], where forms[j] is the Gram of T^j on
    a subspace: the eigenpairs of L^{-1} B_n L^{-H} (forms[0] = L L^H), with
    the vectors as coefficient columns of unit norm."""
    Li = np.linalg.inv(np.linalg.cholesky(forms[0]))
    lam, Y = np.linalg.eigh(Li @ np.stack(agler_forms(forms)[1:]) @ Li.conj().T)
    return lam, Li.conj().T @ Y


# B_n sums 2^n-weighted Gram entries, each with about N * u of rounding, so
# only a value below -FLOOR * 2^n * N * u counts as a violation
FLOOR = 10.0
AGREEMENT = 0.1  # a witness's 2N value lies this close to its N value, relatively
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def bn_dual_probe(m: Measure, n_max: int, N: int) -> dict:
    """The smallest eigenvalue of each Agler form B_1..B_n_max of the Cauchy
    dual on the span E_s of the first s = min(max(8, 2k), N - 8) monomials,
    on the models of size N and 2N (``min_eig``, keyed by size).

    The witness is the order whose 2N value is the most negative of those
    below the floor and within AGREEMENT of their N value, with its unit-norm
    eigenvector, phased so that its largest entry is positive; None if no
    order qualifies.  An order below the floor whose N and 2N values
    disagree sets ``truncation_caution``.  The Gram is built once, at 2N;
    the N model (``model``) is its leading block."""
    big = monomial_gram(m, 2 * N)
    small = MonomialModel(N, np.ascontiguousarray(big.G[:N, :N]), m)
    s = min(max(8, 2 * m.k), N - 8)
    lam, vecs = {}, {}
    for mm in (small, big):
        E = np.eye(mm.N, s, dtype=complex)
        lam[mm.N], vecs[mm.N] = agler_eigs(orbit_norms(mm, E, n_max, dual_step(mm)))
    low, high = lam[N][:, 0], lam[2 * N][:, 0]
    floor = FLOOR * 2.0 ** np.arange(1, n_max + 1) * 2 * N * UNIT_ROUNDOFF
    below = high < -floor
    stable = np.abs(high - low) <= AGREEMENT * np.abs(low)
    witness = None
    if np.any(below & stable):
        n = int(np.argmin(np.where(below & stable, high, np.inf)))
        v = vecs[2 * N][n][:, 0]
        top = v[np.argmax(np.abs(v))]
        witness = {"order": n + 1, "vector": (v * (abs(top) / top)).tolist()}
    return {"s": s, "model": small, "min_eig": lam, "floor": floor,
            "most_negative": float(high.min()), "witness": witness,
            "truncation_caution": bool(np.any(below & ~stable))}
