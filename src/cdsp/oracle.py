"""Independent operator-level cross-check on a truncated monomial model.

The shift acts on coefficient vectors of polynomials; its Gram matrix in
the weighted Dirichlet inner product has the closed form

    <z^n, z^m> = delta_nm + min(n, m) * s[n - m],   s[l] = sum_j c_j zeta_j^l

so G is built from the N values s[0..N-1] of the Toeplitz symbol, with
s[-l] = conj(s[l]) (the tests validate it against direct 2-D quadrature of
the defining integral).

The shift is a 2-isometry whose defect M_z^* M_z - I has rank k: on the
model, H - Gm = sum_j c_j u_j u_j^H with u_j[i] = conj(zeta_j)^i, where
Gm = G[:-1, :-1] and H = G[1:, 1:].  The Cauchy dual, its norm and its
Agler forms are read from that rank-k defect (see cauchy_dual_matrix,
dual_norm and dual_forms).

Vectors are coefficient columns.  norm_sq and agler_forms also take a
block X, whose "norm" is the Gram matrix X^H G X: the Grams of one orbit
of the first s coordinate vectors give an operator's Agler forms on their
whole span, and whiten turns each form into the matrix whose eigenvalues
are its values there relative to that Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import List

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
        solved once per model for dual_forms, cauchy_dual_matrix and dual_norm."""
        U = self.measure.points.conj()[None, :] ** np.arange(self.N - 1)[:, None]
        try:
            return U, self.measure.weights, np.linalg.solve(self.G[1:, 1:], U)
        except np.linalg.LinAlgError as exc:
            raise Singular("T^*T not invertible on the model") from exc


def monomial_gram(m: Measure, N: int) -> MonomialModel:
    """The model of size N.  Each entry of G depends only on (i, j), so the
    leading n x n block of the size-N model's G is the size-n model's G,
    bit for bit; and s[-l] = conj(s[l]) makes G Hermitian bit for bit."""
    half = np.sum(m.weights[:, None] * m.points[:, None] ** np.arange(N), axis=0)
    symbol = np.concatenate((half[:0:-1].conj(), half))  # s[l] at l + N - 1
    # int32 halves the N x N temporary min(i, j): at 2N = 128 an int64 one is
    # large enough to be served from fresh memory pages on each call
    idx = np.arange(N, dtype=np.int32)
    # row i of the reversed windows is symbol[N - 1 - i:], so s[j - i] sits at G[i, j]
    G = np.multiply(np.minimum.outer(idx, idx), sliding_window_view(symbol, N)[::-1])
    G[idx, idx] += 1.0
    return MonomialModel(N, G, m)


def norm_sq(mm: MonomialModel, v: np.ndarray):
    """v^H G v: a real number for a vector, the Hermitian Gram matrix of the
    columns for a block."""
    Gv = mm.G @ v
    return (v.conj() @ Gv).real if v.ndim == 1 else v.conj().T @ Gv


def agler_forms(norms: List) -> List:
    """B_0, ..., B_n from norms[k] = ||T^k v||^2, each as the left-to-right
    sum  B_n = sum_k (-1)^k C(n, k) ||T^k v||^2 (entrywise for a block's
    Gram matrices).  One running sum over k forms every B_n in that order,
    so it gives the bits of a loop that adds the terms one by one."""
    x = np.asarray(norms)
    coef = _signed_binomials(len(x))
    coef = coef.reshape(coef.shape + (1,) * (x.ndim - 1))
    B = coef[:, 0] * x[0]
    for k in range(1, len(x)):
        B[k:] += coef[k:, k] * x[k]  # the k-th term of every B_n, n >= k
    return list(B)


@lru_cache(maxsize=8)
def _signed_binomials(size: int) -> np.ndarray:
    """coef[n, k] = (-1)^k C(n, k) for n, k < size (zero above k = n)."""
    return np.array([[(-1) ** k * comb(n, k) for k in range(size)]
                     for n in range(size)], dtype=float)


def cauchy_dual_matrix(mm: MonomialModel) -> np.ndarray:
    """Matrix of T (T^* T)^{-1} on the truncated model, with T^* the
    G-adjoint of the shift; the tests' dense reference for dual_forms.

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


def dual_forms(mm: MonomialModel, s: int, n: int) -> np.ndarray:
    """The s x s Grams N_j = X_j^H G X_j, j = 0..n, of the Cauchy dual's orbit
    X_j = T'^j E_s, by N_{j+1} = N_j - Z^H Q Z with no N x N product.  With
    x' = X_j[:-1], a = U^H x' and K = U^H H^{-1} U, T' maps X_j to
    [0; x' - H^{-1} U diag(c) a] and ||T'x||^2 = ||x'||^2_Gm - a^H (c - cKc) a
    (c for diag(c)), so Z = [a; g^H x'; x_top] and Q = [[c - cKc, 0, 0],
    [0, 0, 1], [0, 1, gamma]] with g = G[:-1, -1] and gamma = G[-1, -1]."""
    U, c, HiU = mm.defect
    k = len(c)
    W = np.vstack((U.conj().T, mm.G[None, :-1, -1].conj()))  # rows U^H and g^H
    Q = np.zeros((k + 2, k + 2), dtype=complex)
    Q[:k, :k] = np.diag(c) - c[:, None] * (W[:k] @ HiU) * c
    Q[k:, k:] = [[0.0, 1.0], [1.0, mm.G[-1, -1]]]
    forms = np.empty((n + 1, s, s), dtype=complex)
    forms[0] = mm.G[:s, :s]
    X = np.eye(mm.N, s, dtype=complex)
    Z = np.empty((k + 2, s), dtype=complex)
    for j in range(n):
        np.matmul(W, X[:-1], out=Z[:-1])
        Z[-1] = X[-1]
        np.subtract(forms[j], Z.conj().T @ (Q @ Z), out=forms[j + 1])
        X[1:] = X[:-1] - HiU @ (c[:, None] * Z[:k])
        X[0] = 0.0
    return forms


def whiten(forms):
    """(L^{-H}, W) for each B_n, n >= 1, relative to forms[..., 0, :, :],
    where forms[..., j, :, :] is the Gram of T^j on a subspace:
    W[..., n - 1, :, :] = L^{-1} B_n L^{-H} with forms[..., 0, :, :] = L L^H,
    whose eigenvalues are those of B_n relative to that Gram and whose
    eigenvector y gives the coefficient column L^{-H} y.  A family on the
    leading axes gets a lone call's bits."""
    forms = np.asarray(forms)
    Li = np.linalg.inv(np.linalg.cholesky(forms[..., 0, :, :]))[..., None, :, :]
    Lih = np.swapaxes(Li.conj(), -1, -2)
    B = np.stack(agler_forms(np.moveaxis(forms, -3, 0))[1:], axis=-3)
    return Lih, Li @ B @ Lih


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
    the N model (``model``) is its leading block.  The same eigen-solve, one
    batched ``eigvalsh`` of the whitened forms, reads every eigenvalue of the
    shift's forms on E_s of the N model, the slides G[j:j+s, j:j+s]
    (``shift_eig``); the witness's eigenvector alone comes from an ``eigh``."""
    big = monomial_gram(m, 2 * N)
    small = MonomialModel(N, np.ascontiguousarray(big.G[:N, :N]), m)
    s = min(max(8, 2 * m.k), N - 8)
    Lih, W = whiten(np.stack((dual_forms(small, s, n_max), dual_forms(big, s, n_max),
                              [small.G[j:j + s, j:j + s] for j in range(n_max + 1)])))
    lam = np.linalg.eigvalsh(W)
    low, high = lam[0, :, 0], lam[1, :, 0]
    floor = FLOOR * 2.0 ** np.arange(1, n_max + 1) * 2 * N * UNIT_ROUNDOFF
    below = high < -floor
    stable = np.abs(high - low) <= AGREEMENT * np.abs(low)
    witness = None
    if np.any(below & stable):
        n = int(np.argmin(np.where(below & stable, high, np.inf)))
        v = (Lih[1, 0] @ np.linalg.eigh(W[1, n])[1])[:, 0]
        top = v[np.argmax(np.abs(v))]
        witness = {"order": n + 1, "vector": (v * (abs(top) / top)).tolist()}
    return {"s": s, "model": small, "min_eig": {N: lam[0], 2 * N: lam[1]},
            "shift_eig": lam[2], "floor": floor, "most_negative": float(high.min()),
            "witness": witness, "truncation_caution": bool(np.any(below & ~stable))}
