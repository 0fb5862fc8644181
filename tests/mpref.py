"""High-precision shadow of the pipeline, the tests' one reference.

``factorization(spec)`` takes a measure's exact turns and float weights to
T's Laurent coefficients, all 2k roots of z^k T (``mp.polyroots``), alpha in
``factorize``'s order and d; ``shadow(spec)`` adds O'(zeta_j), D, B, W, S at
every root pair and C by the k-node DFT, and ``probe_spectra(spec)`` the
spectrum of each k x k probe form (``mp.eighe``): all at DPS digits, on numpy
object arrays of mpmath numbers, once per spec.  ``eval_S_mp`` and
``dft_C_mp`` start from the float pipeline's alpha, d and B instead, so they
measure the rounding of the evaluation alone.  ``three_point`` holds the
paper's closed forms, which the ref3 shadow must meet.  ``agler_min_eigs``
builds the operator oracle's Agler forms of the Cauchy dual on the monomial
model from the exact atoms.
"""

from functools import lru_cache, reduce
from math import comb
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from cdsp import NumericPolicy, parse_measure

DPS = 40


def _mp(values) -> np.ndarray:
    return np.array([mp.mpc(v) for v in values], dtype=object)


def _omit(lin) -> np.ndarray:
    """prod over the last axis of ``lin`` without entry j, for every j."""
    ones = np.full(lin.shape[:-1] + (1,), mp.mpc(1), dtype=object)
    prefix = np.cumprod(np.concatenate([ones, lin[..., :-1]], axis=-1), axis=-1)
    suffix = np.cumprod(np.concatenate([ones, lin[..., :0:-1]], axis=-1), axis=-1)
    return prefix * suffix[..., ::-1]


class Form:
    """O = c prod (z - zeta_l) / prod (z - alpha_r) with c = 1/sqrt(d), O' at
    the atoms and S through W = conj(B) / (O' O'^H); without a given B, the
    Gram matrix D is built from the weights and inverted.  Use inside
    ``mp.workdps(DPS)``."""

    def __init__(self, zetas, alphas, d, weights=None, B=None):
        z, a = self.zetas, self.alphas = _mp(zetas), _mp(alphas)
        self.c = 1 / mp.sqrt(d)
        q, _, pj = self.parts(z)
        op = self.fprime = pj.diagonal() / q
        if B is None:
            # f_i(zeta_i) = 1 makes f_i'(zeta_i) the logarithmic derivative
            # of prod_{l != i} (z - zeta_l) / q at zeta_i
            fp = [mp.fsum(1 / (zi - np.delete(z, i))) - mp.fsum(1 / (zi - a))
                  for i, zi in enumerate(z)]
            off = np.outer(op, np.conj(op)) * (1 - np.outer(z, np.conj(z)))
            np.fill_diagonal(off, 1)
            self.D = 1 / off
            np.fill_diagonal(self.D, np.array(weights) * z * fp)
            B = np.array(mp.inverse(mp.matrix(self.D.tolist())).tolist(), dtype=object)
        self.B, self.W = B, np.conj(B) / np.outer(op, np.conj(op))

    def parts(self, x):
        """q(x), p(x) and the deflated numerators p_j(x) = p(x) / (x - zeta_j)."""
        lin = x[:, None] - self.zetas
        return (np.prod(x[:, None] - self.alphas, axis=1),
                self.c * np.prod(lin, axis=1), self.c * _omit(lin))

    def S(self, zs, us) -> np.ndarray:
        """S(z, u) = q(z) conj q(u) - p(z) conj p(u)
        - (1 - z conj u) sum_{j,i} W[j,i] p_j(z) conj p_i(u) on the grid zs x us."""
        zs, us = _mp(zs), _mp(us)
        (qz, pz, dz), (qu, pu, du) = self.parts(zs), self.parts(us)
        return (np.outer(qz, np.conj(qu)) - np.outer(pz, np.conj(pu))
                - (1 - np.outer(zs, np.conj(us))) * (dz @ self.W @ np.conj(du).T))

    def C(self) -> np.ndarray:
        """C = V^H S_grid V / k^2 on ``extract_C``'s k nodes, V[a, m-1] = node_a^m."""
        k = len(self.zetas)
        nodes = _mp(mp.expj(2 * mp.pi * a / k + mp.mpf("0.37")) for a in range(k))
        V = nodes[:, None] ** np.arange(1, k + 1)
        return np.conj(V).T @ self.S(nodes, nodes) @ V / k ** 2


def eval_S_mp(dd, d, zs, us) -> np.ndarray:
    """S on the grid zs x us from the pipeline's atoms, roots, d and B."""
    with mp.workdps(DPS):
        return Form(dd.outer.zetas, dd.outer.alphas, d, B=dd.B).S(zs, us).astype(complex)


def dft_C_mp(dd, d) -> np.ndarray:
    """C by the k-node DFT of ``eval_S_mp``'s S."""
    with mp.workdps(DPS):
        return Form(dd.outer.zetas, dd.outer.alphas, d, B=dd.B).C().astype(complex)


@lru_cache(maxsize=None)
def factorization(spec: str) -> SimpleNamespace:
    """The atoms, weights, T's Laurent coefficients (m = -k..k), the 2k roots
    of z^k T, the k exterior ones in ``factorize``'s order and d."""
    m = parse_measure(spec)
    with mp.workdps(DPS):
        zetas = [mp.expjpi(2 * mp.mpf(t.numerator) / t.denominator) for t in m.turns]
        weights = [mp.mpf(w) for w in m.weights.tolist()]
        # |z - zeta|^2 = -zeta z^-1 + 2 - conj(zeta) z on the circle
        quad = [_mp([-z, 2, -mp.conj(z)]) for z in zetas]
        T = reduce(np.convolve, quad)
        for j, cj in enumerate(weights):
            rest = reduce(np.convolve, quad[:j] + quad[j + 1:], _mp([cj]))
            T = T + np.pad(rest, 1, constant_values=mp.mpc(0))
        # numpy's roots only seed the iteration, which runs until every
        # correction is below DPS digits
        roots = mp.polyroots(T[::-1].tolist(), maxsteps=100, extraprec=2 * DPS,
                             roots_init=np.roots(T[::-1].astype(complex)).tolist())
        # factorize's order: angle in turns on a 1e-9 grid in [0, 1), then modulus
        alphas = sorted((r for r in roots if abs(r) > 1), key=lambda r: (
            int(mp.nint(mp.arg(r) / (2 * mp.pi) * 10 ** 9)) % 10 ** 9, abs(r)))
        # the z^{2k} coefficient of z^k T = d prod (z - alpha_j)(1 - conj(alpha_j) z)
        d = abs(T[-1]) / mp.fprod(abs(a) for a in alphas)
    return SimpleNamespace(zetas=zetas, weights=weights, T=T, roots=roots, alphas=alphas, d=d)


@lru_cache(maxsize=None)
def shadow(spec: str) -> SimpleNamespace:
    """``factorization`` plus O', D, B, W, S[r, t] = S(alpha_r, alpha_t) and C."""
    fz = factorization(spec)
    with mp.workdps(DPS):
        form = Form(fz.zetas, fz.alphas, fz.d, weights=fz.weights)
        return SimpleNamespace(**vars(fz), fprime=form.fprime, D=form.D, B=form.B, W=form.W,
                               S=form.S(fz.alphas, fz.alphas), C=form.C())


@lru_cache(maxsize=None)
def probe_spectra(spec: str) -> list:
    """The eigenvalues, ascending, of K_l = kappa o gamma^l for l = 1 to the
    policy's default l_max: kappa = S / (a a^H), a_r = prod_{t != r}
    (alpha_r - alpha_t) and gamma_rt = 1 - 1 / (alpha_r conj(alpha_t))."""
    sh = shadow(spec)
    with mp.workdps(DPS):
        a = _mp(sh.alphas)
        diff = _omit(a[:, None] - a).diagonal()
        kappa = sh.S / np.outer(diff, np.conj(diff))
        gamma = 1 - 1 / np.outer(a, np.conj(a))
        return [sorted(mp.eighe(mp.matrix(((K + np.conj(K).T) / 2).tolist()), eigvals_only=True))
                for K in (kappa * gamma ** l for l in range(1, NumericPolicy().l_max + 1))]


def three_point() -> dict:
    """The closed forms for atoms 0, 1/3, 2/3 of unit weight: b = (11 + 3
    sqrt 13)/2, x = (sqrt 13 - 1)/2, w = e^{2 pi i/3}, s = 1/(w - 1), the
    diagonal (c1, c2, c3) of C and S(z, u) = c1 t + c2 t^2 + c3 t^3 with
    t = z conj(u), to call inside ``mp.workdps(DPS)``."""
    with mp.workdps(DPS):
        b, x = (11 + 3 * mp.sqrt(13)) / 2, (mp.sqrt(13) - 1) / 2
        w = mp.expjpi(mp.mpf(2) / 3)
        c = (3 * b / (x * (x - 1)), 3 * b / (x * (x + 1)), (1 - b) + 3 * b / (x + 1))
        return {"b": b, "x": x, "s": 1 / (w - 1), "c": c,
                "S": lambda z, u: sum(cm * (z * mp.conj(u)) ** m for m, cm in enumerate(c, 1))}


def _matmul(A, B) -> np.ndarray:
    """A @ B on object arrays of mpmath numbers, one ``mp.fdot`` per entry."""
    return np.array([[mp.fdot(row, col) for col in B.T] for row in A], dtype=object)


def _chol_solve(L, B) -> np.ndarray:
    """X with L L^H X = B, for lower triangular L: two substitutions."""
    Y, X, Lh = np.empty_like(B), np.empty_like(B), np.conj(L).T
    for i in range(len(L)):
        Y[i] = (B[i] - _matmul(L[i:i + 1, :i], Y[:i])[0]) / L[i, i]
    for i in reversed(range(len(L))):
        X[i] = (Y[i] - _matmul(Lh[i:i + 1, i + 1:], X[i + 1:])[0]) / Lh[i, i]
    return X


@lru_cache(maxsize=None)
def agler_min_eigs(spec: str, N: int, s: int, n_max: int) -> list:
    """The smallest eigenvalue of each Agler form B_1..B_n_max of the Cauchy
    dual T' on the span of the first s monomials, relative to their Gram, on
    the model of size N: ``oracle.bn_dual_probe``'s forms from the exact
    atoms.  T' w = shift((I - H^{-1} U diag(c) U^H) w[:-1]) with H = G[1:, 1:]
    and U[i, j] = conj(zeta_j)^i."""
    fz = factorization(spec)
    with mp.workdps(DPS):
        moments = {l: mp.fsum(c * z ** l for c, z in zip(fz.weights, fz.zetas))
                   for l in range(-(N - 1), N)}
        G = np.array([[int(i == j) + min(i, j) * moments[j - i] for j in range(N)]
                      for i in range(N)], dtype=object)
        U = np.array([[mp.conj(z) ** i for z in fz.zetas] for i in range(N - 1)], dtype=object)
        H = np.array(mp.cholesky(mp.matrix(G[1:, 1:].tolist())).tolist(), dtype=object)
        HiU = _chol_solve(H, U)
        cUh = np.conj(U).T * np.array(fz.weights, dtype=object)[:, None]
        X = np.eye(N, s, dtype=int).astype(object) * mp.mpc(1)
        forms = []
        for _ in range(n_max + 1):
            forms.append(_matmul(np.conj(X).T, _matmul(G, X)))
            X = np.concatenate([X[:1] * 0, X[:-1] - _matmul(HiU, _matmul(cUh, X[:-1]))])
        Li = mp.inverse(mp.cholesky(mp.matrix(forms[0].tolist())))
        Li = np.array(Li.tolist(), dtype=object)
        out = []
        for n in range(1, n_max + 1):
            B = sum((-1) ** j * comb(n, j) * forms[j] for j in range(n + 1))
            M = _matmul(_matmul(Li, B), np.conj(Li).T)
            out.append(min(mp.eighe(mp.matrix(((M + np.conj(M).T) / 2).tolist()),
                                    eigvals_only=True)))
        return out
