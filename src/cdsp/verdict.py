"""Subnormality decision for the Cauchy dual of the shift.

Two routes feed the verdict:

  * the pairwise zero test: when no product alpha_r conj(alpha_t) lies in
    [1, inf), the dual is subnormal iff S vanishes at every exterior root
    pair (r != t);
  * truncated positivity probes of the moment matrices indexed by l >= 1;
    only a violation is conclusive (positivity of every finite truncation
    is never certified by finitely many probes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import DegenerateAlphas, IllConditioned
from .fejer import FejerRiesz
from .policy import NumericPolicy

NOT_SUBNORMAL = "NotSubnormal"
SUBNORMAL_NUMERIC = "SubnormalNumeric"
INCONCLUSIVE = "Inconclusive"


class PairEvidence(NamedTuple):
    r: int
    t: int
    premise_ok: bool
    S_rt: complex
    normalized: float  # |S_rt| / sqrt(S[r, r] S[t, t])


@dataclass(frozen=True)
class PsdProbe:
    l: int
    N: int
    min_eig: float
    trace: float

    def violates(self, psd_tol: float) -> bool:
        """The truncation has an eigenvalue below -psd_tol * |trace|."""
        return self.min_eig < -psd_tol * max(abs(self.trace), 1e-300)


@dataclass(frozen=True)
class Verdict:
    decision: str
    pair_evidence: List[PairEvidence]
    psd_probes: List[PsdProbe]
    policy: NumericPolicy
    max_offdiag_norm: float
    # S[r, t] = S(alpha_r, alpha_t) at all root pairs, as decide received it
    S: np.ndarray = field(compare=False, repr=False)


def offdiag_sums(fr: FejerRiesz, S: np.ndarray) -> List[PairEvidence]:
    """Evidence at the row-major pairs (r, t), r != t: premise_ok iff the
    product alpha_r conj(alpha_t) stays off the ray [1, inf), and the root
    value S[r, t] = S(alpha_r, alpha_t) with its size relative to
    sqrt(S[r, r] S[t, t]), as the zero test and the report read it.  That
    scale must be positive, as S(alpha_r, alpha_r) = sum_j |p_j(alpha_r)|^2
    is, and finite: a diagonal entry that is not positive, a pair whose scale
    underflows to 0 or overflows, or an S[r, t] that is not finite raises
    IllConditioned."""
    alphas = fr.alphas
    k = len(alphas)
    offdiag = ~np.eye(k, dtype=bool)
    r, t = np.nonzero(offdiag)
    prod = (alphas[:, None] * np.conj(alphas[None, :]))[offdiag]
    on_ray = (np.abs(prod.imag) <= 1e-10) & (prod.real >= 1.0 - 1e-10)
    diag = S.diagonal().real
    if not (diag > 0).all():
        i = int(np.argmin(diag > 0))
        raise IllConditioned(f"S(alpha_r, alpha_r) = {float(diag[i])!r} at root r = {i} "
                             f"is not positive")
    with np.errstate(over="ignore"):
        scale = np.sqrt(diag[:, None] * diag[None, :])[offdiag]
    S_off = S[offdiag]
    readable = (scale > 0) & np.isfinite(scale) & np.isfinite(S_off)
    if not readable.all():
        i = int(np.argmin(readable))
        raise IllConditioned(f"S(alpha_r, alpha_t) = {complex(S_off[i])!r} has no finite size "
                             f"against sqrt(S(alpha_r, alpha_r) S(alpha_t, alpha_t)) = "
                             f"{float(scale[i])!r} at roots r = {r[i]}, t = {t[i]}")
    S_rt = S_off.tolist()
    # Python's abs of a complex: numpy's rounds some moduli differently
    normalized = [abs(s) / d for s, d in zip(S_rt, scale.tolist())]
    return list(map(PairEvidence, r.tolist(), t.tolist(), (~on_ray).tolist(),
                    S_rt, normalized))


def _diff_products(alphas: np.ndarray) -> np.ndarray:
    """a_r = prod_{t != r} (alpha_r - alpha_t)."""
    eye = np.eye(len(alphas), dtype=bool)
    diff = alphas[:, None] - alphas[None, :]
    if np.min(np.abs(diff) + eye) <= 1e-9:
        raise DegenerateAlphas("exterior roots not pairwise distinct")
    return np.prod(np.where(eye, 1.0, diff), axis=1)


def _moment_factors(fr: FejerRiesz, S: np.ndarray, N: int):
    """The parts of the order-l moment matrix V (kappa o gamma^l) V^H that
    do not depend on l: kappa = S / (a a^H), gamma_rt = 1 - 1/(alpha_r
    conj(alpha_t)), V[m, r] = alpha_r^{-(m+2)} for m < N, and V^H."""
    alphas = fr.alphas
    a = _diff_products(alphas)
    kappa = S / np.outer(a, np.conj(a))
    gamma = 1.0 - 1.0 / (alphas[:, None] * np.conj(alphas[None, :]))
    ms = np.arange(N)
    V = (1.0 / alphas[None, :]) ** (ms[:, None] + 2)
    return kappa, gamma, V, V.conj().T


def _truncation(factors, l: int) -> np.ndarray:
    kappa, gamma, V, Vh = factors
    M = V @ (kappa * gamma ** l) @ Vh
    return 0.5 * (M + M.conj().T)


def moment_truncation(fr: FejerRiesz, S: np.ndarray, l: int, N: int) -> np.ndarray:
    """N x N Hermitian truncation of the order-l moment matrix built from
    the root values S[r, t] = S(alpha_r, alpha_t)."""
    return _truncation(_moment_factors(fr, S, N), l)


def psd_search(fr: FejerRiesz, S: np.ndarray, l_max: int, N: int,
               psd_tol: float, exhaustive: bool = False) -> List[PsdProbe]:
    """Probe the N x N truncations of the order-l moment matrices built from
    the root values S for l = 1..l_max, the same matrices
    ``moment_truncation`` returns; short-circuits on the first violation
    unless exhaustive."""
    factors = _moment_factors(fr, S, N)
    probes = []
    # gamma^l overflows at large l; that shows up as a non-finite min_eig or
    # trace, or as eigvalsh failing, and ends in IllConditioned
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(1, l_max + 1):
            M = _truncation(factors, l)
            try:
                min_eig = float(np.linalg.eigvalsh(M)[0])
            except np.linalg.LinAlgError:  # it fails on non-finite entries
                min_eig = math.nan
            probe = PsdProbe(l, N, min_eig, float(np.trace(M).real))
            if not (math.isfinite(probe.min_eig) and math.isfinite(probe.trace)):
                raise IllConditioned(f"probe order l = {l}: moment truncation is not finite "
                                     f"(min_eig {probe.min_eig}, trace {probe.trace})")
            probes.append(probe)
            if probe.violates(psd_tol) and not exhaustive:
                break
    return probes


def decide(fr: FejerRiesz, S: np.ndarray,
           policy: Optional[NumericPolicy] = None,
           run_psd: bool = True, exhaustive_psd: bool = False) -> Verdict:
    """Zero test and positivity probes on the k x k root values
    S[r, t] = S(alpha_r, alpha_t)."""
    policy = policy or NumericPolicy()
    evidence = offdiag_sums(fr, S)
    premises_ok = all(ev.premise_ok for ev in evidence)
    max_norm = max((ev.normalized for ev in evidence), default=0.0)
    probes = []
    if run_psd:
        probes = psd_search(fr, S, policy.l_max, policy.N_trunc,
                            psd_tol=policy.psd_tol, exhaustive=exhaustive_psd)
    violation = any(p.violates(policy.psd_tol) for p in probes)
    if premises_ok and max_norm <= policy.zero_accept:
        # the zero test proves subnormality; a violation then contradicts it
        # (rounding in kappa_rt, r != t, grows like |gamma_rt|^l while the
        # true diagonal decays like |gamma_rr|^l), so the routes disagree
        decision = INCONCLUSIVE if violation else SUBNORMAL_NUMERIC
    elif (premises_ok and max_norm > policy.zero_reject) or violation:
        decision = NOT_SUBNORMAL
    else:
        decision = INCONCLUSIVE
    return Verdict(decision, evidence, probes, policy, float(max_norm), S)
