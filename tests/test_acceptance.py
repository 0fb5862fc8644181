"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single CRITERION n: PASS/FAIL line so the run log can
be scanned at a glance; timing limits are asserted alongside the numeric
tolerances.
"""

import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import mpref
from conftest import bn_form, gram_quadrature
from cdsp import (NumericPolicy, build_dirichlet, build_trig, extract_C,
                  factorize, parse_measure, rotate_measure)
from cdsp.debranges import eval_S, kernel_KB
from cdsp.dirichlet import kernel_full
from cdsp.measure import Measure
from cdsp.oracle import dual_norm, monomial_gram, norm_sq
from cdsp.report import closed_form_constants
from cdsp.verdict import (NOT_SUBNORMAL, SUBNORMAL_NUMERIC, decide,
                          moment_truncation, psd_search)

_REF = closed_form_constants()
B, X, W = _REF["b"], _REF["x"], _REF["w"]

THREE = "0,1/3,2/3:1,1,1"
MEASURES = [THREE, "0:1", "0,1/2:1,1", "0,1/4:1,1"]


class Criterion:
    """Prints the one-line verdict whether the body passed or raised."""

    def __init__(self, n, time_limit=None):
        self.n = n
        self.limit = time_limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        if status == "PASS" and self.limit is not None and elapsed > self.limit:
            status = "FAIL"
        print(f"CRITERION {self.n}: {status} ({elapsed:.3f}s)",
              file=sys.stderr, flush=True)
        if status == "FAIL" and exc_type is None:
            raise AssertionError(
                f"criterion {self.n} exceeded {self.limit}s: {elapsed:.3f}s")
        return False


def pipeline(spec):
    m = parse_measure(spec) if isinstance(spec, str) else spec
    fr = factorize(m)
    dd = build_dirichlet(m, fr)
    extract_C(dd)
    return m, fr, dd


def test_criterion_1_factorization_regression():
    with Criterion(1, 0.1):
        t = build_trig(parse_measure(THREE))
        assert abs(t.coeff(0) - 11.0) <= 1e-12
        assert abs(t.coeff(3) + 1.0) <= 1e-12
        assert abs(t.coeff(-3) + 1.0) <= 1e-12
        assert max(abs(t.coeff(mm)) for mm in (-2, -1, 1, 2)) <= 1e-12
        fr = factorize(parse_measure(THREE))
        assert np.max(np.abs(fr.alphas ** 3 - B)) <= 1e-10 * B
        assert abs(fr.d * B - 1.0) <= 1e-10


def test_criterion_2_displayed_constants():
    with Criterion(2, 0.1):
        m, fr, dd = pipeline(THREE)
        assert np.max(np.abs(np.abs(dd.fprime_at_zeta) - 1.0)) <= 1e-10
        diag_target = -(2.0 + B) / (1.0 - B)  # equals x
        assert np.max(np.abs(np.diag(dd.D) - diag_target)) <= 1e-10
        pts = np.array(m.points)
        i1 = int(np.argmin(np.abs(pts - 1.0)))
        iw = int(np.argmin(np.abs(pts - W)))
        iw2 = int(np.argmin(np.abs(pts - W ** 2)))
        assert abs(dd.D[i1, iw] - 1.0 / (W - 1.0)) <= 1e-10
        assert abs(dd.D[i1, iw2] - 1.0 / (W ** 2 - 1.0)) <= 1e-10
        det = float(np.prod(np.linalg.eigvalsh(dd.D)))
        det_target = X * (X * X - 1.0)
        assert abs(det - det_target) <= 1e-9 * abs(det_target)
        s = 1.0 / (W - 1.0)
        denom = det_target
        Bd = (X * X - 1.0 / 3.0) / denom
        Bo1 = (np.conj(s) ** 2 - X * s) / denom
        Bo2 = (s ** 2 - X * np.conj(s)) / denom
        assert np.max(np.abs(np.diag(dd.B) - Bd)) <= 1e-9
        assert abs(dd.B[i1, iw] - Bo1) <= 1e-9
        assert abs(dd.B[i1, iw2] - Bo2) <= 1e-9


def test_criterion_3_closed_form_S_coefficients():
    with Criterion(3):
        _, _, dd = pipeline(THREE)
        hf = extract_C(dd)
        c3 = (1.0 - B) + 3.0 * B / (X + 1.0)
        c2 = 3.0 * B / (X * (X + 1.0))
        c1 = 3.0 * B / (X * (X - 1.0))
        assert abs(hf.C[0, 0].real - c1) <= 1e-8 * abs(c1)
        assert abs(hf.C[1, 1].real - c2) <= 1e-8 * abs(c2)
        assert abs(hf.C[2, 2].real - c3) <= 1e-8 * abs(c3)
        off = hf.C - np.diag(np.diag(hf.C))
        assert np.max(np.abs(off)) <= 1e-8 * abs(c1)
        assert abs(X * (X + 1.0) - 3.0) <= 1e-10
        assert abs(X * (X - 1.0) - (4.0 - np.sqrt(13.0))) <= 1e-10


def test_criterion_4_main_counterexample():
    with Criterion(4, 1.0):
        _, fr, dd = pipeline(THREE)
        policy = NumericPolicy()
        v = decide(fr, eval_S(dd, fr.alphas, fr.alphas), policy)
        assert v.decision == NOT_SUBNORMAL
        # the zero-test route, not just a PSD violation
        assert all(ev.premise_ok for ev in v.pair_evidence)
        assert v.max_offdiag_norm > policy.zero_reject
        assert v.max_offdiag_norm > 1e-2
        # raw off-diagonal value S(alpha, alpha w) against the 40-digit shadow,
        # which tests/test_shadow.py checks against the paper's closed forms
        expect = abs(complex(mpref.shadow(THREE).S[0, 1]))
        alpha_f = fr.alphas[int(np.argmin(np.abs(np.angle(fr.alphas))))]
        aw = alpha_f * W
        got = abs(eval_S(dd, [alpha_f], [aw])[0, 0])
        assert abs(got - expect) <= 1e-8 * expect


def test_criterion_5_known_subnormal_controls():
    with Criterion(5, 5.0):
        for spec in ("0:1", "0,1/2:1,1"):
            _, fr, dd = pipeline(spec)
            S = eval_S(dd, fr.alphas, fr.alphas)
            v = decide(fr, S, NumericPolicy())
            assert v.decision == SUBNORMAL_NUMERIC
            norms = [ev.normalized for ev in v.pair_evidence]
            assert all(n <= 1e-7 for n in norms)
            probes = psd_search(fr, S, 16, 64, psd_tol=1e-10,
                                exhaustive=True)
            assert all(p.min_eig >= -1e-8 * max(abs(p.trace), 1e-300)
                       for p in probes)
        _, fr, dd = pipeline("0,1/4:1,1")
        v = decide(fr, eval_S(dd, fr.alphas, fr.alphas), NumericPolicy())
        assert v.decision == NOT_SUBNORMAL


def test_criterion_6_kernel_equality():
    with Criterion(6, 1.0):
        rng = np.random.default_rng(123)
        for spec in MEASURES:
            m = parse_measure(spec)
            fr = factorize(m)
            dd = build_dirichlet(m, fr)
            hf = extract_C(dd)
            for _ in range(50):
                z, lam = [complex(*(0.7 * rng.uniform(-1, 1, 2)))
                          for _ in range(2)]
                kb = kernel_KB(dd, hf, z, lam)
                kf = kernel_full(dd, z, lam)
                assert abs(kf - kb) <= 1e-8 * (1.0 + abs(kb))


def test_criterion_7_operator_oracle():
    with Criterion(7, 30.0):
        rng = np.random.default_rng(7)
        for spec in MEASURES:
            m = parse_measure(spec)
            mm = monomial_gram(m, 64)
            for _ in range(100):
                v = np.zeros(64, dtype=complex)
                v[:56] = rng.normal(size=56) + 1j * rng.normal(size=56)
                nv = norm_sq(mm, v)
                assert abs(bn_form(mm, 2, v)) <= 1e-9 * nv
                for n in range(1, 7):
                    assert bn_form(mm, n, v) <= 1e-9 * nv
            assert dual_norm(mm) <= 1.0 + 1e-6
            small = monomial_gram(m, 16)
            Q = gram_quadrature(m, 16)
            assert np.max(np.abs(small.G - Q)) <= 1e-6


def test_criterion_8_symmetry_suite():
    with Criterion(8, 5.0):
        for base_spec in ("0,1/3,2/3:1,2,0.5", THREE):
            _, fr0, dd0 = pipeline(base_spec)
            v0 = decide(fr0, eval_S(dd0, fr0.alphas, fr0.alphas), NumericPolicy())
            rng = np.random.default_rng(99)
            m_base = parse_measure(base_spec)
            moved = [rotate_measure(m_base, Fraction(int(rng.integers(1, 10_000)), 10_007))
                     for _ in range(10)]
            for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
                idx = np.array(perm)
                moved.append(Measure(m_base.points[idx], m_base.weights[idx],
                                     tuple(m_base.turns[i] for i in perm)))
            for m in moved:
                _, fr, dd = pipeline(m)
                v = decide(fr, eval_S(dd, fr.alphas, fr.alphas), NumericPolicy())
                assert v.decision == v0.decision
                assert abs(v.max_offdiag_norm - v0.max_offdiag_norm) <= 1e-8 * v0.max_offdiag_norm


def test_criterion_9_psd_probe_soundness():
    with Criterion(9):
        _, fr, dd = pipeline("0:1")
        S = eval_S(dd, fr.alphas, fr.alphas)
        for l in range(1, 17):
            for N in (8, 16, 32, 64):
                M = moment_truncation(fr, S, l, N)
                tr = float(np.trace(M).real)
                assert np.min(np.linalg.eigvalsh(M)) >= -1e-12 * abs(tr)
