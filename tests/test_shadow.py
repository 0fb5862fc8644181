"""Each pipeline stage against its 40-digit shadow (tests/mpref.py), one
tolerance per object, and the shadow's own checks."""

import mpmath as mp
import numpy as np
import pytest

import mpref
from cdsp import (NumericPolicy, PipelineResult, build_dirichlet, build_trig, decide,
                  factorize, parse_measure, verify_identity)
from cdsp.debranges import eval_S
from cdsp.fejer import FejerRiesz
from conftest import SPECS, Pipe, equi_spaced, seeded_measure

SHADOW_SPECS = {"ref3": SPECS["three_point"], "single": SPECS["single"],
                "antipodal": SPECS["antipodal"], "quarter": SPECS["quarter"],
                **{f"equi{k}": equi_spaced(k) for k in range(4, 9)},
                # seven draws from one generator
                **{f"random{k}": seeded_measure(rng, k, log_weights=True)
                   for rng in [np.random.default_rng(5)] for k in range(2, 9)}}
over_shadow_specs = pytest.mark.parametrize("spec", list(SHADOW_SPECS.values()),
                                            ids=list(SHADOW_SPECS))


def rel_dev(got, want) -> float:
    """max |got - want| over max |want|."""
    want = np.asarray(want, dtype=complex)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@over_shadow_specs
def test_trig_equals_the_defining_product_sum(spec):
    fz = mpref.factorization(spec)
    with mp.workdps(mpref.DPS):
        for z in (mp.expjpi(2 * mp.mpf(t)) for t in ("0.1", "0.37", "0.5", "0.83")):
            sq = [abs(z - zt) ** 2 for zt in fz.zetas]
            want = mp.fprod(sq) + mp.fsum(c * mp.fprod(sq[:j] + sq[j + 1:])
                                          for j, c in enumerate(fz.weights))
            got = mp.fsum(t * z ** m for m, t in enumerate(fz.T, start=-len(sq)))
            assert abs(got - want) <= 1e-35 * want


def test_three_point_shadow_equals_the_closed_forms():
    sh, ref = mpref.shadow(SPECS["three_point"]), mpref.three_point()
    with mp.workdps(mpref.DPS):
        b, x, s, sc = ref["b"], ref["x"], ref["s"], mp.conj(ref["s"])
        w = 1 + 1 / s

        def circulant(row):  # row i is ``row`` shifted right by i
            return np.array([np.roll(np.array(row, dtype=object), i) for i in range(3)])

        inverse = circulant([x * x - mp.mpf(1) / 3, sc ** 2 - x * s, s ** 2 - x * sc])
        # O'(zeta w) = w^2 O'(zeta) at the atoms 1, w, w^2
        for got, want in [(np.array(sh.alphas) ** 3, b), (sh.d, 1 / b), (np.abs(sh.fprime), 1),
                          (sh.fprime, sh.fprime[0] * w ** np.array([0, 2, 1])),
                          (sh.D, circulant([x, s, sc])), (sh.B, inverse / (x * (x * x - 1))),
                          (sh.C, np.diag(ref["c"])),
                          (sh.S, np.array([[ref["S"](r, t) for t in sh.alphas]
                                           for r in sh.alphas]))]:
            assert np.max(np.abs(got - want)) <= 1e-30 * max(1, np.max(np.abs(want)))


class TestStages:
    @over_shadow_specs
    def test_trig_coefficients(self, spec):
        assert rel_dev(build_trig(parse_measure(spec)).t, mpref.factorization(spec).T) <= 1e-13

    @over_shadow_specs
    def test_roots_and_constant(self, spec):
        # root by root in factorize's order: a plain angle sort of the
        # shadow's roots would misorder equi-spaced k = 6
        m, fz = parse_measure(spec), mpref.factorization(spec)
        fr = factorize(m)
        alphas = np.array(fz.alphas, dtype=complex)
        assert np.max(np.abs(fr.alphas - alphas) / np.abs(alphas)) <= 1e-13
        assert abs(fr.d - float(fz.d)) <= 1e-13 * float(fz.d)
        assert verify_identity(m, fr) <= 1e-11

    @over_shadow_specs
    def test_outer_derivative_gram_and_inverse(self, spec):
        m, sh = parse_measure(spec), mpref.shadow(spec)
        dd = build_dirichlet(m, factorize(m))
        assert rel_dev(dd.fprime_at_zeta, sh.fprime) <= 1e-12
        assert rel_dev(dd.D, sh.D) <= 1e-12
        assert rel_dev(dd.B, sh.B) <= 1e-11
        assert rel_dev(dd.W, sh.W) <= 1e-11

    @over_shadow_specs
    def test_root_values_and_coefficients(self, spec):
        pipe, sh = Pipe(spec), mpref.shadow(spec)
        assert rel_dev(eval_S(pipe.dd, pipe.fr.alphas, pipe.fr.alphas), sh.S) <= 1e-11
        assert rel_dev(pipe.hf.C, sh.C) <= 1e-11

    @over_shadow_specs
    def test_decision_and_offdiag_norm(self, spec):
        got = PipelineResult(parse_measure(spec), NumericPolicy()).verdict
        sh = mpref.shadow(spec)
        want = decide(FejerRiesz(np.array(sh.alphas, dtype=complex), float(sh.d)),
                      sh.S.astype(complex))
        assert got.decision == want.decision
        assert abs(got.max_offdiag_norm - want.max_offdiag_norm) <= 1e-10

    # N = 64 >= k, so the N x N truncation V K_l V^H has the inertia of K_l,
    # and order l violates iff lambda_min(K_l) < 0.  Orders with |lambda_min|
    # within 1e-20 of K_l's spectral radius are not read: of the 176 orders
    # here that is only ref3's l = 3, a true zero (below 1e-40 at 40 digits)
    @pytest.mark.parametrize("name", [n for n, s in SHADOW_SPECS.items()
                                      if parse_measure(s).k <= 6])
    def test_probe_flags_follow_the_form_sign(self, name):
        spec = SHADOW_SPECS[name]
        v = PipelineResult(parse_measure(spec), NumericPolicy(), exhaustive_psd=True).verdict
        spectra = mpref.probe_spectra(spec)
        assert len(v.psd_probes) == len(spectra)
        for probe, eigs in zip(v.psd_probes, spectra):
            if abs(eigs[0]) > 1e-20 * max(abs(e) for e in eigs):
                assert probe.violates(v.policy.psd_tol) == (eigs[0] < 0), probe.l
