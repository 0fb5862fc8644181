from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings

from cdsp import (NumericPolicy, PipelineResult, build_dirichlet, debranges, extract_C,
                  factorize, parse_measure, rotate_measure)
from cdsp.debranges import eval_S
from cdsp.errors import CdspError, DegenerateAlphas, IllConditioned
from cdsp.fejer import FejerRiesz
from cdsp.verdict import (INCONCLUSIVE, NOT_SUBNORMAL, SUBNORMAL_NUMERIC,
                          PairEvidence, PsdProbe, decide, moment_truncation, offdiag_sums,
                          pair_premises, psd_search)
from cdsp.verdict import _diff_products
from conftest import Pipe, S_at, equi_spaced, random_measures


EQUI8 = equi_spaced(8)


def S_of(pipe):
    """The k x k root values S(alpha_r, alpha_t), as the pipeline computes them."""
    return eval_S(pipe.dd, pipe.fr.alphas, pipe.fr.alphas)


def s_of(pipe):
    """S at one pair of points, for the per-pair loops below."""
    return lambda z, u: S_at(pipe.dd, z, u)


@pytest.fixture(scope="module")
def reference_pipes(pipes):
    names = ("three_point", "antipodal", "quarter")
    return {**{name: pipes[name] for name in names}, "equi8": Pipe(EQUI8)}


# --- the verdict layer as first written: every order l rebuilds S from k^2
# scalar calls, and the zero test makes k + k(k-1) more ------------------

def per_order_truncation(fr, s_eval, l, N):
    alphas = fr.alphas
    k = len(alphas)
    a = _diff_products(alphas)
    S = np.array([[s_eval(alphas[r], alphas[t]) for t in range(k)] for r in range(k)],
                 dtype=complex)
    kappa = S / np.outer(a, np.conj(a))
    gamma = 1.0 - 1.0 / (alphas[:, None] * np.conj(alphas[None, :]))
    weight = kappa * gamma ** l
    ms = np.arange(N)
    V = (1.0 / alphas[None, :]) ** (ms[:, None] + 2)
    M = V @ weight @ V.conj().T
    return 0.5 * (M + M.conj().T)


def per_order_decide(fr, s_eval, policy, exhaustive):
    """(pair_evidence, max_offdiag_norm, psd_probes, decision) of the
    per-order loop."""
    k = len(fr.alphas)
    diag = np.array([s_eval(fr.alphas[r], fr.alphas[r]).real for r in range(k)])
    evidence = []
    for ev in pair_premises(fr):
        s_rt = complex(s_eval(fr.alphas[ev.r], fr.alphas[ev.t]))
        scale = float(np.sqrt(max(diag[ev.r], 1e-300) * max(diag[ev.t], 1e-300)))
        evidence.append(PairEvidence(ev.r, ev.t, ev.product, ev.premise_ok, s_rt, scale))
    norms = [abs(ev.S_rt) / ev.S_scale for ev in evidence]
    probes = []
    for l in range(1, policy.l_max + 1):
        M = per_order_truncation(fr, s_eval, l, policy.N_trunc)
        eigs = np.linalg.eigvalsh(M)
        tr = float(np.trace(M).real)
        probes.append(PsdProbe(l, policy.N_trunc, float(eigs[0]), tr))
        if probes[-1].min_eig < -policy.psd_tol * max(abs(tr), 1e-300) and not exhaustive:
            break
    max_norm = float(max(norms) if norms else 0.0)
    premises_ok = all(ev.premise_ok for ev in evidence)
    violation = any(p.min_eig < -policy.psd_tol * max(abs(p.trace), 1e-300) for p in probes)
    zero_accepts = premises_ok and max_norm <= policy.zero_accept
    zero_rejects = premises_ok and max_norm > policy.zero_reject
    if zero_accepts and violation:  # the two routes disagree
        decision = INCONCLUSIVE
    elif zero_rejects or violation:
        decision = NOT_SUBNORMAL
    elif zero_accepts:
        decision = SUBNORMAL_NUMERIC
    else:
        decision = INCONCLUSIVE
    return evidence, max_norm, probes, decision


def scalar_root_values(fr, s_eval):
    """S[r, t] from k^2 scalar calls, one per exterior-root pair."""
    k = len(fr.alphas)
    return np.array([[s_eval(fr.alphas[r], fr.alphas[t]) for t in range(k)]
                     for r in range(k)], dtype=complex)


def premises(evidence):
    return [(ev.r, ev.t, ev.product, ev.premise_ok) for ev in evidence]


class TestPremises:
    def test_reference_cases_all_hold(self, pipes):
        for pipe in pipes.values():
            assert all(ev.premise_ok for ev in pair_premises(pipe.fr))

    def test_real_product_on_ray_fails(self):
        fr = FejerRiesz(np.array([2.0 + 0j, 3.0 + 0j]), 1.0)
        evs = pair_premises(fr)
        assert all(not ev.premise_ok for ev in evs)
        assert evs[0].product == pytest.approx(6.0)

    def test_negative_real_product_holds(self):
        fr = FejerRiesz(np.array([2.0 + 0j, -3.0 + 0j]), 1.0)
        assert all(ev.premise_ok for ev in pair_premises(fr))

    def test_single_root_has_no_pairs(self):
        fr = FejerRiesz(np.array([2.0 + 0j]), 1.0)
        assert pair_premises(fr) == []


class TestOffdiag:
    def test_three_point_normalized_norm(self, three_point):
        evs = offdiag_sums(three_point.fr, S_of(three_point))
        norms = [abs(ev.S_rt) / ev.S_scale for ev in evs]
        # all six pairs have the same size by symmetry
        assert max(norms) == pytest.approx(min(norms), rel=1e-8)
        assert max(norms) == pytest.approx(0.182, abs=2e-3)

    def test_antipodal_vanishes(self, pipes):
        pipe = pipes["antipodal"]
        evs = offdiag_sums(pipe.fr, S_of(pipe))
        assert max(abs(ev.S_rt) / ev.S_scale for ev in evs) < 1e-9

    def test_scale_is_geometric_mean_of_diagonal(self, three_point):
        fr = three_point.fr
        s = s_of(three_point)
        evs = offdiag_sums(fr, S_of(three_point))
        d0 = s(fr.alphas[0], fr.alphas[0]).real
        d1 = s(fr.alphas[1], fr.alphas[1]).real
        ev = next(e for e in evs if (e.r, e.t) == (0, 1))
        assert ev.S_scale == pytest.approx(np.sqrt(d0 * d1), rel=1e-12)


# --- pair evidence as first written: a double loop over (r, t), one
# scalar product and one scale per pair -------------------------------

def loop_pair_evidence(fr, S):
    diag = S.diagonal().real
    out = []
    k = len(fr.alphas)
    for r in range(k):
        for t in range(k):
            if r == t:
                continue
            prod = complex(fr.alphas[r] * np.conj(fr.alphas[t]))
            on_ray = abs(prod.imag) <= 1e-10 and prod.real >= 1.0 - 1e-10
            scale = float(np.sqrt(max(diag[r], 1e-300) * max(diag[t], 1e-300)))
            out.append((r, t, prod, not on_ray, complex(S[r, t]), scale))
    return out


def assert_evidence_is_loop(pipe):
    """pair_premises, offdiag_sums and decide's max_offdiag_norm equal the
    double loop bit for bit, with the loop's Python types."""
    S = S_of(pipe)
    want = loop_pair_evidence(pipe.fr, S)
    got = offdiag_sums(pipe.fr, S)
    assert [tuple(ev) for ev in got] == want
    assert [tuple(ev) for ev in pair_premises(pipe.fr)] == [w[:4] + (0.0, 1.0) for w in want]
    for ev in got:
        assert [type(x) for x in ev] == [int, int, complex, bool, complex, float]
    norms = [abs(s_rt) / scale for *_, s_rt, scale in want]
    assert decide(pipe.fr, S).max_offdiag_norm == (max(norms) if norms else 0.0)


class TestPairEvidenceIsLoop:
    @pytest.mark.parametrize("name", ["three_point", "single", "antipodal", "quarter"])
    def test_reference_measures(self, pipes, name):
        assert_evidence_is_loop(pipes[name])

    def test_broken_premises(self):
        # every product on the ray [1, inf): premises fail, S is synthetic
        fr = FejerRiesz(np.array([2.0 + 0j, 3.0 + 0j, 1.5 + 1e-12j]), 1.0)
        S = np.array([[1.0, 0.2j, 0.1], [-0.2j, 2.0, 3e-5], [0.1, 3e-5, 0.5]], dtype=complex)
        want = loop_pair_evidence(fr, S)
        assert not any(w[3] for w in want)
        assert [tuple(ev) for ev in offdiag_sums(fr, S)] == want

    @pytest.mark.parametrize("k", range(3, 17))
    def test_equi_spaced(self, k):
        assert_evidence_is_loop(Pipe(equi_spaced(k)))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_random_measures(self, k):
        @settings(max_examples=4, deadline=None, derandomize=True)
        @given(random_measures(k_max=k, k_min=k))
        def check(spec):
            try:
                pipe = Pipe(spec)
            except CdspError:
                assume(False)
            assert_evidence_is_loop(pipe)

        check()


class TestMomentTruncation:
    def test_hermitian(self, three_point):
        M = moment_truncation(three_point.fr, S_of(three_point), 2, 12)
        assert np.linalg.norm(M - M.conj().T) < 1e-12

    def test_antipodal_truncations_psd(self, pipes):
        pipe = pipes["antipodal"]
        for l in range(1, 6):
            M = moment_truncation(pipe.fr, S_of(pipe), l, 32)
            tr = abs(np.trace(M).real)
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-10 * tr

    def test_three_point_violation_appears(self, three_point):
        probes = psd_search(three_point.fr, S_of(three_point), 16, 64, psd_tol=1e-10)
        tol = 1e-8
        assert any(p.min_eig < -tol * abs(p.trace) for p in probes)

    def test_degenerate_roots_rejected(self):
        fr = FejerRiesz(np.array([2.0 + 0j, 2.0 + 0j]), 1.0)
        with pytest.raises(DegenerateAlphas):
            moment_truncation(fr, np.ones((2, 2), dtype=complex), 1, 8)

    def test_exhaustive_collects_all_orders(self, three_point):
        probes = psd_search(three_point.fr, S_of(three_point), 6, 32,
                            psd_tol=1e-10, exhaustive=True)
        assert [p.l for p in probes] == [1, 2, 3, 4, 5, 6]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_order_is_ill_conditioned(self):
        # |gamma_rt| = 1 + 1/|alpha|^2 at antipodal roots, so gamma^l leaves
        # the float range near l = 1187, with no warning on the way
        pipe = Pipe("0,1/2:0.01,0.01")
        with pytest.raises(IllConditioned, match=r"probe order l = \d+: .* not finite"):
            psd_search(pipe.fr, S_of(pipe), 1500, 4, psd_tol=1e-10, exhaustive=True)
        probes = psd_search(pipe.fr, S_of(pipe), 1000, 4, psd_tol=1e-10, exhaustive=True)
        assert len(probes) == 1000


class TestDecide:
    def test_reference_decisions(self, pipes):
        expect = {"three_point": NOT_SUBNORMAL, "single": SUBNORMAL_NUMERIC,
                  "antipodal": SUBNORMAL_NUMERIC, "quarter": NOT_SUBNORMAL}
        for name, pipe in pipes.items():
            v = decide(pipe.fr, S_of(pipe))
            assert v.decision == expect[name], name

    def test_three_point_max_norm(self, three_point):
        v = decide(three_point.fr, S_of(three_point))
        assert v.max_offdiag_norm == pytest.approx(0.182, abs=2e-3)

    def test_gray_zone_is_inconclusive(self):
        fr = FejerRiesz(np.array([2.0 + 0j, 3.0j]), 1.0)
        S = np.where(np.eye(2, dtype=bool), 1.0, 1e-5).astype(complex)
        v = decide(fr, S, run_psd=False)
        assert v.decision == INCONCLUSIVE

    def test_broken_premise_without_violation_is_inconclusive(self):
        fr = FejerRiesz(np.array([2.0 + 0j, 3.0 + 0j]), 1.0)
        v = decide(fr, np.eye(2, dtype=complex), run_psd=False)
        assert v.decision == INCONCLUSIVE

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_routes_disagreeing_is_inconclusive(self, exhaustive):
        # equal-weight antipodal atoms are subnormal, and the zero test
        # proves it; rounding in kappa_rt (r != t) grows like |gamma_rt|^l,
        # so the l = 16 probe reads a violation, and the verdict is neither
        pipe = Pipe("0,1/2:0.01,0.01")
        policy = NumericPolicy()
        v = decide(pipe.fr, S_of(pipe), policy, exhaustive_psd=exhaustive)
        assert all(ev.premise_ok for ev in v.pair_evidence)
        assert v.max_offdiag_norm <= policy.zero_accept
        assert any(p.violates(policy.psd_tol) for p in v.psd_probes)
        assert v.decision == INCONCLUSIVE
        assert decide(pipe.fr, S_of(pipe), policy, run_psd=False).decision == SUBNORMAL_NUMERIC

    def test_rotation_invariance(self, three_point):
        m = rotate_measure(three_point.measure, Fraction(1, 7))
        fr = factorize(m)
        dd = build_dirichlet(m, fr)
        extract_C(dd)
        v = decide(fr, eval_S(dd, fr.alphas, fr.alphas))
        v0 = decide(three_point.fr, S_of(three_point))
        assert v.decision == v0.decision == NOT_SUBNORMAL
        assert v.max_offdiag_norm == pytest.approx(v0.max_offdiag_norm, rel=1e-7)

    def test_weight_permutation_invariance(self):
        for spec in ("0,1/3,2/3:1,2,0.5", "2/3,0,1/3:0.5,1,2"):
            m = __import__("cdsp").parse_measure(spec)
            fr = factorize(m)
            dd = build_dirichlet(m, fr)
            v = decide(fr, eval_S(dd, fr.alphas, fr.alphas))
            if spec.startswith("0"):
                first = v
            else:
                assert v.decision == first.decision
                assert v.max_offdiag_norm == pytest.approx(
                    first.max_offdiag_norm, rel=1e-8)

    def test_policy_thresholds_respected(self, three_point):
        # absurdly loose rejection threshold pushes the reference case into
        # the gray zone
        loose = NumericPolicy(zero_reject=10.0, zero_accept=1e-7)
        v = decide(three_point.fr, S_of(three_point), loose, run_psd=False)
        assert v.decision == INCONCLUSIVE

    def test_short_circuit_stops_at_policy_tolerance(self):
        # l = 2 reads min_eig/trace = -9.8e-9: below the default -1e-10 of
        # psd_search but above the policy's -1e-8, so it is no violation and
        # the short-circuit must go on to l = 3 (-1.0e-3)
        pipe = Pipe("60/997,246/997,847/997,863/997:0.731976,0.348999,0.343196,2.999")
        policy = NumericPolicy()
        short = decide(pipe.fr, S_of(pipe), policy)
        full = decide(pipe.fr, S_of(pipe), policy, exhaustive_psd=True)
        first = next(i for i, p in enumerate(full.psd_probes)
                     if p.min_eig < -policy.psd_tol * abs(p.trace))
        assert short.psd_probes == full.psd_probes[: first + 1]
        assert [p.l for p in short.psd_probes] == [1, 2, 3]
        assert short.decision == full.decision == NOT_SUBNORMAL


class TestRootValues:
    # the broadcast call sums each S[r, t] in another order than a scalar
    # call, so the values agree with the per-order loop to rounding only
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_decide_matches_per_order_loop(self, reference_pipes, exhaustive):
        policy = NumericPolicy()
        for name, pipe in reference_pipes.items():
            v = decide(pipe.fr, S_of(pipe), policy, exhaustive_psd=exhaustive)
            evidence, max_norm, probes, decision = per_order_decide(
                pipe.fr, s_of(pipe), policy, exhaustive)
            assert v.decision == decision, name
            assert premises(v.pair_evidence) == premises(evidence), name
            s_max = np.max(np.abs(scalar_root_values(pipe.fr, s_of(pipe))))
            for got, want in zip(v.pair_evidence, evidence):
                assert abs(got.S_rt - want.S_rt) <= 1e-13 * s_max, name
                assert abs(got.S_scale - want.S_scale) <= 1e-13 * s_max, name
            assert v.max_offdiag_norm == pytest.approx(max_norm, rel=1e-12, abs=0), name
            assert [(p.l, p.N) for p in v.psd_probes] == [(p.l, p.N) for p in probes], name
            for got, want in zip(v.psd_probes, probes):
                assert abs(got.min_eig - want.min_eig) <= 1e-11 * abs(want.trace), name
                assert abs(got.trace - want.trace) <= 1e-11 * abs(want.trace), name

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_pipeline_evaluates_S_twice(self, reference_pipes, monkeypatch, exhaustive):
        # once on the DFT nodes (extract_C), once on the exterior roots
        calls = []

        def spy(dd, z, u):
            out = eval_S(dd, z, u)
            calls.append((np.shape(z), np.shape(u), out))
            return out

        monkeypatch.setattr(debranges, "eval_S", spy)
        for name, pipe in reference_pipes.items():
            calls.clear()
            res = PipelineResult(pipe.measure, NumericPolicy(), exhaustive_psd=exhaustive)
            k = pipe.measure.k
            assert [c[:2] for c in calls] == [((k,), (k,)), ((k,), (k,))], name
            assert res.verdict.S is calls[1][2], name
            assert np.array_equal(res.verdict.S, S_of(pipe)), name

    def test_moment_truncation_matches_per_order_loop(self, reference_pipes):
        for name, pipe in reference_pipes.items():
            for l in (1, 2, 7):
                got = moment_truncation(pipe.fr, S_of(pipe), l, 16)
                want = per_order_truncation(pipe.fr, s_of(pipe), l, 16)
                tr = abs(np.trace(want).real)
                assert np.max(np.abs(got - want)) <= 1e-11 * tr, (name, l)
                assert abs(np.linalg.eigvalsh(got)[0]
                           - np.linalg.eigvalsh(want)[0]) <= 1e-11 * tr, (name, l)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(random_measures())
    def test_short_circuit_is_exhaustive_cut_at_first_violation(self, spec):
        try:
            pipe = Pipe(spec)
        except CdspError:
            assume(False)
        policy = NumericPolicy()
        short = decide(pipe.fr, S_of(pipe), policy)
        full = decide(pipe.fr, S_of(pipe), policy, exhaustive_psd=True)
        violations = [i for i, p in enumerate(full.psd_probes)
                      if p.min_eig < -policy.psd_tol * max(abs(p.trace), 1e-300)]
        cut = violations[0] + 1 if violations else len(full.psd_probes)
        assert short.psd_probes == full.psd_probes[:cut]
        assert short.decision == full.decision
