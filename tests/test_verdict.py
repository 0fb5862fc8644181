from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cdsp import NumericPolicy, PipelineResult, debranges, measure_from_turns
from cdsp.debranges import eval_S
from cdsp.errors import CdspError, DegenerateAlphas, IllConditioned
from cdsp.fejer import FejerRiesz
from cdsp.verdict import (INCONCLUSIVE, NOT_SUBNORMAL, SUBNORMAL_NUMERIC,
                          PairEvidence, PsdProbe, decide, moment_truncation, offdiag_sums,
                          psd_search)
from cdsp.verdict import _diff_products
from conftest import Pipe, S_at, equi_spaced, random_measures


EQUI8 = equi_spaced(8)
# two unit atoms 1e-6 turns off antipodal: a real measure whose
# max_offdiag_norm, 1.1107e-6, lies between the default zero_accept (1e-7)
# and zero_reject (1e-4)
NEAR_ANTIPODAL = "0,500001/1000000:1,1"


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
    for ev in premise_evidence(fr):
        s_rt = complex(s_eval(fr.alphas[ev.r], fr.alphas[ev.t]))
        scale = float(np.sqrt(max(diag[ev.r], 1e-300) * max(diag[ev.t], 1e-300)))
        evidence.append(PairEvidence(ev.r, ev.t, ev.premise_ok, s_rt, abs(s_rt) / scale))
    norms = [ev.normalized for ev in evidence]
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


def premise_evidence(fr):
    """offdiag_sums' r, t and premise_ok, which do not depend on the root
    values it is given (the identity: a zero diagonal would leave the pairs
    no scale to be normalized by)."""
    k = len(fr.alphas)
    return offdiag_sums(fr, np.eye(k, dtype=complex))


def premises(evidence):
    return [(ev.r, ev.t, ev.premise_ok) for ev in evidence]


class TestPremises:
    def test_reference_cases_all_hold(self, pipes):
        for pipe in pipes.values():
            assert all(ev.premise_ok for ev in premise_evidence(pipe.fr))

    def test_real_product_on_ray_fails(self):
        fr = FejerRiesz(np.array([2.0 + 0j, 3.0 + 0j]), 1.0)
        # alpha_0 conj(alpha_1) = 6
        assert all(not ev.premise_ok for ev in premise_evidence(fr))

    def test_negative_real_product_holds(self):
        fr = FejerRiesz(np.array([2.0 + 0j, -3.0 + 0j]), 1.0)
        assert all(ev.premise_ok for ev in premise_evidence(fr))

    def test_single_root_has_no_pairs(self):
        fr = FejerRiesz(np.array([2.0 + 0j]), 1.0)
        assert premise_evidence(fr) == []


class TestOffdiag:
    def test_three_point_normalized_norm(self, three_point):
        evs = offdiag_sums(three_point.fr, S_of(three_point))
        norms = [ev.normalized for ev in evs]
        # all six pairs have the same size by symmetry
        assert max(norms) == pytest.approx(min(norms), rel=1e-8)
        assert max(norms) == pytest.approx(0.182, abs=2e-3)

    def test_antipodal_vanishes(self, pipes):
        pipe = pipes["antipodal"]
        evs = offdiag_sums(pipe.fr, S_of(pipe))
        assert max(ev.normalized for ev in evs) < 1e-9

    def test_scale_is_geometric_mean_of_diagonal(self, three_point):
        fr = three_point.fr
        s = s_of(three_point)
        evs = offdiag_sums(fr, S_of(three_point))
        d0 = s(fr.alphas[0], fr.alphas[0]).real
        d1 = s(fr.alphas[1], fr.alphas[1]).real
        ev = next(e for e in evs if (e.r, e.t) == (0, 1))
        assert ev.normalized == pytest.approx(abs(ev.S_rt) / np.sqrt(d0 * d1), rel=1e-12)


    @pytest.mark.parametrize("diag, where", [((0.0, 1.0), "root r = 0 is not positive"),
                                             ((1.0, -2.0), "root r = 1 is not positive"),
                                             ((1.0, float("nan")), "root r = 1 is not positive"),
                                             ((1e-170, 1e-170), "at roots r = 0, t = 1")])
    def test_diagonal_without_scale_is_ill_conditioned(self, diag, where):
        # S(alpha_r, alpha_r) = sum_j |p_j(alpha_r)|^2 > 0: a zero entry
        # leaves |S_rt| no scale, and at 1e-170 the pair's scale underflows
        self.assert_ill_conditioned(np.diag(diag) + 1e-9 * ~np.eye(2, dtype=bool), where)

    @pytest.mark.parametrize("S, where", [
        ([[1e200, 1e199], [1e199, 1e200]], "= inf at roots r = 0, t = 1"),
        ([[1.0, 1e-12], [float("nan"), 1.0]], "at roots r = 1, t = 0"),
        ([[1.0, float("nan")], [1e-12, 1.0]], "at roots r = 0, t = 1")])
    def test_pair_without_finite_size_is_ill_conditioned(self, S, where):
        # at 1e200 the pair's scale overflows; a NaN S_rt has no size, in
        # either place, so the verdict cannot depend on the atoms' order
        self.assert_ill_conditioned(S, where)

    @staticmethod
    def assert_ill_conditioned(S, where):
        fr = FejerRiesz(np.array([2.0 + 0j, 3.0j]), 1.0)
        S = np.array(S, dtype=complex)
        with pytest.raises(IllConditioned, match=where):
            offdiag_sums(fr, S)
        with pytest.raises(IllConditioned, match=where):
            decide(fr, S, run_psd=False)


# --- pair evidence as first written: a double loop over (r, t), one
# scalar product and one normalized value per pair ---------------------

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
            s_rt = complex(S[r, t])
            out.append((r, t, not on_ray, s_rt, abs(s_rt) / scale))
    return out


def assert_evidence_is_loop(pipe):
    """offdiag_sums and decide's max_offdiag_norm equal the
    double loop bit for bit, with the loop's Python types."""
    S = S_of(pipe)
    want = loop_pair_evidence(pipe.fr, S)
    got = offdiag_sums(pipe.fr, S)
    assert [tuple(ev) for ev in got] == want
    for ev in got:
        assert [type(x) for x in ev] == [int, int, bool, complex, float]
    norms = [norm for *_, norm in want]
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
        assert not any(w[2] for w in want)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_measures(k_max=8))
    def test_spectrum_is_its_k_by_k_core(self, spec):
        # V K_l V^H with V = QR has the spectrum of R K_l R^H, a min(N, k)
        # square core, plus N - min(N, k) zeros
        try:
            pipe = Pipe(spec)
        except CdspError:
            assume(False)
        S, alphas, psd_tol = S_of(pipe), pipe.fr.alphas, NumericPolicy().psd_tol
        a = _diff_products(alphas)
        kappa = S / np.outer(a, np.conj(a))
        gamma = 1.0 - 1.0 / np.outer(alphas, np.conj(alphas))
        k = len(alphas)
        for N in sorted({max(k - 2, 1), k, 16, 64}):
            V = (1.0 / alphas[None, :]) ** (np.arange(N)[:, None] + 2)
            R = np.linalg.qr(V, mode="r")
            for l in range(1, 17):
                M = moment_truncation(pipe.fr, S, l, N)
                core = R @ (kappa * gamma ** l) @ R.conj().T
                core = 0.5 * (core + core.conj().T)
                want = np.linalg.eigvalsh(M)
                got = np.sort(np.r_[np.linalg.eigvalsh(core), np.zeros(N - min(N, k))])
                tol = 1e-11 * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= tol, (N, l)
                assert abs(np.trace(core).real - np.trace(M).real) <= tol, (N, l)
                assert (PsdProbe(l, N, float(got[0]), float(np.trace(core).real))
                        .violates(psd_tol)
                        == PsdProbe(l, N, float(want[0]), float(np.trace(M).real))
                        .violates(psd_tol)), (N, l)

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
    def test_gray_zone_is_inconclusive(self):
        fr = FejerRiesz(np.array([2.0 + 0j, 3.0j]), 1.0)
        S = np.where(np.eye(2, dtype=bool), 1.0, 1e-5).astype(complex)
        v = decide(fr, S, run_psd=False)
        assert v.decision == INCONCLUSIVE
        pipe = Pipe(NEAR_ANTIPODAL)
        v = decide(pipe.fr, S_of(pipe), NumericPolicy())
        assert 1e-6 < v.max_offdiag_norm < 2e-6
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

    def test_policy_thresholds_respected(self, three_point):
        # absurdly loose rejection threshold pushes the reference case into
        # the gray zone
        loose = NumericPolicy(zero_reject=10.0, zero_accept=1e-7)
        v = decide(three_point.fr, S_of(three_point), loose, run_psd=False)
        assert v.decision == INCONCLUSIVE
        # moving either threshold past the near-antipodal norm decides it,
        # each way, with the probes run
        pipe = Pipe(NEAR_ANTIPODAL)
        strict = NumericPolicy(zero_accept=1e-8, zero_reject=1e-6)
        assert decide(pipe.fr, S_of(pipe), strict).decision == NOT_SUBNORMAL
        lenient = NumericPolicy(zero_accept=2e-6, zero_reject=1e-4)
        assert decide(pipe.fr, S_of(pipe), lenient).decision == SUBNORMAL_NUMERIC

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
            S = scalar_root_values(pipe.fr, s_of(pipe))
            s_max = np.max(np.abs(S))
            diag = S.diagonal().real
            for got, want in zip(v.pair_evidence, evidence):
                assert abs(got.S_rt - want.S_rt) <= 1e-13 * s_max, name
                # |S_rt| and the scale sqrt(S_rr S_tt) both move by rounding
                scale = np.sqrt(diag[got.r] * diag[got.t])
                assert (abs(got.normalized - want.normalized) * scale
                        <= 1e-13 * s_max * (1 + want.normalized)), name
            assert v.max_offdiag_norm == pytest.approx(max_norm, rel=1e-12, abs=0), name
            assert [(p.l, p.N) for p in v.psd_probes] == [(p.l, p.N) for p in probes], name
            for got, want in zip(v.psd_probes, probes):
                assert abs(got.min_eig - want.min_eig) <= 1e-11 * abs(want.trace), name
                assert abs(got.trace - want.trace) <= 1e-11 * abs(want.trace), name

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_pipeline_evaluates_S_twice(self, reference_pipes, monkeypatch, exhaustive):
        # once on the exterior roots for the verdict, then once on the DFT
        # nodes (extract_C) when the Hermitian form is first read
        calls = []

        def spy(dd, z, u):
            out = eval_S(dd, z, u)
            calls.append((z, u, out))
            return out

        monkeypatch.setattr(debranges, "eval_S", spy)
        for name, pipe in reference_pipes.items():
            calls.clear()
            res = PipelineResult(pipe.measure, NumericPolicy(), exhaustive_psd=exhaustive)
            assert len(calls) == 1, name
            assert calls[0][0] is res.fr.alphas and calls[0][1] is res.fr.alphas, name
            assert res.hf is res.hf, name
            k = pipe.measure.k
            assert [(np.shape(z), np.shape(u)) for z, u, _ in calls] == [((k,), (k,))] * 2, name
            assert res.verdict.S is calls[0][2], name
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


# --- metamorphic: the verdict is a property of the measure, not of where
# its atoms sit on the circle or in which order they are listed ----------

@st.composite
def moved_measures(draw):
    """Atoms at n/997 turns with chords >= 0.1 and log-uniform weights in
    [0.25, 4] to six digits, k = 2..8, as the benchmark's random measures
    are drawn; with a rotation by shift/997 turns and a permutation."""
    k = draw(st.integers(2, 8))
    n = draw(st.lists(st.integers(0, 996), min_size=k, max_size=k, unique=True))
    gaps = np.diff(sorted(n) + [min(n) + 997]) / 997
    assume(2.0 * np.sin(np.pi * gaps.min()) >= 0.1)
    logw = draw(st.lists(st.floats(np.log(0.25), np.log(4.0)), min_size=k, max_size=k))
    w = [float(f"{x:.6g}") for x in np.exp(logw)]
    return n, w, draw(st.integers(1, 996)), draw(st.permutations(range(k)))


def verdict_outcome(n, w):
    """(decision, probe violation pattern) and max_offdiag_norm of the atoms
    at n/997 turns, or the type of the error that ends the analysis."""
    try:
        v = PipelineResult(measure_from_turns([Fraction(x, 997) for x in n], w),
                           NumericPolicy()).verdict
    except CdspError as exc:
        return type(exc).__name__, None
    return (v.decision, [p.violates(v.policy.psd_tol) for p in v.psd_probes]), v.max_offdiag_norm


class TestInvariance:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(moved_measures())
    def test_rotation_and_permutation(self, case):
        n, w, shift, perm = case
        want, want_norm = verdict_outcome(n, w)
        got, got_norm = verdict_outcome([(n[i] + shift) % 997 for i in perm],
                                        [w[i] for i in perm])
        assert got == want
        if want_norm is not None:
            assert got_norm == pytest.approx(want_norm, rel=1e-9, abs=0)


# --- the two-point family: rank-2 defect, the case below the paper's
# rank 3 ---------------------------------------------------------------

TWO_POINT_WEIGHTS = (0.05, 0.1, 0.5, 1, 2, 10, 20)


def two_point_verdict(turns, weights):
    return PipelineResult(measure_from_turns(turns, weights), NumericPolicy()).verdict


class TestTwoPointFamily:
    def test_antipodal_pairs_are_subnormal(self):
        # S(alpha_1, alpha_2) vanishes identically at antipodal atoms, for
        # unequal weights too; each weight pair sits at its own base angle
        pairs = [(w1, w2) for w1 in TWO_POINT_WEIGHTS for w2 in TWO_POINT_WEIGHTS]
        for i, (w1, w2) in enumerate(pairs):
            base = Fraction(i, len(pairs))
            v = two_point_verdict([base, base + Fraction(1, 2)], [w1, w2])
            assert v.decision == SUBNORMAL_NUMERIC, (base, w1, w2)
            assert v.max_offdiag_norm <= 1e-11, (base, w1, w2)

    @pytest.mark.parametrize("weights, ratio", [((1, 1), 1.1107207), ((1, 3), 1.4172196),
                                                ((0.5, 2), 0.9578288)])
    def test_offdiag_norm_is_linear_near_antipodal(self, weights, ratio):
        # at 0 and 1/2 - eps turns, max_offdiag_norm / eps tends to a
        # constant; at weights 1,1 it reads pi/sqrt(8) (measured, not derived).
        # The decisions there are left open: they sit in the Inconclusive band
        ratios = []
        for eps in (Fraction(1, 10 ** 5), Fraction(1, 10 ** 6)):
            v = two_point_verdict([Fraction(0), Fraction(1, 2) - eps], list(weights))
            ratios.append(v.max_offdiag_norm / float(eps))
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-6)
        assert ratios[1] == pytest.approx(ratio, rel=1e-6)
