from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import gram_quadrature, random_measures
from cdsp import parse_measure
from cdsp.errors import Overflow
from cdsp.oracle import (MonomialModel, agler_forms, apply_mz, bn_dual_probe,
                         bn_form, cauchy_dual_matrix, dual_norm,
                         monomial_gram, norm_sq, orbit_norms, probe_block)
from cdsp.policy import NumericPolicy
from cdsp.report import run_oracle

SPECS = ["0:1", "0,1/2:1,1", "0,1/3,2/3:1,1,1", "0,1/4:1,2"]
EXACT_SPECS = ["0,1/3,2/3:1,1,1", "0,1/2:1,1"]


@st.composite
def models(draw, sizes=(9, 24, 64, 128)):
    """(measure spec, N): k = 1..8 distinct atoms at n/997 turns, weights in
    [0.25, 4], N from ``sizes``."""
    k = draw(st.integers(1, 8))
    n = sorted(draw(st.lists(st.integers(0, 996), min_size=k, max_size=k, unique=True)))
    w = draw(st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k))
    spec = ",".join(f"{x}/997" for x in n) + ":" + ",".join(repr(x) for x in w)
    return spec, draw(st.sampled_from(sizes))


def shift_matrix(N: int) -> np.ndarray:
    S = np.zeros((N, N), dtype=complex)
    for i in range(N - 1):
        S[i + 1, i] = 1.0
    return S


# Reference constructions of the model: every entry of G sums its own atom
# powers, and the dual solves T^*T against all N - 1 columns of Gm.

def monomial_gram_elementwise(m, N):
    pts = np.array(m.points, dtype=complex)
    wts = np.array(m.weights, dtype=float)
    idx = np.arange(N)
    mins = np.minimum(idx[:, None], idx[None, :]).astype(float)
    diff = idx[None, :] - idx[:, None]  # j - i at G[i, j]
    phase = np.sum(wts[:, None] * pts[:, None] ** diff.reshape(1, -1), axis=0).reshape(N, N)
    G = np.eye(N, dtype=complex) + mins * phase
    return MonomialModel(N, 0.5 * (G + G.conj().T), m)


def cauchy_dual_dense(mm):
    N = mm.N
    Tp = np.zeros((N, N), dtype=complex)
    Tp[:, : N - 1] = shift_matrix(N)[:, : N - 1] @ np.linalg.solve(mm.G[1:, 1:], mm.G[:-1, :-1])
    return Tp


def left_inverse_residual(mm, Tp):
    """max |T^H G T' - Gm| / max |G| on the domain: T^* T' = I there."""
    N = mm.N
    lhs = shift_matrix(N)[:, : N - 1].conj().T @ mm.G @ Tp[:, : N - 1]
    return np.max(np.abs(lhs - mm.G[:-1, :-1])) / np.max(np.abs(mm.G))


def dual_norm_dense(mm, Tp):
    """Norm of Tp on its domain from the matrix itself: the spectral norm of
    R Tp R_m^{-1} with G = R^H R and Gm = R_m^H R_m."""
    N = mm.N
    R = np.linalg.cholesky(mm.G).conj().T
    Rm = np.linalg.cholesky(mm.G[:-1, :-1]).conj().T
    mid = R @ Tp[:, : N - 1] @ np.linalg.inv(Rm)
    return float(np.linalg.norm(mid, 2))


def operator_norm_G(mm, A: np.ndarray) -> float:
    """Operator norm with respect to the G inner product."""
    R = np.linalg.cholesky(mm.G).conj().T  # G = R^H R
    mid = R @ A @ np.linalg.inv(R)
    return float(np.linalg.norm(mid, 2))


# Reference evaluations: every order n recomputes T^k v and its norm from v,
# one vector at a time, as the oracle did before the norms of an orbit were
# shared across orders and the trials ran as one block.

def bn_form_per_order(mm, n, v):
    total = 0.0
    w = v.copy()
    for k in range(n + 1):
        total += (-1) ** k * comb(n, k) * norm_sq(mm, w)
        if k < n:
            w = apply_mz(mm, w)
    return total


def bn_dual_probe_per_order(m, n_max, trials, N, seed=0):
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
            nv = norm_sq(mm, v)
            for n in range(1, n_max + 1):
                total = 0.0
                w = v.copy()
                for k in range(n + 1):
                    total += (-1) ** k * comb(n, k) * norm_sq(mm, w)
                    if k < n:
                        w = Tp @ w
                val = total / nv
                if val < worst:
                    worst = val
                    witness = (n, trial)
        results[size] = {"most_negative": worst, "witness": witness}
    return results


def run_oracle_per_order(m, policy):
    N = policy.oracle_N
    mm = monomial_gram(m, N)
    rng = np.random.default_rng(policy.seed)
    worst_b2 = 0.0
    worst_bn = -np.inf
    for _ in range(20):
        v = np.zeros(N, dtype=complex)
        v[: N - 8] = rng.normal(size=N - 8) + 1j * rng.normal(size=N - 8)
        nv = norm_sq(mm, v)
        worst_b2 = max(worst_b2, abs(bn_form_per_order(mm, 2, v)) / nv)
        for n in range(1, 7):
            worst_bn = max(worst_bn, bn_form_per_order(mm, n, v) / nv)
    return {"two_isometry_defect": worst_b2, "max_bn_form": worst_bn,
            "dual_norm": dual_norm_dense(mm, cauchy_dual_matrix(mm))}


def orbit_forms_mp(mm, Tp, block, n_max, dps=40):
    """B_1..B_n_max / ||v||^2 of T' for each column v of ``block`` at ``dps``
    digits, with the float entries of G, Tp and v taken as exact; returned as
    a (trials, n_max) array with the largest sum_k C(n, k) ||T'^k v||^2 / ||v||^2."""
    forms, scale = [], 0.0
    with mp.workdps(dps):
        G, T = mp.matrix(mm.G.tolist()), mp.matrix(Tp.tolist())
        for v in block.T:
            w = mp.matrix(v.tolist())
            norms = []
            for k in range(n_max + 1):
                norms.append(mp.re((w.H * G * w)[0]))
                w = T * w
            row = []
            for n in range(1, n_max + 1):
                terms = [(-1) ** k * comb(n, k) * norms[k] / norms[0] for k in range(n + 1)]
                row.append(float(mp.fsum(terms)))
                scale = max(scale, float(mp.fsum(abs(t) for t in terms)))
            forms.append(row)
    return np.array(forms), scale


class TestMonomialGram:
    def test_single_atom_entries(self):
        mm = monomial_gram(parse_measure("0:1"), 6)
        # <z^n, z^m> = delta + min(n, m) for the unit mass at 1
        for i in range(6):
            for j in range(6):
                expect = (1.0 if i == j else 0.0) + min(i, j)
                assert mm.G[i, j] == pytest.approx(expect, abs=1e-12)

    def test_three_point_band_structure(self):
        mm = monomial_gram(parse_measure("0,1/3,2/3:1,1,1"), 10)
        # weights sum over cube roots of unity: only j-i divisible by 3 survive
        for i in range(10):
            for j in range(10):
                if (j - i) % 3 == 0:
                    expect = (1.0 if i == j else 0.0) + 3 * min(i, j)
                    assert mm.G[i, j] == pytest.approx(expect, abs=1e-12)
                else:
                    assert abs(mm.G[i, j]) < 1e-12

    def test_hermitian_positive_definite(self):
        for spec in SPECS:
            mm = monomial_gram(parse_measure(spec), 12)
            assert np.linalg.norm(mm.G - mm.G.conj().T) < 1e-12
            assert np.min(np.linalg.eigvalsh(mm.G)) > 0

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_quadrature(self, spec):
        m = parse_measure(spec)
        mm = monomial_gram(m, 8)
        Q = gram_quadrature(m, 8)
        assert np.max(np.abs(mm.G - Q)) <= 1e-6

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(models())
    def test_symbol_equals_elementwise_powers(self, model):
        # the symbol holds the same per-lag powers and sums, so G is bit-identical
        spec, N = model
        m = parse_measure(spec)
        assert np.array_equal(monomial_gram(m, N).G, monomial_gram_elementwise(m, N).G)


class TestAglerForms:
    def test_b2_vanishes_everywhere(self):
        # the shift on any of these spaces is a 2-isometry
        rng = np.random.default_rng(1)
        for spec in SPECS:
            mm = monomial_gram(parse_measure(spec), 24)
            for _ in range(5):
                v = np.zeros(24, dtype=complex)
                v[:12] = rng.normal(size=12) + 1j * rng.normal(size=12)
                assert abs(bn_form(mm, 2, v)) <= 1e-10 * norm_sq(mm, v)

    def test_bn_nonpositive_for_shift(self):
        rng = np.random.default_rng(2)
        mm = monomial_gram(parse_measure("0,1/3,2/3:1,1,1"), 32)
        for n in range(1, 6):
            for _ in range(4):
                v = np.zeros(32, dtype=complex)
                v[:16] = rng.normal(size=16) + 1j * rng.normal(size=16)
                assert bn_form(mm, n, v) <= 1e-9 * norm_sq(mm, v)

    def test_headroom_enforced(self):
        mm = monomial_gram(parse_measure("0:1"), 8)
        v = np.ones(8, dtype=complex)
        with pytest.raises(Overflow):
            bn_form(mm, 2, v)


class TestSharedOrbit:
    def test_orbit_norms_are_norms_of_powers(self):
        mm = monomial_gram(parse_measure("0,1/4:1,2"), 12)
        v = np.zeros(12, dtype=complex)
        v[:4] = [1.0, -2.0j, 0.5, 3.0]
        S = shift_matrix(12)
        expect = [norm_sq(mm, np.linalg.matrix_power(S, k) @ v) for k in range(5)]
        assert orbit_norms(mm, v, 4, lambda w: S @ w) == expect

    def test_agler_forms_binomial_sums(self):
        assert agler_forms([1.0]) == [1.0]
        # B_1 = x0 - x1, B_2 = x0 - 2 x1 + x2, B_3 = x0 - 3 x1 + 3 x2 - x3
        assert agler_forms([5.0, 3.0, 2.0, 7.0]) == [5.0, 2.0, 1.0, -5.0]

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_bn_form_equals_per_order_loop(self, spec):
        rng = np.random.default_rng(3)
        mm = monomial_gram(parse_measure(spec), 24)
        for _ in range(4):
            v = np.zeros(24, dtype=complex)
            v[:16] = rng.normal(size=16) + 1j * rng.normal(size=16)
            for n in range(0, 9):
                assert bn_form(mm, n, v) == bn_form_per_order(mm, n, v)

    # The block sums each norm in a matrix product, in another order than
    # the per-vector loop, so the two agree to rounding and pick the same
    # witness; FORM_TOL is absolute, on forms normalized by ||v||^2.
    FORM_TOL = 1e-12

    def assert_probe_matches(self, m, N, seed):
        got = bn_dual_probe(m, n_max=8, trials=10, N=N, seed=seed)
        ref = bn_dual_probe_per_order(m, n_max=8, trials=10, N=N, seed=seed)
        for size in (N, 2 * N):
            entry = got["per_size"][size]
            assert abs(entry["most_negative"] - ref[size]["most_negative"]) <= self.FORM_TOL
            assert entry["witness"] == ref[size]["witness"]
            # the returned model and dual are the ones the probe used
            mm = monomial_gram(m, size)
            assert np.array_equal(entry["model"].G, mm.G)
            assert np.array_equal(entry["dual"], cauchy_dual_matrix(mm))
        assert got["most_negative"] == got["per_size"][2 * N]["most_negative"]
        assert got["witness"] == got["per_size"][2 * N]["witness"]

    def assert_run_oracle_matches(self, m, N):
        policy = NumericPolicy(oracle_N=N)
        got = run_oracle(m, policy)
        for key, value in run_oracle_per_order(m, policy).items():
            assert abs(got[key] - value) <= self.FORM_TOL, key
        probe = bn_dual_probe_per_order(m, 8, 10, N, seed=policy.seed)[2 * N]
        assert abs(got["dual_probe_most_negative"] - probe["most_negative"]) <= self.FORM_TOL
        witness = probe["witness"]
        assert got["dual_probe_witness"] == (list(witness) if witness else None)

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_dual_probe_equals_per_order_loop(self, spec):
        self.assert_probe_matches(parse_measure(spec), 24, seed=5)

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_run_oracle_equals_per_order_loop(self, spec):
        self.assert_run_oracle_matches(parse_measure(spec), 24)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(random_measures(k_max=5))
    def test_block_equals_per_order_loop_on_random_measures(self, spec):
        m = parse_measure(spec)
        self.assert_probe_matches(m, 24, seed=5)
        self.assert_run_oracle_matches(m, 24)

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_block_forms_as_accurate_as_per_vector(self, spec):
        # 40-digit orbit of the float T' (its entries, G's and v's taken as
        # exact): both evaluations sum the same alternating binomial series,
        # whose own rounding is about eps * sum_k C(n, k) ||T'^k v||^2 / ||v||^2
        # (measured: under 0.8 of it for both), so the block may miss the
        # exact forms by at most that much more than the per-vector loop does
        m = parse_measure(spec)
        for size in (12, 24):
            mm = monomial_gram(m, size)
            Tp = cauchy_dual_matrix(mm)
            block = probe_block(np.random.default_rng(5), size, 10, size // 2)
            exact, scale = orbit_forms_mp(mm, Tp, block, 8)
            norms = orbit_norms(mm, block, 8, lambda w: Tp @ w)
            got = np.stack(agler_forms(norms)[1:], axis=1) / norms[0][:, None]
            per_vector = []
            for v in block.T:
                nv = orbit_norms(mm, v, 8, lambda w: Tp @ w)
                per_vector.append([f / nv[0] for f in agler_forms(nv)[1:]])
            block_err = np.max(np.abs(got - exact))
            per_vector_err = np.max(np.abs(np.array(per_vector) - exact))
            rounding = np.finfo(float).eps * scale
            assert block_err <= per_vector_err + rounding
            assert block_err <= 4 * rounding


class TestCauchyDual:
    def test_left_inverse_property(self):
        # T^* T' = identity on the domain: <T' v, T w> = <v, w>
        for spec in SPECS:
            mm = monomial_gram(parse_measure(spec), 16)
            Tp = cauchy_dual_matrix(mm)
            S = shift_matrix(16)
            lhs = (S[:, :15].conj().T @ mm.G @ Tp[:, :15])
            assert np.max(np.abs(lhs - mm.G[:15, :15])) < 1e-9

    def test_dual_is_contraction(self):
        for spec in SPECS:
            mm = monomial_gram(parse_measure(spec), 24)
            assert dual_norm(mm) <= 1.0 + 1e-12
            assert dual_norm_dense(mm, cauchy_dual_matrix(mm)) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(models())
    def test_dual_norm_is_one(self, model):
        # T'^*T' = (T^*T)^{-1} = (I + Gm^{-1} D)^{-1} with D of rank k, which is
        # a contraction equal to 1 on the kernel of D, nonzero when N - 1 > k
        spec, N = model
        m = parse_measure(spec)
        assume(N - 1 > m.k)
        mm = monomial_gram(m, N)
        got = dual_norm(mm)
        assert got == pytest.approx(1.0, abs=1e-12)
        assert abs(got - dual_norm_dense(mm, cauchy_dual_matrix(mm))) <= 1e-12

    @pytest.mark.parametrize("spec, N", [("0,1/8,1/4,3/8,1/2,5/8,3/4,7/8:1,1,1,1,1,1,1,1", 9),
                                         ("0,1/8,1/4,3/8,1/2,5/8,3/4,7/8:1,2,1,3,1,0.5,1,1", 6),
                                         ("0,1/3,2/3:1,1,1", 4), ("0,1/4,1/2,3/4:1,2,3,4", 4)])
    def test_dual_norm_without_complement(self, spec, N):
        # with N - 1 <= k the kernel of U^H is trivial and the norm comes from
        # the N - 1 largest eigenvalues of the k x k form alone
        mm = monomial_gram(parse_measure(spec), N)
        got = dual_norm(mm)
        assert got < 1.0
        assert abs(got - dual_norm_dense(mm, cauchy_dual_matrix(mm))) <= 1e-12

    # On some random measures at N = 128 the two differ by 1e-12 of max|Tp|
    # with the dense solve's left-inverse residual ten times the defect
    # form's, so random measures are held to that residual alone.
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("N", [16, 64, 128])
    def test_defect_form_matches_dense_solve(self, spec, N):
        mm = monomial_gram(parse_measure(spec), N)
        Tp = cauchy_dual_matrix(mm)
        assert np.max(np.abs(Tp - cauchy_dual_dense(mm))) <= 1e-12 * np.max(np.abs(Tp))
        assert left_inverse_residual(mm, Tp) <= 1e-13

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(models())
    def test_defect_form_left_inverse(self, model):
        spec, N = model
        mm = monomial_gram(parse_measure(spec), N)
        assert left_inverse_residual(mm, cauchy_dual_matrix(mm)) <= 1e-13

    def test_shift_is_expansive(self):
        mm = monomial_gram(parse_measure("0,1/3,2/3:1,1,1"), 16)
        assert operator_norm_G(mm, shift_matrix(16)) >= 1.0

    def test_corner_entries_stabilize(self):
        # leading block should not move when the truncation size doubles
        m = parse_measure("0,1/3,2/3:1,1,1")
        T1 = cauchy_dual_matrix(monomial_gram(m, 32))
        T2 = cauchy_dual_matrix(monomial_gram(m, 64))
        assert np.max(np.abs(T1[:8, :8] - T2[:8, :8])) < 1e-9


class TestDualProbe:
    def test_three_point_negative_witness(self):
        res = bn_dual_probe(parse_measure("0,1/3,2/3:1,1,1"),
                            n_max=8, trials=20, N=24, seed=5)
        assert res["most_negative"] < -1e-3
        assert res["witness"] is not None

    def test_antipodal_stays_nonnegative(self):
        res = bn_dual_probe(parse_measure("0,1/2:1,1"),
                            n_max=6, trials=20, N=24, seed=5)
        assert res["most_negative"] >= -1e-8

    def test_single_atom_stays_nonnegative(self):
        res = bn_dual_probe(parse_measure("0:1"),
                            n_max=6, trials=20, N=24, seed=5)
        assert res["most_negative"] >= -1e-8
