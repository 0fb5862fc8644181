from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mpref
from conftest import (agler_eigs, bn_form, dual_step, equi_spaced, gram_quadrature, orbit_norms,
                      random_measures, shift)
from cdsp import parse_measure
from cdsp.oracle import (UNIT_ROUNDOFF, MonomialModel, agler_forms, bn_dual_probe,
                         cauchy_dual_matrix, dual_forms, dual_norm, monomial_gram, norm_sq)
from cdsp.policy import NumericPolicy
from cdsp.report import PipelineResult, run_oracle

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
    phase = np.sum(wts[:, None] * pts[:, None] ** np.abs(diff).reshape(1, -1),
                   axis=0).reshape(N, N)
    phase = np.where(diff < 0, phase.conj(), phase)  # s[-l] = conj(s[l])
    return MonomialModel(N, np.eye(N, dtype=complex) + mins * phase, m)


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


# Reference evaluation: every order n recomputes T^k v and its norm from v.

def bn_form_per_order(mm, n, v):
    total = 0.0
    w = v.copy()
    for k in range(n + 1):
        total += (-1) ** k * comb(n, k) * norm_sq(mm, w)
        if k < n:
            w = shift(w)
    return total


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
            assert np.array_equal(mm.G, mm.G.conj().T)
            assert np.min(np.linalg.eigvalsh(mm.G)) > 0

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_quadrature(self, spec):
        m = parse_measure(spec)
        mm = monomial_gram(m, 8)
        Q = gram_quadrature(m, 8)
        assert np.max(np.abs(mm.G - Q)) <= 1e-6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(models(sizes=(9, 24, 64)))
    def test_leading_block_is_the_smaller_model(self, model):
        # each entry depends only on (i, j), so the probe may take the N model
        # from the 2N Gram without changing a bit of it
        spec, N = model
        m = parse_measure(spec)
        assert np.array_equal(monomial_gram(m, 2 * N).G[:N, :N], monomial_gram(m, N).G)

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

    @pytest.mark.parametrize("shape", [(9,), (9, 10), (7, 20), (40, 3)])
    def test_agler_forms_equal_left_to_right_loop(self, shape):
        norms = list(np.random.default_rng(2).uniform(0.0, 10.0, size=shape))
        for n, got in enumerate(agler_forms(norms)):
            total = 0.0
            for k in range(n + 1):
                total += (-1) ** k * comb(n, k) * norms[k]
            assert np.array_equal(got, total)

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_bn_form_equals_per_order_loop(self, spec):
        rng = np.random.default_rng(3)
        mm = monomial_gram(parse_measure(spec), 24)
        for _ in range(4):
            v = np.zeros(24, dtype=complex)
            v[:16] = rng.normal(size=16) + 1j * rng.normal(size=16)
            for n in range(0, 9):
                assert bn_form(mm, n, v) == bn_form_per_order(mm, n, v)

    # measured up to 8e-17 on random measures at N = 9..128
    STEP_TOL = 1e-15

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("N", [12, 64])
    def test_dual_step_equals_dense_dual(self, spec, N):
        # the defect form applies the matrix cauchy_dual_matrix builds, to
        # vectors and blocks (top coefficients included: both ignore them)
        m = parse_measure(spec)
        rng = np.random.default_rng(7)
        for size in (N, 2 * N):
            mm = monomial_gram(m, size)
            Tp = cauchy_dual_matrix(mm)
            step = dual_step(mm)
            w = rng.normal(size=(size, 10)) + 1j * rng.normal(size=(size, 10))
            scale = np.max(np.abs(Tp)) * np.max(np.sum(np.abs(w), axis=0))
            assert np.max(np.abs(step(w) - Tp @ w)) <= self.STEP_TOL * scale
            assert np.max(np.abs(step(w[:, 0]) - Tp @ w[:, 0])) <= self.STEP_TOL * scale
            assert np.all(step(w)[0] == 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(models())
    def test_dual_forms_equal_orbit_norms(self, model):
        # the rank-k recurrence N_{j+1} = N_j - Z^H Q Z against one
        # X_j^H G X_j per power of the orbit that dual_step builds;
        # measured up to 4e-15 of max|N_j| on 200 random models
        spec, N = model
        mm = monomial_gram(parse_measure(spec), N)
        s = min(max(8, 2 * mm.measure.k), N - 8)
        want = np.array(orbit_norms(mm, np.eye(N, s, dtype=complex), 8, dual_step(mm)))
        got = dual_forms(mm, s, 8)
        assert np.array_equal(got[0], want[0])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", SPECS)
    def test_one_eigen_solve_equals_three_calls(self, spec):
        # bn_dual_probe reads the dual at N and 2N and the shift at N in one
        # batched eigen-solve; each family keeps the bits of a call of its own
        m = parse_measure(spec)
        probe = bn_dual_probe(m, 8, 24)
        small, s = probe["model"], probe["s"]
        families = [dual_forms(small, s, 8), dual_forms(monomial_gram(m, 48), s, 8),
                    [small.G[j:j + s, j:j + s] for j in range(9)]]
        lam = agler_eigs(np.stack(families))
        for i, forms in enumerate(families):
            assert np.array_equal(agler_eigs(forms), lam[i])
        assert np.array_equal(probe["min_eig"][24], lam[0])
        assert np.array_equal(probe["min_eig"][48], lam[1])
        assert np.array_equal(probe["shift_eig"], lam[2])

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_dual_probe_equals_per_order_loop(self, spec):
        # each order recomputes T'^j E_s by powers of the dense dual and
        # solves G_s^{-1} B_n y = lam y by a general eigensolver
        m = parse_measure(spec)
        probe = bn_dual_probe(m, 8, 24)
        s = probe["s"]
        for size in (24, 48):
            mm = monomial_gram(m, size)
            Tp = cauchy_dual_matrix(mm)
            for n in range(1, 9):
                B = 0
                for j in range(n + 1):
                    X = np.linalg.matrix_power(Tp, j)[:, :s]
                    B = B + (-1) ** j * comb(n, j) * (X.conj().T @ mm.G @ X)
                lam = np.linalg.eigvals(np.linalg.solve(mm.G[:s, :s], B)).real.min()
                assert lam == pytest.approx(probe["min_eig"][size][n - 1, 0], abs=1e-12)

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_run_oracle_equals_per_order_loop(self, spec):
        # the shift's orbit of E_s, one norm_sq per order, is the slides of G
        # that run_oracle reads, bit for bit
        m = parse_measure(spec)
        got = run_oracle(m, NumericPolicy(oracle_N=24))
        mm = monomial_gram(m, 24)
        E = np.eye(24, bn_dual_probe(m, 8, 24)["s"], dtype=complex)
        lam = agler_eigs(orbit_norms(mm, E, 8, shift))
        assert got["two_isometry_defect"] == np.max(np.abs(lam[1]))
        assert got["max_bn_form"] == np.max(lam)
        assert got["dual_norm"] == dual_norm(mm)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(random_measures(k_max=5))
    def test_witness_attains_its_eigenvalue_on_random_measures(self, spec):
        # the reported vector, run through the dense dual one order at a time,
        # has unit norm and gives the 2N model's smallest eigenvalue, below the
        # floor: a checkable witness that B_n(T') is not positive
        m = parse_measure(spec)
        probe = bn_dual_probe(m, 8, 24)
        assume(probe["witness"] is not None)
        n, big = probe["witness"]["order"], monomial_gram(m, 48)
        v = np.zeros(48, dtype=complex)
        v[:probe["s"]] = probe["witness"]["vector"]
        Tp = cauchy_dual_matrix(big)
        norms = [norm_sq(big, np.linalg.matrix_power(Tp, j) @ v) for j in range(n + 1)]
        value = sum((-1) ** j * comb(n, j) * x for j, x in enumerate(norms))
        assert norms[0] == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(probe["min_eig"][48][n - 1, 0], abs=1e-10)
        assert value < -probe["floor"][n - 1]


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


REF3 = "0,1/3,2/3:1,1,1"


class TestDualProbe:
    def test_three_point_negative_witness(self):
        res = bn_dual_probe(parse_measure(REF3), n_max=8, N=24)
        assert res["most_negative"] < -1e-3
        assert res["witness"]["order"] == 8
        assert not res["truncation_caution"]

    def test_antipodal_stays_nonnegative(self):
        res = bn_dual_probe(parse_measure("0,1/2:1,1"), n_max=6, N=24)
        assert res["most_negative"] >= -1e-8 and res["witness"] is None

    def test_single_atom_stays_nonnegative(self):
        res = bn_dual_probe(parse_measure("0:1"), n_max=6, N=24)
        assert res["most_negative"] >= -1e-8 and res["witness"] is None

    # one atom and antipodal pairs, which the pipeline never decides
    # NotSubnormal; at weights 0.01 the N = 64 model reads -7.2e-3 and the 2N
    # one -1.2e-5, which disagree: truncation, not a witness
    @pytest.mark.parametrize("spec", ["0,1/2:0.01,0.01", "0,1/2:0.1,0.1", "0,1/2:1,1",
                                      "0,1/2:1,3", "0,1/2:20,0.3", "0:1", "0:20"])
    def test_no_witness_on_one_atom_or_antipodal_pairs(self, spec):
        rep = run_oracle(parse_measure(spec), NumericPolicy())
        assert rep["dual_probe_witness"] is None
        assert rep["truncation_caution"] == (spec == "0,1/2:0.01,0.01")

    # the same one-atom and antipodal pairs (weight 0.01 aside): their 2N
    # values are rounding alone, measured at most 0.043 of 2^n * 2N * u; the
    # bound 0.1 fails an averaged Gram with N x N products per power (0.17)
    @pytest.mark.parametrize("spec", ["0,1/2:0.1,0.1", "0,1/2:1,1", "0,1/2:1,3",
                                      "0,1/2:20,0.3", "0:1", "0:20"])
    def test_rounding_noise_stays_a_tenth_of_the_unit(self, spec):
        N = NumericPolicy().oracle_N
        probe = bn_dual_probe(parse_measure(spec), 8, N)
        unit = 2.0 ** np.arange(1, 9) * 2 * N * UNIT_ROUNDOFF
        assert np.all(probe["min_eig"][2 * N][:, 0] >= -0.1 * unit)

    def test_ref3_min_eigs_match_40_digits(self):
        # s = 8 at N = 64; N = 128 agrees to 1e-10, and the 40-digit forms on
        # the same model to 1e-12 (measured 1e-14)
        probe = bn_dual_probe(parse_measure(REF3), 8, 64)
        low, high = probe["min_eig"][64][:, 0], probe["min_eig"][128][:, 0]
        assert probe["s"] == 8
        assert np.max(np.abs(low - high)) <= 1e-10
        exact = np.array([float(x) for x in mpref.agler_min_eigs(REF3, 64, 8, 8)])
        assert np.max(np.abs(low - exact)) <= 1e-12
        assert exact[7] == pytest.approx(-0.263951, abs=1e-6)
        assert probe["witness"]["order"] == 8 and probe["most_negative"] == high[7]

    def test_fixed_mass_sequence(self):
        # mu_k = sum_j (1/k) delta_{j/k} tends weak-* to arc length, whose
        # Cauchy dual is subnormal: its smallest Agler eigenvalue (s = 2k,
        # n <= 8, N = 256) fades while the zero-test norm grows
        lam, norm = [], []
        for k in (8, 16, 32):
            m = parse_measure(equi_spaced(k, 1 / k))
            lam.append(bn_dual_probe(m, 8, 128)["min_eig"][256][:, 0].min())
            norm.append(PipelineResult(m, NumericPolicy()).verdict.max_offdiag_norm)
        assert lam[0] < lam[1] < lam[2] < 0
        assert norm[0] < norm[1] < norm[2]
