import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsp import build_outer, factorize, kernel_full, kernel_omu, kernel_perp, parse_measure
from cdsp.dirichlet import eval_f_vector
from cdsp.oracle import monomial_gram
from conftest import B_CONST, W_CONST, equi_spaced, random_measures


def ascending(roots) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients."""
    return np.atleast_1d(np.poly(roots))[::-1].astype(complex)


def taylor_coeffs(dd, j, deg):
    """Series of f_j = p_j / (O'(zeta_j) q) up to the given degree."""
    q = ascending(dd.outer.alphas)
    inv = np.zeros(deg + 1, dtype=complex)
    inv[0] = 1.0 / q[0]
    for n in range(1, deg + 1):
        acc = 0.0
        for i in range(1, min(n, len(q) - 1) + 1):
            acc += q[i] * inv[n - i]
        inv[n] = -acc / q[0]
    pj = dd.outer.c * ascending(np.delete(dd.outer.zetas, j))
    num = pj / dd.fprime_at_zeta[j]
    return np.convolve(num, inv)[: deg + 1]


class TestOuter:
    def test_three_point_form(self):
        m = parse_measure("0,1/3,2/3:1,1,1")
        fr = factorize(m)
        od = build_outer(m, fr)
        sqrt_d = np.sqrt(fr.d)
        # O(z) = (z^3 - 1)/(sqrt(d) (z^3 - b)) with zero phase
        for z in (0.2, 0.3 - 0.4j, 0.1j):
            expect = (z ** 3 - 1) / (sqrt_d * (z ** 3 - B_CONST))
            assert od.eval(z) == pytest.approx(expect, rel=1e-10)

    def test_single_atom_positive_at_origin(self):
        m = parse_measure("0:1")
        fr = factorize(m)
        od = build_outer(m, fr)
        v0 = od.eval(0.0)
        assert v0.imag == pytest.approx(0.0, abs=1e-12)
        assert v0.real > 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(
        st.builds("{}/997:{!r}".format, st.integers(0, 996), st.floats(0.25, 4.0)),
        random_measures(k_max=8),
        st.integers(1, 64).map(equi_spaced)))
    def test_constant_from_exterior_roots(self, spec):
        # d prod |alpha_j| = 1 and O(0) = prod zeta_j / (sqrt(d) prod alpha_j) = sqrt(d)
        m = parse_measure(spec)
        fr = factorize(m)
        assert fr.d * np.prod(np.abs(fr.alphas)) == pytest.approx(1.0, rel=1e-13)
        v0 = build_outer(m, fr).eval(0.0)
        assert abs(v0.imag) <= 1e-13 * abs(v0)
        assert v0.real == pytest.approx(np.sqrt(fr.d), rel=1e-13)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(random_measures(k_max=8), st.integers(1, 64).map(equi_spaced)))
    def test_deflated_numerators_vanish_exactly_at_other_atoms(self, spec):
        # p_j(zeta_l) keeps the factor zeta_l - zeta_l = 0 for every l != j
        m = parse_measure(spec)
        od = build_outer(m, factorize(m))
        _, _, pj = od.parts(od.zetas)
        off = ~np.eye(m.k, dtype=bool)
        assert np.all(pj[off] == 0)
        assert np.all(np.diagonal(pj) != 0)

    @pytest.mark.parametrize("spec", ["0:1", "0,1/2:1,1", "0,1/3,2/3:1,1,1",
                                      "0,1/4:1,2"])
    def test_vanishes_at_atoms(self, spec):
        m = parse_measure(spec)
        od = build_outer(m, factorize(m))
        for zeta in m.points:
            assert abs(od.eval(zeta)) < 1e-10


class TestBasisFunctions:
    def test_three_point_f1_closed_form(self, three_point):
        dd = three_point.dd
        pts = np.array(three_point.measure.points)
        i1 = int(np.argmin(np.abs(pts - 1.0)))
        w = W_CONST
        for z in (0.3, -0.2 + 0.1j, 0.5j):
            expect = ((1 - B_CONST) * (z - w) * (z - w ** 2)
                      / (3 * (z ** 3 - B_CONST)))
            assert eval_f_vector(dd, z)[i1] == pytest.approx(expect, rel=1e-9)

    def test_cardinal_values_at_atoms(self, pipes):
        for pipe in pipes.values():
            pts = pipe.measure.points
            for j in range(pipe.measure.k):
                for i in range(pipe.measure.k):
                    expect = 1.0 if i == j else 0.0
                    assert eval_f_vector(pipe.dd, pts[i])[j] == pytest.approx(
                        expect, abs=1e-9)

    def test_limit_matches_nearby_values(self, three_point):
        # removable singularity: value at the atom agrees with radial limits
        dd = three_point.dd
        pts = np.array(three_point.measure.points)
        z = pts[0]
        inner = eval_f_vector(dd, z * (1 - 1e-6))[0]
        outer = eval_f_vector(dd, z * (1 + 1e-6))[0]
        assert abs(inner - 1.0) < 1e-4 and abs(outer - 1.0) < 1e-4


class TestGram:
    def test_positive_definite_everywhere(self, pipes):
        for pipe in pipes.values():
            assert np.min(np.linalg.eigvalsh(pipe.dd.D)) > 0
            k = pipe.measure.k
            assert np.linalg.norm(pipe.dd.D @ pipe.dd.B - np.eye(k)) <= 1e-9
            assert pipe.dd.gram_asymmetry < 1e-10

    def test_k1_scalar_gram_positive(self, pipes):
        dd = pipes["single"].dd
        assert dd.D.shape == (1, 1) and dd.D[0, 0].real > 0

    @pytest.mark.parametrize("name", ["single", "antipodal", "three_point",
                                      "quarter"])
    def test_cross_check_against_monomial_model(self, pipes, name):
        # pair Taylor expansions through the monomial Gram; independent of
        # the closed-form entry formulas
        pipe = pipes[name]
        dd = pipe.dd
        k = pipe.measure.k
        deg = 200
        mm = monomial_gram(pipe.measure, deg + 1)
        coeffs = [taylor_coeffs(dd, j, deg) for j in range(k)]
        for i in range(k):
            for j in range(k):
                inner = np.conj(coeffs[i]) @ (mm.G @ coeffs[j])
                assert inner == pytest.approx(dd.D[j, i], abs=1e-6)


class TestKernels:
    def test_full_kernel_symmetry(self, pipes):
        rng = np.random.default_rng(42)
        for pipe in pipes.values():
            for _ in range(20):
                z, lam = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(2)]
                a = kernel_full(pipe.dd, z, lam)
                b = kernel_full(pipe.dd, lam, z)
                assert a == pytest.approx(np.conj(b), abs=1e-10)

    def test_subspace_kernel_values(self, three_point):
        dd = three_point.dd
        v0 = kernel_omu(dd, 0.0, 0.0)
        assert v0.imag == pytest.approx(0.0, abs=1e-12)
        assert v0.real > 0
        # vanishes towards the atoms
        zeta = three_point.measure.points[0]
        assert abs(kernel_omu(dd, zeta * 0.9999, 0.3)) < 1e-3

    def test_perp_kernel_psd_on_samples(self, pipes):
        rng = np.random.default_rng(3)
        for pipe in pipes.values():
            zs = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(6)]
            K = np.array([[kernel_perp(pipe.dd, a, b) for b in zs] for a in zs])
            assert np.min(np.linalg.eigvalsh(0.5 * (K + K.conj().T))) >= -1e-9

    def test_k1_perp_kernel_closed_form(self, pipes):
        pipe = pipes["single"]
        dd = pipe.dd
        z, lam = 0.3 + 0.1j, -0.2 + 0.25j
        f1z = eval_f_vector(dd, z)[0]
        f1l = eval_f_vector(dd, lam)[0]
        expect = f1z * np.conj(f1l) / dd.D[0, 0].real
        assert kernel_perp(dd, z, lam) == pytest.approx(expect, rel=1e-10)
