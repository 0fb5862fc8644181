from fractions import Fraction

import numpy as np
import pytest

from cdsp import build_trig, factorize, parse_measure, rotate_measure, verify_identity
from cdsp.errors import RootOnCircle
from conftest import ALPHA_CONST, B_CONST


def sampled_coefficients(m, k):
    """Independent oracle: evaluate the defining product-sum directly on
    circle samples and recover Laurent coefficients by DFT."""
    n = 4 * k + 5
    zs = np.exp(2j * np.pi * np.arange(n) / n)
    pts, wts = m.points, m.weights
    vals = np.zeros(n)
    for idx, z in enumerate(zs):
        full = np.prod([abs(z - zeta) ** 2 for zeta in pts])
        rest = sum(c * np.prod([abs(z - pts[i]) ** 2
                                for i in range(len(pts)) if i != j])
                   for j, c in enumerate(wts))
        vals[idx] = full + rest
    coeffs = {}
    for mm in range(-k, k + 1):
        coeffs[mm] = np.mean(vals * np.exp(-2j * np.pi * mm * np.arange(n) / n))
    return coeffs


class TestBuildTrig:
    def test_three_point(self):
        m = parse_measure("0,1/3,2/3:1,1,1")
        t = build_trig(m)
        assert t.coeff(0) == pytest.approx(11.0, abs=1e-12)
        assert t.coeff(3) == pytest.approx(-1.0, abs=1e-12)
        assert t.coeff(-3) == pytest.approx(-1.0, abs=1e-12)
        for mm in (-2, -1, 1, 2):
            assert abs(t.coeff(mm)) < 1e-12

    def test_single_atom(self):
        t = build_trig(parse_measure("0:1"))
        assert t.coeff(0) == pytest.approx(3.0, abs=1e-12)
        assert t.coeff(1) == pytest.approx(-1.0, abs=1e-12)
        assert t.coeff(-1) == pytest.approx(-1.0, abs=1e-12)

    def test_antipodal(self):
        t = build_trig(parse_measure("0,1/2:1,1"))
        assert t.coeff(0) == pytest.approx(6.0, abs=1e-12)
        assert t.coeff(2) == pytest.approx(-1.0, abs=1e-12)
        assert abs(t.coeff(1)) < 1e-12 and abs(t.coeff(-1)) < 1e-12

    @pytest.mark.parametrize("spec", ["0,1/3,2/3:1,1,1", "0:1", "0,1/4:2,0.5",
                                      "0,1/5,1/2:1,3,0.25"])
    def test_matches_sampling_oracle(self, spec):
        m = parse_measure(spec)
        t = build_trig(m)
        oracle = sampled_coefficients(m, m.k)
        for mm in range(-m.k, m.k + 1):
            assert t.coeff(mm) == pytest.approx(oracle[mm], abs=1e-10)

    def test_hermitian_symmetry_and_positivity(self):
        m = parse_measure("0,1/6,1/2:2,1,0.3")
        t = build_trig(m)
        for mm in range(1, m.k + 1):
            assert t.coeff(-mm) == pytest.approx(np.conj(t.coeff(mm)), abs=1e-12)
        zs = np.exp(2j * np.pi * np.arange(64) / 64)
        vals = t.eval_circle(zs)
        assert np.max(np.abs(vals.imag)) < 1e-10
        assert np.min(vals.real) > 0


class TestFactorize:
    def test_three_point(self):
        fr = factorize(build_trig(parse_measure("0,1/3,2/3:1,1,1")))
        assert np.allclose(np.abs(fr.alphas), ALPHA_CONST, atol=1e-9)
        cubes = fr.alphas ** 3
        assert np.allclose(cubes, B_CONST, atol=1e-8)
        assert fr.d * B_CONST == pytest.approx(1.0, rel=1e-10)

    def test_single_atom(self):
        fr = factorize(build_trig(parse_measure("0:1")))
        assert fr.alphas[0] == pytest.approx((3 + np.sqrt(5)) / 2, rel=1e-10)
        assert fr.d == pytest.approx((3 - np.sqrt(5)) / 2, rel=1e-10)

    def test_antipodal(self):
        fr = factorize(build_trig(parse_measure("0,1/2:1,1")))
        assert sorted(np.round(fr.alphas.real, 9)) == pytest.approx(
            [-(1 + np.sqrt(2)), 1 + np.sqrt(2)])
        assert fr.d == pytest.approx(1 / (3 + 2 * np.sqrt(2)), rel=1e-10)

    def test_exactly_k_exterior_roots(self):
        for spec in ("0:1", "0,1/2:1,1", "0,1/3,2/3:1,1,1", "0,1/5,1/2:1,2,3"):
            m = parse_measure(spec)
            fr = factorize(build_trig(m))
            assert len(fr.alphas) == m.k
            assert np.min(np.abs(fr.alphas)) > 1 + 1e-8
            assert fr.d > 0

    def test_rotation_equivariance(self):
        m = parse_measure("0,1/3,2/3:1,2,0.5")
        fr = factorize(build_trig(m))
        phase = np.exp(2j * np.pi / 7)
        fr_rot = factorize(build_trig(rotate_measure(m, Fraction(1, 7))))
        rotated = sorted(fr.alphas * phase, key=np.angle)
        got = sorted(fr_rot.alphas, key=np.angle)
        assert np.allclose(rotated, got, atol=1e-9)
        assert fr_rot.d == pytest.approx(fr.d, rel=1e-9)

    def test_root_on_circle_rejected(self):
        # the zero-weight limit |z-1|^2 has its double root exactly on the circle
        from cdsp.fejer import TrigPoly
        t = TrigPoly(1, np.array([-1.0, 2.0, -1.0], dtype=complex))
        with pytest.raises(RootOnCircle):
            factorize(t)


class TestVerifyIdentity:
    def test_three_point(self):
        m = parse_measure("0,1/3,2/3:1,1,1")
        fr = factorize(build_trig(m))
        assert verify_identity(build_trig(m), fr) <= 1e-9

    def test_single_atom(self):
        m = parse_measure("0:1")
        fr = factorize(build_trig(m))
        assert verify_identity(build_trig(m), fr) <= 1e-12

    def test_detects_corrupted_constant(self):
        from cdsp.fejer import FejerRiesz
        m = parse_measure("0:1")
        fr = factorize(build_trig(m))
        bad = FejerRiesz(fr.alphas, fr.d * 1.01)
        assert verify_identity(build_trig(m), bad) > 5e-3
